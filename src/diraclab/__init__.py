"""diraclab: graph Dirac operators and Monte Carlo derivative estimators.

The package has three layers.  An exact symbolic layer (``clifford``,
``liealg``) realizes words with two-by-two blocks as matrices, computes
closed-form commutators, and reduces them to Clifford multivectors.  A
numeric layer (``specfun``, ``manifold``, ``graphdirac``) provides kernel
normalizers and moment integrals, two model manifolds, and the star weights
with the graph operator they define.  The estimator layer (``estimators``,
``cli``) runs seeded convergence experiments with quadrature oracles.
"""

from .clifford import Multivector, mv_mul
from .errors import (
    ConfigError,
    DiracLabError,
    InvalidArgumentError,
    InvalidGraphError,
    NumericFailureError,
    OutOfInjectivityError,
    OutOfNeighbourhoodError,
    SamplingFailureError,
    UnsupportedDegreeError,
)
from .estimators import (
    DEFAULT_MASTER_SEED,
    ConvergenceReport,
    RunConfig,
    TestFunction,
    convergence_run,
    dirac_estimate,
    dirac_expectation_oracle,
    embedding_coordinate_function,
    hbar_schedule,
    laplace_estimate,
    laplace_expectation_oracle,
    linear_coordinate_function,
    polynomial_family,
    resolve_test_function,
    s_jn,
    squared_radius_function,
)
from .graphdirac import (
    WeightedGraphDirac,
    assemble_dirac,
    pf_bound_report,
    star_anchors,
    star_weights,
)
from .liealg import (
    DiagonalObservable,
    DiracOperator,
    TensorElement,
    WeightedOperator,
    build_w,
    commutator_closed_form,
    commutator_concrete,
    dirac_from_w,
    double_commutator_closed_form,
    laplacian_closed_form,
    psi_map_to_clifford,
    psi_reduce,
    realize_commutator_edges,
    root_block,
)
from .manifold import (
    FramedPoint,
    JacobiReport,
    ManifoldModel,
    default_base_point,
    default_frame,
    exp_axis,
    exp_map,
    framed_point,
    jacobi_expansion_check,
    log_coords,
    log_map,
    make_manifold,
    neighbourhood_volume,
    sample_log_coords,
    sample_uniform_batch,
    vol_density,
)
from .specfun import bessel_i_scaled, lemma_abc, log_c_d, vmf_moments

__version__ = "0.1.0"
