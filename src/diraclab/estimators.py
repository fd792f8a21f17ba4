"""Monte Carlo estimators for frame derivatives and the Laplacian, with oracles.

The estimators average concentration-weighted differences of a test function
over sampled star graphs.  The frame-derivative estimator is assembled through
the word calculus (averaged commutator element, reduced to a grade-1
multivector); the direct column formula ``s_jn`` must agree with it to
rounding, and tests hold both routes against each other.

Normalization: the samples are uniform on the neighbourhood, so the sample
mean estimates (1/Vol) times the kernel integral; every estimator multiplies
by the neighbourhood volume so that its expectation is the integral itself,
which is the quantity with the stated small-hbar limits.  The quadrature
oracles compute those integrals directly.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import json

import numpy as np
from numpy.polynomial.legendre import leggauss

from .clifford import Multivector
from .errors import InvalidArgumentError
from .graphdirac import LambdaWeights, anchor_rows, laplace_lambda, star_weights
from .liealg import MAT_Y, TensorElement, psi_map_to_clifford
from .manifold import (
    FramedPoint,
    ManifoldModel,
    exp_map,
    framed_point,
    log_coords,
    make_manifold,
    neighbourhood_volume,
    sample_uniform_batch,
    vol_density,
)
from .specfun import QuadratureRule, _adaptive, log_c_d

__all__ = [
    "DEFAULT_MASTER_SEED",
    "ARTIFACT_VERSION",
    "hbar_schedule",
    "hoeffding_bound",
    "TestFunction",
    "validate_test_function",
    "linear_coordinate_function",
    "squared_radius_function",
    "embedding_coordinate_function",
    "polynomial_family",
    "resolve_test_function",
    "s_jn",
    "DiracEstimate",
    "dirac_estimate",
    "laplace_estimate",
    "dirac_expectation_oracle",
    "laplace_expectation_oracle",
    "RunConfig",
    "ConvergenceReport",
    "convergence_run",
    "table_texts",
]

DEFAULT_MASTER_SEED = 20260816
ARTIFACT_VERSION = "1"

CSV_COLUMNS = (
    "mode",
    "manifold",
    "d",
    "alpha",
    "n",
    "hbar",
    "j",
    "estimate_mean",
    "estimate_se",
    "oracle",
    "target",
    "abs_err",
    "hoeffding",
)


def hbar_schedule(n: int, alpha: float) -> float:
    """Scale parameter hbar_n = n^(-alpha)."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InvalidArgumentError(f"sample count must be an integer >= 1, got {n!r}")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise InvalidArgumentError(f"alpha must be finite and > 0, got {alpha!r}")
    return float(n) ** (-alpha)


def hoeffding_bound(n: int, eps: float, alpha: float, d: int) -> float:
    """Two-sided concentration bound 2 exp(-eps^2 n / C_d(n^alpha)^2).

    Evaluated in log space; when the exponent is astronomically negative the
    bound underflows cleanly to 0.0.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InvalidArgumentError(f"sample count must be an integer >= 1, got {n!r}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise InvalidArgumentError(f"eps must be finite and > 0, got {eps!r}")
    hb = hbar_schedule(n, alpha)
    lcd = log_c_d(d, 1.0 / hb)
    log_inner = math.log(eps * eps * n) - 2.0 * lcd
    if log_inner > 700.0:
        return 0.0
    return 2.0 * math.exp(-math.exp(log_inner))


@dataclass(frozen=True)
class TestFunction:
    """A scalar observable with its frame derivatives and Laplacian at the base point.

    ``evaluate`` maps point arrays (..., embedding_dim) to values (...).
    ``frame_derivatives[j-1]`` is e_j(a) at the base point; ``laplacian_at_base``
    is the Laplace-Beltrami value there.
    """

    name: str
    evaluate: object
    frame_derivatives: np.ndarray
    laplacian_at_base: float


def validate_test_function(
    m: ManifoldModel,
    fp: FramedPoint,
    a: TestFunction,
    h: float = 1e-3,
    tol: float = 1e-6,
) -> dict:
    """Finite-difference check of the declared derivatives and Laplacian.

    Returns the residuals; raises InvalidArgumentError when any relative
    residual exceeds ``tol``.
    """
    base = float(a.evaluate(fp.point))
    deriv_res = []
    lap_fd = 0.0
    for j in range(m.d):
        step = h * fp.frame[j]
        up = float(a.evaluate(exp_map(m, fp.point, step)))
        down = float(a.evaluate(exp_map(m, fp.point, -step)))
        fd = (up - down) / (2.0 * h)
        declared = float(a.frame_derivatives[j])
        deriv_res.append(abs(fd - declared) / max(1.0, abs(declared)))
        lap_fd += (up - 2.0 * base + down) / (h * h)
    lap_declared = float(a.laplacian_at_base)
    lap_res = abs(lap_fd - lap_declared) / max(1.0, abs(lap_declared))
    out = {"derivative_residuals": deriv_res, "laplacian_residual": lap_res}
    if max(deriv_res) > tol or lap_res > tol:
        raise InvalidArgumentError(
            f"test function {a.name!r} failed the finite-difference check: {out}"
        )
    return out


def linear_coordinate_function(m: ManifoldModel, fp: FramedPoint, j: int) -> TestFunction:
    """a(x) = j-th frame coordinate of log_p x.  Harmonic at p; gradient e_j."""
    if not (1 <= j <= m.d):
        raise InvalidArgumentError(f"coordinate index must lie in 1..{m.d}, got {j}")
    derivs = np.zeros(m.d)
    derivs[j - 1] = 1.0

    def evaluate(points):
        return log_coords(m, fp, points)[..., j - 1]

    return TestFunction(
        name=f"linear-x{j}",
        evaluate=evaluate,
        frame_derivatives=derivs,
        laplacian_at_base=0.0,
    )


def squared_radius_function(m: ManifoldModel, fp: FramedPoint) -> TestFunction:
    """a(x) = |log_p x|^2.  Gradient 0 at p; Laplacian 2d there."""

    def evaluate(points):
        v = log_coords(m, fp, points)
        return np.sum(v * v, axis=-1)

    return TestFunction(
        name="squared-radius",
        evaluate=evaluate,
        frame_derivatives=np.zeros(m.d),
        laplacian_at_base=2.0 * m.d,
    )


def embedding_coordinate_function(m: ManifoldModel, fp: FramedPoint, axis: int) -> TestFunction:
    """a(x) = x[axis] in embedding coordinates.

    On the sphere: e_j(a)(p) = <e_j, u>, Laplacian -d <p, u> (u the axis
    direction); flat space is the linear case with zero Laplacian.
    """
    if not (0 <= axis < m.embedding_dim):
        raise InvalidArgumentError(
            f"axis must lie in 0..{m.embedding_dim - 1}, got {axis}"
        )
    derivs = fp.frame[:, axis].copy()
    if m.kind == "sphere":
        lap = -float(m.d) * float(fp.point[axis])
    else:
        lap = 0.0

    def evaluate(points):
        return np.asarray(points, dtype=float)[..., axis]

    return TestFunction(
        name=f"embedding-x{axis + 1}",
        evaluate=evaluate,
        frame_derivatives=derivs,
        laplacian_at_base=lap,
    )


def _polynomial(m: ManifoldModel, fp: FramedPoint, name: str, terms) -> TestFunction:
    """Polynomial in the first two log coordinates, given as (coeff, (p1, p2)) terms."""
    derivs = np.zeros(m.d)
    lap = 0.0
    for coeff, (p1, p2) in terms:
        if (p1, p2) == (1, 0):
            derivs[0] += coeff
        elif (p1, p2) == (0, 1):
            derivs[1] += coeff
        elif (p1, p2) == (2, 0) or (p1, p2) == (0, 2):
            lap += 2.0 * coeff

    def evaluate(points, _terms=tuple(terms)):
        v = log_coords(m, fp, points)
        out = np.zeros(v.shape[:-1])
        for coeff, (p1, p2) in _terms:
            out = out + coeff * v[..., 0] ** p1 * v[..., 1] ** p2
        return out

    return TestFunction(
        name=name,
        evaluate=evaluate,
        frame_derivatives=derivs,
        laplacian_at_base=lap,
    )


def polynomial_family(m: ManifoldModel, fp: FramedPoint) -> list:
    """Ten low-degree polynomials in the first two log coordinates (needs d >= 2)."""
    if m.d < 2:
        raise InvalidArgumentError("the polynomial family needs dimension >= 2")
    specs = [
        ("poly-v1", [(1.0, (1, 0))]),
        ("poly-v2", [(1.0, (0, 1))]),
        ("poly-v1sq", [(1.0, (2, 0))]),
        ("poly-v1v2", [(1.0, (1, 1))]),
        ("poly-v2sq", [(1.0, (0, 2))]),
        ("poly-v1cube", [(1.0, (3, 0))]),
        ("poly-v1plusv2", [(1.0, (1, 0)), (1.0, (0, 1))]),
        ("poly-v1sqv2", [(1.0, (2, 1))]),
        ("poly-v1v2sq", [(1.0, (1, 2))]),
        ("poly-radsq", [(1.0, (2, 0)), (1.0, (0, 2))]),
    ]
    return [_polynomial(m, fp, name, terms) for name, terms in specs]


_AUTO = "auto"


def resolve_test_function(m: ManifoldModel, fp: FramedPoint, mode: str, name: str) -> TestFunction:
    """Look up a shipped test function by name, or pick the mode's default."""
    if name == _AUTO:
        if mode == "laplace":
            return squared_radius_function(m, fp)
        if m.kind == "sphere":
            return embedding_coordinate_function(m, fp, 0)
        return linear_coordinate_function(m, fp, 1)
    if name.startswith("linear-x"):
        return linear_coordinate_function(m, fp, int(name[len("linear-x") :]))
    if name == "squared-radius":
        return squared_radius_function(m, fp)
    if name.startswith("embedding-x"):
        return embedding_coordinate_function(m, fp, int(name[len("embedding-x") :]) - 1)
    raise InvalidArgumentError(f"unknown test function {name!r}")


def s_jn(
    m: ManifoldModel,
    samples,
    a: TestFunction,
    fp: FramedPoint,
    j: int,
    hbar: float,
    sigma: int = 1,
) -> float:
    """Direct frame-derivative estimator from the j-th neighbour column.

    s_jn = (Vol(U_p) / (n hbar)) sum_k w_kj (a(x_k) - a(p)), with w the
    concentration weight against the j-th frame anchor.
    """
    if not (1 <= j <= m.d):
        raise InvalidArgumentError(f"component index must lie in 1..{m.d}, got {j}")
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InvalidArgumentError(f"samples must be a non-empty 2-d array, got {pts.shape}")
    n = pts.shape[0]
    w = star_weights(log_coords(m, fp, pts), np.eye(m.d)[j - 1], fp, hbar, sigma)
    da = np.asarray(a.evaluate(pts), dtype=float) - float(a.evaluate(fp.point))
    vol = neighbourhood_volume(m, fp)
    return vol * float(np.sum(w * da)) / (n * hbar)


@dataclass(frozen=True)
class DiracEstimate:
    """Frame-derivative estimate assembled through the word calculus.

    ``multivector`` is grade-1 with component j equal to the column estimator
    s_jn; ``factor`` is the residual anti-Hermitian unit i carried by the
    commutator realization.
    """

    multivector: Multivector
    factor: complex
    components: np.ndarray
    hbar: float
    n_copies: int


def _weights_and_differences(m, samples, a, fp, hbar, sigma, lam):
    """Shared core: weight matrix (n, d+1) and centered values (n, d+1)."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 3 or pts.shape[1] != m.d + 1 or pts.shape[0] < 1:
        raise InvalidArgumentError(
            f"samples must have shape (n, {m.d + 1}, {m.embedding_dim}), got {pts.shape}"
        )
    w = star_weights(log_coords(m, fp, pts), anchor_rows(fp, lam), fp, hbar, sigma)
    da = np.asarray(a.evaluate(pts), dtype=float) - float(a.evaluate(fp.point))
    return w, da


def dirac_estimate(
    m: ManifoldModel,
    samples,
    a: TestFunction,
    fp: FramedPoint,
    hbar: float,
    sigma: int = 1,
    lam: LambdaWeights | None = None,
) -> DiracEstimate:
    """Estimate the frame gradient of ``a`` at the base point from star samples.

    ``samples`` has shape (n, d+1, embedding_dim): n star copies, one sampled
    neighbour per anchor slot.  The averaged commutator element is built in
    the word calculus, reduced to a grade-1 multivector, and rescaled by the
    neighbourhood volume; its components equal s_jn on each column.
    """
    if lam is None:
        lam = laplace_lambda(fp.frame)
    w, da = _weights_and_differences(m, samples, a, fp, hbar, sigma, lam)
    n = w.shape[0]
    coeff = (w * da).mean(axis=0)
    n_pairs = (m.d + 3) // 2
    terms = {}
    for slot in range(m.d + 1):
        terms[((1, 2 + slot),)] = (1j / hbar) * coeff[slot] * MAT_Y
    element = TensorElement(n_pairs, terms)
    mv, _factor = psi_map_to_clifford(element, m.d, hbar)
    vol = neighbourhood_volume(m, fp)
    scaled = mv.scale(vol / hbar)
    components = np.array([scaled.component(1 << k) for k in range(m.d)])
    return DiracEstimate(
        multivector=scaled,
        factor=1j,
        components=components,
        hbar=float(hbar),
        n_copies=n,
    )


def laplace_estimate(
    m: ManifoldModel,
    samples,
    a: TestFunction,
    fp: FramedPoint,
    hbar: float,
    sigma: int = 1,
    lam: LambdaWeights | None = None,
    lambda_power: int = 1,
) -> float:
    """Estimate the Laplacian of ``a`` at the base point from star samples.

    Omega_n = (Vol(U_p) / (n hbar^2)) sum_k sum_j lambda_j^p w_kj (a(x_kj) - a(p)),
    with one shared normalizer inside the weights and the averaging weights
    lambda summing to 1 (``lambda_power`` selects first or second power).
    """
    if lambda_power not in (1, 2):
        raise InvalidArgumentError(f"lambda_power must be 1 or 2, got {lambda_power!r}")
    if lam is None:
        lam = laplace_lambda(fp.frame)
    w, da = _weights_and_differences(m, samples, a, fp, hbar, sigma, lam)
    n = w.shape[0]
    lamvec = lam.lams**lambda_power
    total = float(np.sum((w * da) @ lamvec))
    vol = neighbourhood_volume(m, fp)
    return vol * total / (n * hbar * hbar)


def _oracle_quadrature(m, fp, hbar, sigma, rule, make_kernel, a):
    """Adaptive polar quadrature of kernel(v) (a(exp v) - a(p)) G(|v|) over the ball.

    ``make_kernel(proj_matrix)`` maps anchor projections (nodes, d+1) to the
    kernel values; the caller folds in its own anchor weights and prefactors.
    Only d = 2 is supported; higher dimensions would need a product rule over
    the sphere of directions.
    """
    if m.d != 2:
        raise InvalidArgumentError("quadrature oracles are implemented for d = 2 only")
    if rule is None:
        rule = QuadratureRule()
    lam = laplace_lambda(fp.frame)
    anchors = anchor_rows(fp, lam)
    a0 = float(a.evaluate(fp.point))

    def evaluate(level: int):
        r, wr = rule.radial_nodes(level, 0.0, fp.delta_u)
        n_ang = rule.n_angular * (1 << level)
        x, wx = leggauss(n_ang)
        phi = math.pi * (x + 1.0)
        wphi = math.pi * wx
        cs = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        v = r[:, None, None] * cs[None, :, :]
        emb = v @ fp.frame
        pts = exp_map(m, fp.point, emb)
        da = np.asarray(a.evaluate(pts), dtype=float) - a0
        dens = vol_density(m, fp.point, emb)
        proj = np.einsum("rpd,sd->rps", v, anchors)
        kern = make_kernel(proj)
        vals = kern * da * dens * r[:, None]
        total = np.einsum("rp,r,p->", vals, wr, wphi)
        return np.array([total])

    return float(_adaptive(rule, evaluate, "expectation oracle")[0])


def dirac_expectation_oracle(
    m: ManifoldModel,
    a: TestFunction,
    fp: FramedPoint,
    j: int,
    hbar: float,
    sigma: int = 1,
    rule: QuadratureRule | None = None,
) -> float:
    """Exact expectation of s_jn at fixed hbar, by quadrature (d = 2)."""
    if not (1 <= j <= m.d):
        raise InvalidArgumentError(f"component index must lie in 1..{m.d}, got {j}")
    beta = 1.0 / hbar
    lcd = log_c_d(m.d, beta)

    def make_kernel(proj):
        return np.exp(lcd + sigma * beta * proj[..., j - 1])

    return _oracle_quadrature(m, fp, hbar, sigma, rule, make_kernel, a) / hbar


def laplace_expectation_oracle(
    m: ManifoldModel,
    a: TestFunction,
    fp: FramedPoint,
    hbar: float,
    sigma: int = 1,
    rule: QuadratureRule | None = None,
    lambda_power: int = 1,
) -> float:
    """Exact expectation of the Laplace estimator at fixed hbar, by quadrature (d = 2)."""
    if lambda_power not in (1, 2):
        raise InvalidArgumentError(f"lambda_power must be 1 or 2, got {lambda_power!r}")
    beta = 1.0 / hbar
    lcd = log_c_d(m.d, beta)
    lam = laplace_lambda(fp.frame)
    lamvec = lam.lams**lambda_power

    def make_kernel(proj):
        return np.exp(lcd + sigma * beta * proj) @ lamvec

    return _oracle_quadrature(m, fp, hbar, sigma, rule, make_kernel, a) / (hbar * hbar)


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of a convergence experiment."""

    mode: str = "dirac"
    manifold: str = "flat"
    dim: int = 2
    alpha: float = 0.2
    n_grid: tuple = (1000, 10000, 100000)
    repeats: int = 50
    master_seed: int = DEFAULT_MASTER_SEED
    sigma: int = 1
    test_function: str = _AUTO
    delta_u: float | None = None
    lambda_power: int = 1
    family_check: bool = False
    threads: int = 1
    hoeffding_eps: float = 0.1

    def __post_init__(self) -> None:
        if self.mode not in ("dirac", "laplace"):
            raise InvalidArgumentError(f"mode must be dirac or laplace, got {self.mode!r}")
        if self.manifold not in ("flat", "sphere"):
            raise InvalidArgumentError(
                f"manifold must be flat or sphere, got {self.manifold!r}"
            )
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise InvalidArgumentError(f"dim must be an integer >= 2, got {self.dim!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise InvalidArgumentError(f"alpha must be finite and > 0, got {self.alpha!r}")
        grid = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if any(n < 1 for n in grid):
            raise InvalidArgumentError(f"n grid entries must be >= 1, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidArgumentError(f"n grid must be strictly increasing, got {grid}")
        if not isinstance(self.repeats, (int, np.integer)) or self.repeats < 1:
            raise InvalidArgumentError(f"repeats must be an integer >= 1, got {self.repeats!r}")
        if not isinstance(self.master_seed, (int, np.integer)) or not (
            0 <= self.master_seed < 2**64
        ):
            raise InvalidArgumentError(
                f"master seed must be an integer in [0, 2^64), got {self.master_seed!r}"
            )
        if self.sigma not in (1, -1):
            raise InvalidArgumentError(f"sign must be +1 or -1, got {self.sigma!r}")
        if self.lambda_power not in (1, 2):
            raise InvalidArgumentError(
                f"lambda_power must be 1 or 2, got {self.lambda_power!r}"
            )
        if not isinstance(self.threads, (int, np.integer)) or self.threads < 1:
            raise InvalidArgumentError(f"threads must be an integer >= 1, got {self.threads!r}")
        if not (math.isfinite(self.hoeffding_eps) and self.hoeffding_eps > 0.0):
            raise InvalidArgumentError(
                f"hoeffding eps must be finite and > 0, got {self.hoeffding_eps!r}"
            )


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def table_texts(columns, rows) -> tuple:
    """CSV and whitespace-separated (.dat) text of one table of row dicts.

    Floats are written with repr, so they round-trip exactly; bools as 1/0.
    """
    cells = [[_cell(row[c]) for c in columns] for row in rows]
    csv_lines = [",".join(columns)] + [",".join(r) for r in cells]
    dat_lines = ["# " + " ".join(columns)] + [" ".join(r) for r in cells]
    return "\n".join(csv_lines) + "\n", "\n".join(dat_lines) + "\n"


@dataclass
class ConvergenceReport:
    """Rows of a convergence experiment plus its resolved metadata.

    ``wall_time_s`` is informational only and is deliberately left out of
    every serialization, so regenerated reports are byte-identical.
    """

    metadata: dict
    rows: list
    family_rows: list = field(default_factory=list)
    wall_time_s: float | None = None

    def to_json_text(self) -> str:
        payload = {
            "metadata": self.metadata,
            "rows": self.rows,
            "family": self.family_rows,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _resolved_metadata(cfg: RunConfig, m, fp, a, vol) -> dict:
    return {
        "artifact_version": ARTIFACT_VERSION,
        "mode": cfg.mode,
        "manifold": cfg.manifold,
        "d": m.d,
        "alpha": cfg.alpha,
        "n_grid": list(cfg.n_grid),
        "repeats": cfg.repeats,
        "master_seed": cfg.master_seed,
        "sigma": cfg.sigma,
        "test_function": a.name,
        "delta_u": fp.delta_u,
        "lambda_power": cfg.lambda_power,
        "family_check": cfg.family_check,
        "hoeffding_eps": cfg.hoeffding_eps,
        "neighbourhood_volume": vol,
        "normalization": "neighbourhood volume times kernel mean",
        "seed_scheme": "SeedSequence([master_seed, n_index, repeat_index])",
        "targets": {
            "frame_derivatives": [float(x) for x in a.frame_derivatives],
            "laplacian": float(a.laplacian_at_base),
        },
    }


def convergence_run(cfg: RunConfig) -> ConvergenceReport:
    """Run the configured convergence experiment and aggregate its report.

    Per grid entry n the scale is hbar_n = n^(-alpha); each repeat draws its
    own generator from SeedSequence([master_seed, n_index, repeat_index]), so
    results do not depend on scheduling or thread count.  An empty n grid
    yields an empty report.
    """
    m = make_manifold(cfg.manifold, cfg.dim)
    fp = framed_point(m, delta_u=cfg.delta_u)
    a = resolve_test_function(m, fp, cfg.mode, cfg.test_function)
    lam = laplace_lambda(fp.frame)
    vol = neighbourhood_volume(m, fp)
    family = polynomial_family(m, fp) if (cfg.family_check and cfg.mode == "dirac") else []
    metadata = _resolved_metadata(cfg, m, fp, a, vol)
    slots = m.d + 1

    def one_repeat(n_idx: int, rep: int):
        n = cfg.n_grid[n_idx]
        hbar = hbar_schedule(n, cfg.alpha)
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.master_seed, n_idx, rep])
        )
        pts = sample_uniform_batch(m, fp, rng, n * slots).reshape(n, slots, m.embedding_dim)
        if cfg.mode == "dirac":
            est = dirac_estimate(m, pts, a, fp, hbar, sigma=cfg.sigma, lam=lam)
            fam = (
                np.array(
                    [
                        dirac_estimate(m, pts, f, fp, hbar, sigma=cfg.sigma, lam=lam).components
                        for f in family
                    ]
                )
                if family
                else None
            )
            return est.components, fam
        value = laplace_estimate(
            m, pts, a, fp, hbar, sigma=cfg.sigma, lam=lam, lambda_power=cfg.lambda_power
        )
        return np.array([value]), None

    n_components = m.d if cfg.mode == "dirac" else 1
    results = {
        n_idx: np.empty((cfg.repeats, n_components)) for n_idx in range(len(cfg.n_grid))
    }
    fam_results = {n_idx: [None] * cfg.repeats for n_idx in range(len(cfg.n_grid))}
    tasks = [(n_idx, rep) for n_idx in range(len(cfg.n_grid)) for rep in range(cfg.repeats)]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outs = list(pool.map(lambda t: one_repeat(*t), tasks))
    else:
        outs = [one_repeat(*t) for t in tasks]
    for (n_idx, rep), (comps, fam) in zip(tasks, outs):
        results[n_idx][rep] = comps
        fam_results[n_idx][rep] = fam

    rows = []
    family_rows = []
    for n_idx, n in enumerate(cfg.n_grid):
        hbar = hbar_schedule(n, cfg.alpha)
        hf = hoeffding_bound(n, cfg.hoeffding_eps, cfg.alpha, m.d)
        data = results[n_idx]
        if cfg.mode == "dirac":
            col_targets = [float(a.frame_derivatives[j - 1]) for j in range(1, m.d + 1)]
            col_oracles = [
                dirac_expectation_oracle(m, a, fp, j, hbar, sigma=cfg.sigma)
                if m.d == 2
                else math.nan
                for j in range(1, m.d + 1)
            ]
            for j in range(1, m.d + 1):
                vals = data[:, j - 1]
                mean = float(np.mean(vals))
                se = (
                    float(np.std(vals, ddof=1) / math.sqrt(cfg.repeats))
                    if cfg.repeats > 1
                    else 0.0
                )
                rows.append(
                    {
                        "mode": cfg.mode,
                        "manifold": cfg.manifold,
                        "d": m.d,
                        "alpha": cfg.alpha,
                        "n": n,
                        "hbar": hbar,
                        "j": j,
                        "estimate_mean": mean,
                        "estimate_se": se,
                        "oracle": col_oracles[j - 1],
                        "target": col_targets[j - 1],
                        "abs_err": abs(mean - col_targets[j - 1]),
                        "hoeffding": hf,
                    }
                )
        else:
            vals = data[:, 0]
            mean = float(np.mean(vals))
            se = (
                float(np.std(vals, ddof=1) / math.sqrt(cfg.repeats))
                if cfg.repeats > 1
                else 0.0
            )
            oracle = (
                laplace_expectation_oracle(
                    m, a, fp, hbar, sigma=cfg.sigma, lambda_power=cfg.lambda_power
                )
                if m.d == 2
                else math.nan
            )
            target = float(a.laplacian_at_base)
            rows.append(
                {
                    "mode": cfg.mode,
                    "manifold": cfg.manifold,
                    "d": m.d,
                    "alpha": cfg.alpha,
                    "n": n,
                    "hbar": hbar,
                    "j": 0,
                    "estimate_mean": mean,
                    "estimate_se": se,
                    "oracle": oracle,
                    "target": target,
                    "abs_err": abs(mean - target),
                    "hoeffding": hf,
                }
            )
        if family and cfg.mode == "dirac":
            stack = np.array(fam_results[n_idx])
            centers = stack.mean(axis=0)
            devs = np.linalg.norm(stack - centers[None, :, :], axis=2)
            sup_per_rep = devs.max(axis=1)
            family_rows.append(
                {
                    "n": n,
                    "hbar": hbar,
                    "family_size": len(family),
                    "sup_fluctuation_mean": float(np.mean(sup_per_rep)),
                    "sup_fluctuation_max": float(np.max(sup_per_rep)),
                }
            )
    return ConvergenceReport(metadata=metadata, rows=rows, family_rows=family_rows)
