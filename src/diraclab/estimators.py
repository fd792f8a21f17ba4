"""Monte Carlo estimators for frame derivatives and the Laplacian, with oracles.

The estimators average concentration-weighted differences of a test function
over sampled star graphs.  Samples are frame log coordinates at the base
point, shape (..., d), as ``sample_log_coords`` draws them; test functions
are evaluated on the same coordinates, so nothing is mapped into the
embedding and back.  The frame-derivative estimate is the weighted mean of
each anchor column; it equals the column formula ``s_jn`` and the grade-1
image of the averaged commutator element in the word calculus, which the
``estimator-word-path-vs-direct`` row of ``algebra-check`` holds to 1e-12.

Normalization: the samples are uniform on the neighbourhood, so the sample
mean estimates (1/Vol) times the kernel integral; every estimator multiplies
by the neighbourhood volume so that its expectation is the integral itself,
which is the quantity with the stated small-hbar limits.  The quadrature
oracles compute those integrals directly, in any dimension.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import json
import time

import numpy as np

from .errors import InvalidArgumentError, OutOfNeighbourhoodError, _integer, _positive, _sign
from .graphdirac import _check_inside, _weights, star_anchors, star_weights
from .manifold import (
    _KINDS,
    FramedPoint,
    ManifoldModel,
    _radial_density,
    _sample_log_coords,
    exp_axis,
    framed_point,
    make_manifold,
    neighbourhood_volume,
)
from .specfun import _radial_integral, _shell_moments, log_c_d

__all__ = [
    "DEFAULT_MASTER_SEED",
    "ARTIFACT_VERSION",
    "hbar_schedule",
    "TestFunction",
    "linear_coordinate_function",
    "squared_radius_function",
    "embedding_coordinate_function",
    "polynomial_family",
    "resolve_test_function",
    "s_jn",
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
ARTIFACT_VERSION = "4"

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
    "bias",
    "z",
)


def hbar_schedule(n: int, alpha: float) -> float:
    """Scale parameter hbar_n = n^(-alpha)."""
    n = _integer("sample count", n, 1)
    return n ** -_positive("alpha", alpha)


@dataclass(frozen=True)
class TestFunction:
    """A scalar observable with its frame derivatives and Laplacian at the base point.

    ``evaluate`` maps frame log coordinates (..., d) at the base point to
    values (...); the base point itself is the zero vector.
    ``frame_derivatives[j-1]`` is e_j(a) at the base point; ``laplacian_at_base``
    is the Laplace-Beltrami value there.
    ``_shell``, set where the oracles apply, maps radii r to (c0, g, H), H (d, d)
    or 0.0, with a(exp(r u)) - a(p) = c0 + g <frame_derivatives, u> + r^2 u^T H u.
    """

    name: str
    evaluate: object
    frame_derivatives: np.ndarray
    laplacian_at_base: float
    _shell: object = field(default=None, repr=False, compare=False)


def linear_coordinate_function(m: ManifoldModel, fp: FramedPoint, j: int) -> TestFunction:
    """a(x) = j-th frame coordinate of log_p x.  Harmonic at p; gradient e_j."""
    j = _integer("coordinate index", j, 1, m.d + 1)
    derivs = np.zeros(m.d)
    derivs[j - 1] = 1.0

    def evaluate(v):
        return np.asarray(v, dtype=float)[..., j - 1]

    return TestFunction(
        name=f"linear-x{j}",
        evaluate=evaluate,
        frame_derivatives=derivs,
        laplacian_at_base=0.0,
        _shell=lambda r: (0.0, r, 0.0),
    )


def squared_radius_function(m: ManifoldModel, fp: FramedPoint) -> TestFunction:
    """a(x) = |log_p x|^2.  Gradient 0 at p; Laplacian 2d there."""

    def evaluate(v):
        v = np.asarray(v, dtype=float)
        return np.einsum("...d,...d->...", v, v)

    return TestFunction(
        name="squared-radius",
        evaluate=evaluate,
        frame_derivatives=np.zeros(m.d),
        laplacian_at_base=2.0 * m.d,
        _shell=lambda r: (r * r, 0.0, 0.0),
    )


def embedding_coordinate_function(m: ManifoldModel, fp: FramedPoint, axis: int) -> TestFunction:
    """a(x) = x[axis] in embedding coordinates.

    On the sphere: e_j(a)(p) = <e_j, u>, Laplacian -d <p, u> (u the axis
    direction); flat space is the linear case with zero Laplacian.  The only
    shipped function that embeds, through the one column ``exp_axis`` forms.
    """
    axis = _integer("axis", axis, 0, m.embedding_dim)
    derivs = fp.frame[:, axis].copy()
    base = float(fp.point[axis])
    if m.kind == "sphere":
        lap, shell = -m.d * base, lambda r: ((np.cos(r) - 1.0) * base, np.sin(r), 0.0)
    else:
        lap, shell = 0.0, lambda r: (0.0, r, 0.0)

    def evaluate(v):
        return exp_axis(m, fp, v, axis)

    return TestFunction(
        name=f"embedding-x{axis + 1}",
        evaluate=evaluate,
        frame_derivatives=derivs,
        laplacian_at_base=lap,
        _shell=shell,
    )


def _polynomial(m: ManifoldModel, fp: FramedPoint, name: str, terms) -> TestFunction:
    """Polynomial in the first two log coordinates, given as (coeff, (p1, p2)) terms."""
    derivs = np.zeros(m.d)
    hess = np.zeros((m.d, m.d))
    for coeff, (p1, p2) in terms:
        # The coordinate index of each factor of the monomial.
        factors = [0] * p1 + [1] * p2
        if len(factors) == 1:
            derivs[factors[0]] += coeff
        elif len(factors) == 2:
            hess[tuple(factors)] += coeff
    hess = 0.5 * (hess + hess.T)
    lap = 2.0 * float(np.trace(hess))
    quadratic = max(p1 + p2 for _, (p1, p2) in terms) <= 2

    def evaluate(v, _terms=tuple(terms)):
        v = np.asarray(v, dtype=float)
        out = np.zeros(v.shape[:-1])
        for coeff, (p1, p2) in _terms:
            out = out + coeff * v[..., 0] ** p1 * v[..., 1] ** p2
        return out

    return TestFunction(
        name=name,
        evaluate=evaluate,
        frame_derivatives=derivs,
        laplacian_at_base=lap,
        _shell=(lambda r: (0.0, r, hess)) if quadratic else None,
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


def _test_function_name(name: str) -> tuple:
    """The (kind, k) of a test-function name, the one statement of their
    grammar: ``auto`` and ``squared-radius`` (k None), ``linear-x<k>`` and
    ``embedding-x<k>`` with k a decimal index >= 1.  Any other name is
    unknown."""
    if name in (_AUTO, "squared-radius"):
        return name, None
    kind, _, index = name.rpartition("-x")
    if kind in ("linear", "embedding") and index.isdecimal() and int(index) >= 1:
        return kind, int(index)
    raise InvalidArgumentError(f"unknown test function {name!r}")


def resolve_test_function(m: ManifoldModel, fp: FramedPoint, mode: str, name: str) -> TestFunction:
    """Look up a shipped test function by name, or pick the mode's default."""
    kind, k = _test_function_name(name)
    if kind == _AUTO:
        if mode == "laplace":
            return squared_radius_function(m, fp)
        if m.kind == "sphere":
            return embedding_coordinate_function(m, fp, 0)
        return linear_coordinate_function(m, fp, 1)
    if kind == "squared-radius":
        return squared_radius_function(m, fp)
    if kind == "linear":
        return linear_coordinate_function(m, fp, k)
    return embedding_coordinate_function(m, fp, k - 1)


def _coords(samples, tail: tuple) -> np.ndarray:
    """Sample log coordinates as a float array of shape (n, *tail), n >= 1."""
    v = np.asarray(samples, dtype=float)
    if v.shape[1:] != tail or v.shape[0] < 1:
        raise InvalidArgumentError(f"samples must have shape (n >= 1, *{tail}), got {v.shape}")
    return v


def _centered(m: ManifoldModel, a: TestFunction, v: np.ndarray) -> np.ndarray:
    """a(x) - a(p) at log coordinates v, as a fresh array."""
    return np.asarray(a.evaluate(v), dtype=float) - float(a.evaluate(np.zeros(m.d)))


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

    ``samples`` holds the log coordinates (n, d) of the column's points.
    s_jn = (Vol(U_p) / (n hbar)) sum_k w_kj (a(x_k) - a(p)), with w the
    concentration weight against the j-th frame anchor.
    """
    j = _integer("component index", j, 1, m.d + 1)
    v = _coords(samples, (m.d,))
    w = star_weights(v, np.eye(m.d)[j - 1], fp, hbar, sigma)
    return neighbourhood_volume(m, fp) * float(np.sum(w * _centered(m, a, v))) / (len(v) * hbar)


def _estimator(mode: str, d: int, lambda_power: int = 1) -> tuple:
    """A shipped estimator as data: its slot mix (rows, d+1) and its power of hbar.

    Output r is Vol(U_p) / hbar^power times sum_i mix[r, i] (weighted mean of slot
    i): the frame derivative at power 1 takes each frame slot alone, the
    Laplacian at power 2 the averaging weights lambda^p.
    """
    lambda_power = _integer("lambda_power", lambda_power, 1, 3)
    if mode == "dirac":
        return np.eye(d, d + 1), 1
    return star_anchors(d)[1][None] ** lambda_power, 2


# Star copies the estimator works on at a time, so that its temporaries stay a
# few hundred KB, whatever the sample count.
_COPIES = 4096


def _estimate(m, samples, funcs, fp, hbar, sigma, mix, power) -> np.ndarray:
    """Estimates (len(funcs), len(mix)) of one declared estimator on star samples.

    The samples are checked, weighted, evaluated and reduced a block of
    copies at a time.  Every slot is checked; slots past the last one the mix
    uses are not weighted.  They are cut by a basic slice, which keeps the
    terms C-ordered.  Each slot's sum runs on from the previous block's
    (``cumsum`` from the carried sum), row after row: the order of numpy's
    mean over the copy axis, so the estimates are the whole-array ones bit
    for bit.  The mix is summed slot by slot, with no BLAS call.
    """
    v = _coords(samples, (m.d + 1, m.d))
    k = 1 + int(np.flatnonzero(mix.any(axis=0))[-1])
    hbar, sigma = _positive("hbar", hbar), _sign(sigma)
    anchors = star_anchors(m.d)[0][:k]
    log_c = log_c_d(m.d, 1.0 / hbar)
    centers = [float(f.evaluate(np.zeros(m.d))) for f in funcs]
    sums = np.zeros((len(funcs), k))
    for start in range(0, len(v), _COPIES):
        block = v[start : start + _COPIES]
        try:
            _check_inside(block, fp)
        except OutOfNeighbourhoodError:
            # A non-finite sample in a later block is reported first, as by
            # one check over all the samples.
            _check_inside(v, fp)
            raise
        block = block[:, :k]
        w = _weights(block, anchors, hbar, sigma, log_c)
        for i, f in enumerate(funcs):
            terms = np.asarray(f.evaluate(block), dtype=float) - centers[i]
            terms *= w
            terms[0] += sums[i]
            sums[i] = np.cumsum(terms, axis=0)[-1]
    # hbar * hbar, not hbar ** 2: libm's pow is not always correctly rounded.
    scale = neighbourhood_volume(m, fp) / math.prod([hbar] * power)
    rows = []
    for means in sums / len(v):
        rows.append(sum(mix[:, i] * means[i] for i in range(k)) * scale)
    return np.array(rows)


def dirac_estimate(
    m: ManifoldModel,
    samples,
    a: TestFunction,
    fp: FramedPoint,
    hbar: float,
    sigma: int = 1,
) -> np.ndarray:
    """Estimate the frame gradient (d,) of ``a`` at the base point from star samples.

    ``samples`` has shape (n, d+1, d): n star copies, the log coordinates of
    one sampled neighbour per anchor slot.  Component j is the weighted mean
    of column j rescaled by Vol(U_p) / hbar, i.e. s_jn on that column.
    """
    return _estimate(m, samples, [a], fp, hbar, sigma, *_estimator("dirac", m.d))[0]


def laplace_estimate(
    m: ManifoldModel,
    samples,
    a: TestFunction,
    fp: FramedPoint,
    hbar: float,
    sigma: int = 1,
    lambda_power: int = 1,
) -> float:
    """Estimate the Laplacian of ``a`` at the base point from star samples.

    ``samples`` are star log coordinates as for ``dirac_estimate``.
    Omega_n = (Vol(U_p) / hbar^2) sum_j lambda_j^p mean_k w_kj (a(x_kj) - a(p)),
    with one shared normalizer inside the weights and the averaging weights
    lambda summing to 1 (``lambda_power`` selects first or second power).
    """
    mix, power = _estimator("laplace", m.d, lambda_power)
    return float(_estimate(m, samples, [a], fp, hbar, sigma, mix, power)[0, 0])


def _oracle_quadrature(m, fp, hbar, sigma, mix, power, a):
    """Radial quadrature of kernel(v) (a(exp v) - a(p)) G(|v|) over the ball, / hbar^power.

    The kernel is the anchor kernels exp(log C_d + sigma <v, s_j> / hbar)
    combined with one row ``mix`` (d+1) of an estimator, G the volume density.
    The angular integrals are closed form, from ``a._shell`` and
    ``_shell_moments``, so the rule is radial in any d.
    """
    if a._shell is None:
        raise InvalidArgumentError(f"no quadrature oracle for {a.name!r}: not of degree <= 2")
    hbar, sigma = _positive("hbar", hbar), _sign(sigma)
    anchors = star_anchors(m.d)[0]
    weight = float(np.sum(mix))
    slope = float(a.frame_derivatives @ (mix @ anchors))

    def integrand(r, w):
        c0, g, hess = a._shell(r)
        hess = np.zeros((m.d, m.d)) + hess
        curve = float(np.einsum("j,jk,kl,jl->", mix, anchors, hess, anchors))
        mass, mean, perp, par = _shell_moments(m.d, 1.0 / hbar, r, sigma)
        mass *= _radial_density(m, r)
        quad = perp * (np.trace(hess) * weight - curve) + par * curve
        shell = c0 * weight + g * mean * slope + r * r * quad
        return np.array([np.sum(w * mass * shell)])

    total = float(_radial_integral(integrand, fp.delta_u, "expectation oracle")[0])
    return total / math.prod([hbar] * power)


def dirac_expectation_oracle(
    m: ManifoldModel,
    a: TestFunction,
    fp: FramedPoint,
    j: int,
    hbar: float,
    sigma: int = 1,
) -> float:
    """Exact expectation of s_jn at fixed hbar, by quadrature (not for cubic ``a``)."""
    mix, power = _estimator("dirac", m.d)
    row = mix[_integer("component index", j, 1, m.d + 1) - 1]
    return _oracle_quadrature(m, fp, hbar, sigma, row, power, a)


def laplace_expectation_oracle(
    m: ManifoldModel,
    a: TestFunction,
    fp: FramedPoint,
    hbar: float,
    sigma: int = 1,
    lambda_power: int = 1,
) -> float:
    """Exact expectation of the Laplace estimator at fixed hbar, by quadrature
    (not for cubic ``a``)."""
    mix, power = _estimator("laplace", m.d, lambda_power)
    return _oracle_quadrature(m, fp, hbar, sigma, mix[0], power, a)


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

    def __post_init__(self) -> None:
        if self.mode not in ("dirac", "laplace"):
            raise InvalidArgumentError(f"mode must be dirac or laplace, got {self.mode!r}")
        if self.manifold not in _KINDS:
            raise InvalidArgumentError(f"manifold must be one of {_KINDS}, got {self.manifold!r}")
        if not isinstance(self.test_function, str):
            raise InvalidArgumentError(f"test_function must be a str, got {self.test_function!r}")
        _test_function_name(self.test_function)
        if not isinstance(self.family_check, bool):
            raise InvalidArgumentError(f"family_check must be a bool, got {self.family_check!r}")
        _positive("alpha", self.alpha)
        if isinstance(self.alpha, np.generic):
            # Stored as its Python value, which JSON can write; a plain int
            # alpha stays an int, so alpha=1 is still written as 1.
            object.__setattr__(self, "alpha", self.alpha.item())
        if self.delta_u is not None:
            _positive("delta_u", self.delta_u)
        # The integers are kept as the rules return them: a numpy integer
        # would reach the report's metadata, which JSON cannot write.
        checked = {
            "dim": _integer("dim", self.dim, 2),
            "n_grid": tuple(_integer("n grid entry", n, 1) for n in self.n_grid),
            "repeats": _integer("repeats", self.repeats, 1),
            "master_seed": _integer("master seed", self.master_seed, 0, 2**64),
            "sigma": _sign(self.sigma),
            "lambda_power": _integer("lambda_power", self.lambda_power, 1, 3),
            "threads": _integer("threads", self.threads, 1),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        grid = self.n_grid
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidArgumentError(f"n grid must be strictly increasing, got {grid}")


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


def _json_text(obj) -> str:
    """Sorted, indented JSON with a final newline, with every non-finite float
    written as null: JSON (RFC 8259) has no NaN or Infinity."""

    def finite(x):
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        return None if isinstance(x, float) and not math.isfinite(x) else x

    return json.dumps(finite(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


@dataclass
class ConvergenceReport:
    """Rows of a convergence experiment plus its resolved metadata.

    ``timing`` (wall seconds, per-stage seconds and counters, see
    ``convergence_run``) is informational only and is deliberately left out
    of every serialization, so regenerated reports are byte-identical.
    """

    metadata: dict
    rows: list
    family_rows: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    @property
    def wall_time_s(self) -> float | None:
        return self.timing.get("wall_time_s")

    def to_json_text(self) -> str:
        payload = {
            "metadata": self.metadata,
            "rows": self.rows,
            "family": self.family_rows,
        }
        return _json_text(payload)


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
        "neighbourhood_volume": vol,
        "normalization": "neighbourhood volume times kernel mean",
        "seed_scheme": "SeedSequence([master_seed, n_index, repeat_index])",
        "targets": {
            "frame_derivatives": [float(x) for x in a.frame_derivatives],
            "laplacian": float(a.laplacian_at_base),
        },
    }


def _repeat_stars(cfg: RunConfig, m, fp, n_idx: int, rep: int):
    """The stars one repeat draws: shape (n, d+1, d) for n = ``cfg.n_grid[n_idx]``,
    with the sampler's rounds and proposals.

    Each repeat draws from its own generator,
    SeedSequence([master_seed, n_index, repeat_index]).
    """
    n = cfg.n_grid[n_idx]
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, n_idx, rep]))
    v, rounds, proposals = _sample_log_coords(m, fp, rng, n * (m.d + 1))
    return v.reshape(n, m.d + 1, m.d), rounds, proposals


def convergence_run(cfg: RunConfig) -> ConvergenceReport:
    """Run the configured convergence experiment and aggregate its report.

    Per grid entry n the scale is hbar_n = n^(-alpha); each repeat draws its
    own generator from SeedSequence([master_seed, n_index, repeat_index]), so
    results do not depend on scheduling or thread count.  An empty n grid
    yields an empty report.

    Each row (one per n and component) holds the mean over the repeats and
    its standard error, the oracle (the estimator's exact expectation at that
    hbar), the limit target, ``abs_err`` = |mean - target|,
    ``bias`` = oracle - target, the finite-scale bias, and ``z`` =
    (mean - oracle) / se, the Monte Carlo error in standard errors.  ``z`` is
    NaN when se is 0 (a single repeat).

    ``report.timing`` holds the run's wall seconds, the seconds spent in each
    stage (``sampling`` and ``estimation`` summed over repeats, and worker
    threads when there are several; ``oracles`` for the quadrature oracles)
    and counters: sample points drawn, sampler rounds and the proposals the
    sampler examined (samples drawn / proposals is the acceptance rate),
    repeats, oracle calls.
    """
    t_start = time.perf_counter()
    m = make_manifold(cfg.manifold, cfg.dim)
    fp = framed_point(m, delta_u=cfg.delta_u)
    a = resolve_test_function(m, fp, cfg.mode, cfg.test_function)
    vol = neighbourhood_volume(m, fp)
    mix, power = _estimator(cfg.mode, m.d, cfg.lambda_power)
    family = polynomial_family(m, fp) if cfg.family_check else []
    metadata = _resolved_metadata(cfg, m, fp, a, vol)

    def one_repeat(n_idx: int, rep: int):
        hbar = hbar_schedule(cfg.n_grid[n_idx], cfg.alpha)
        t0 = time.perf_counter()
        v, rounds, proposals = _repeat_stars(cfg, m, fp, n_idx, rep)
        t1 = time.perf_counter()
        # One weight computation serves the test function and the family.
        est = _estimate(m, v, [a, *family], fp, hbar, cfg.sigma, mix, power)
        return est, t1 - t0, time.perf_counter() - t1, rounds, proposals

    if cfg.mode == "dirac":
        targets = [float(x) for x in a.frame_derivatives]
    else:
        targets = [float(a.laplacian_at_base)]
    n_components = len(targets)
    tasks = [(n_idx, rep) for n_idx in range(len(cfg.n_grid)) for rep in range(cfg.repeats)]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outs = list(pool.map(lambda t: one_repeat(*t), tasks))
    else:
        outs = [one_repeat(*t) for t in tasks]
    # (n index, repeat, test function then family members, component)
    results = np.array([est for est, *_ in outs]).reshape(
        len(cfg.n_grid), cfg.repeats, 1 + len(family), n_components
    )
    stages = {
        "sampling": sum(t for _, t, *_ in outs),
        "estimation": sum(t for _, _, t, *_ in outs),
        "oracles": 0.0,
    }

    rows = []
    family_rows = []
    for n_idx, n in enumerate(cfg.n_grid):
        hbar = hbar_schedule(n, cfg.alpha)
        t_oracle = time.perf_counter()
        oracles = [_oracle_quadrature(m, fp, hbar, cfg.sigma, row, power, a) for row in mix]
        stages["oracles"] += time.perf_counter() - t_oracle
        for c in range(n_components):
            vals = results[n_idx, :, 0, c]
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
                    "j": c + 1 if cfg.mode == "dirac" else 0,
                    "estimate_mean": mean,
                    "estimate_se": se,
                    "oracle": oracles[c],
                    "target": targets[c],
                    "abs_err": abs(mean - targets[c]),
                    "bias": oracles[c] - targets[c],
                    "z": (mean - oracles[c]) / se if se > 0.0 else math.nan,
                }
            )
        if family:
            stack = results[n_idx, :, 1:]
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
    counters = {
        "samples_drawn": sum(cfg.n_grid) * (m.d + 1) * cfg.repeats,
        "sampler_rounds": sum(rounds for *_, rounds, _ in outs),
        "proposals_evaluated": sum(proposals for *_, proposals in outs),
        "repeats": len(tasks),
        "oracle_calls": len(cfg.n_grid) * n_components,
    }
    wall = time.perf_counter() - t_start
    timing = {"wall_time_s": wall, "stages_s": stages, "counters": counters}
    return ConvergenceReport(metadata=metadata, rows=rows, family_rows=family_rows, timing=timing)
