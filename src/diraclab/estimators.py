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
oracles compute those integrals directly.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import json
import time

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidArgumentError
from .graphdirac import LambdaWeights, anchor_rows, laplace_lambda, star_weights
from .manifold import (
    FramedPoint,
    ManifoldModel,
    exp_axis,
    framed_point,
    make_manifold,
    neighbourhood_volume,
    sample_log_coords,
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

    ``evaluate`` maps frame log coordinates (..., d) at the base point to
    values (...); the base point itself is the zero vector.
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
    base = float(a.evaluate(np.zeros(m.d)))
    deriv_res = []
    lap_fd = 0.0
    for j in range(m.d):
        step = h * np.eye(m.d)[j]
        up = float(a.evaluate(step))
        down = float(a.evaluate(-step))
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

    def evaluate(v):
        return np.asarray(v, dtype=float)[..., j - 1]

    return TestFunction(
        name=f"linear-x{j}",
        evaluate=evaluate,
        frame_derivatives=derivs,
        laplacian_at_base=0.0,
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
    )


def embedding_coordinate_function(m: ManifoldModel, fp: FramedPoint, axis: int) -> TestFunction:
    """a(x) = x[axis] in embedding coordinates.

    On the sphere: e_j(a)(p) = <e_j, u>, Laplacian -d <p, u> (u the axis
    direction); flat space is the linear case with zero Laplacian.  The only
    shipped function that embeds, through the one column ``exp_axis`` forms.
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

    def evaluate(v):
        return exp_axis(m, fp, v, axis)

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


def _coords(samples, tail: tuple) -> np.ndarray:
    """Sample log coordinates as a float array of shape (n, *tail), n >= 1."""
    v = np.asarray(samples, dtype=float)
    if v.shape[1:] != tail or v.shape[0] < 1:
        raise InvalidArgumentError(f"samples must have shape (n >= 1, *{tail}), got {v.shape}")
    return v


def _centered(m: ManifoldModel, a: TestFunction, v: np.ndarray) -> np.ndarray:
    """a(x) - a(p) at log coordinates v."""
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
    if not (1 <= j <= m.d):
        raise InvalidArgumentError(f"component index must lie in 1..{m.d}, got {j}")
    v = _coords(samples, (m.d,))
    w = star_weights(v, np.eye(m.d)[j - 1], fp, hbar, sigma)
    return neighbourhood_volume(m, fp) * float(np.sum(w * _centered(m, a, v))) / (len(v) * hbar)


def _star(m, samples, fp, hbar, sigma, lam):
    """Star samples (n, d+1, d), their weights (n, d+1) against the anchors, and lam."""
    v = _coords(samples, (m.d + 1, m.d))
    if lam is None:
        lam = laplace_lambda(fp.frame)
    return v, star_weights(v, anchor_rows(fp, lam), fp, hbar, sigma), lam


def dirac_estimate(
    m: ManifoldModel,
    samples,
    a,
    fp: FramedPoint,
    hbar: float,
    sigma: int = 1,
    lam: LambdaWeights | None = None,
) -> np.ndarray:
    """Estimate the frame gradient of ``a`` at the base point from star samples.

    ``samples`` has shape (n, d+1, d): n star copies, the log coordinates of
    one sampled neighbour per anchor slot.  Component j is the weighted mean
    of column j rescaled by Vol(U_p) / hbar, i.e. s_jn on that column.
    ``a`` is one test function, giving the (d,) components, or a sequence of
    them, giving one row per function; the weights are computed once.
    """
    v, w, _ = _star(m, samples, fp, hbar, sigma, lam)
    funcs = [a] if isinstance(a, TestFunction) else list(a)
    scale = neighbourhood_volume(m, fp) / hbar
    comps = np.array([(w * _centered(m, f, v)).mean(axis=0)[: m.d] * scale for f in funcs])
    return comps[0] if isinstance(a, TestFunction) else comps


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

    ``samples`` are star log coordinates as for ``dirac_estimate``.
    Omega_n = (Vol(U_p) / (n hbar^2)) sum_k sum_j lambda_j^p w_kj (a(x_kj) - a(p)),
    with one shared normalizer inside the weights and the averaging weights
    lambda summing to 1 (``lambda_power`` selects first or second power).
    """
    if lambda_power not in (1, 2):
        raise InvalidArgumentError(f"lambda_power must be 1 or 2, got {lambda_power!r}")
    v, w, lam = _star(m, samples, fp, hbar, sigma, lam)
    lamvec = lam.lams**lambda_power
    total = float(np.sum((w * _centered(m, a, v)) @ lamvec))
    return neighbourhood_volume(m, fp) * total / (len(v) * hbar * hbar)


def _oracle_quadrature(m, fp, hbar, sigma, rule, mix, a):
    """Adaptive polar quadrature of kernel(v) (a(exp v) - a(p)) G(|v|) over the ball.

    The kernel is the anchor kernels exp(log C_d + sigma <v, s_j> / hbar)
    combined with the weights ``mix`` (d+1); the caller applies its own
    prefactor.  Only d = 2 is supported; higher dimensions would need a
    product rule over the sphere of directions.
    """
    if m.d != 2:
        raise InvalidArgumentError("quadrature oracles are implemented for d = 2 only")
    if rule is None:
        rule = QuadratureRule()
    anchors = anchor_rows(fp, laplace_lambda(fp.frame))
    beta = 1.0 / hbar
    lcd = log_c_d(m.d, beta)

    def evaluate(level: int):
        r, wr = rule.radial_nodes(level, 0.0, fp.delta_u)
        n_ang = rule.n_angular * (1 << level)
        x, wx = leggauss(n_ang)
        phi = math.pi * (x + 1.0)
        wphi = math.pi * wx
        cs = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        v = r[:, None, None] * cs[None, :, :]
        da = _centered(m, a, v)
        dens = vol_density(m, fp.point, v)
        proj = np.einsum("rpd,sd->rps", v, anchors)
        kern = np.exp(lcd + sigma * beta * proj) @ mix
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
    mix = np.eye(m.d + 1)[j - 1]
    return _oracle_quadrature(m, fp, hbar, sigma, rule, mix, a) / hbar


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
    mix = laplace_lambda(fp.frame).lams**lambda_power
    return _oracle_quadrature(m, fp, hbar, sigma, rule, mix, a) / (hbar * hbar)


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

    ``report.timing`` holds the run's wall seconds, the seconds spent in each
    stage (``sampling`` and ``estimation`` summed over repeats, and worker
    threads when there are several; ``oracles`` for the quadrature oracles)
    and counters: sample points drawn, repeats, oracle calls.
    """
    t_start = time.perf_counter()
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
        t0 = time.perf_counter()
        v = sample_log_coords(m, fp, rng, n * slots).reshape(n, slots, m.d)
        t1 = time.perf_counter()
        if cfg.mode == "dirac":
            # One weight computation serves the test function and the family.
            est = dirac_estimate(m, v, [a, *family], fp, hbar, sigma=cfg.sigma, lam=lam)
        else:
            value = laplace_estimate(
                m, v, a, fp, hbar, sigma=cfg.sigma, lam=lam, lambda_power=cfg.lambda_power
            )
            est = np.array([[value]])
        return est, t1 - t0, time.perf_counter() - t1

    n_components = m.d if cfg.mode == "dirac" else 1
    tasks = [(n_idx, rep) for n_idx in range(len(cfg.n_grid)) for rep in range(cfg.repeats)]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outs = list(pool.map(lambda t: one_repeat(*t), tasks))
    else:
        outs = [one_repeat(*t) for t in tasks]
    # (n index, repeat, test function then family members, component)
    results = np.array([est for est, _, _ in outs]).reshape(
        len(cfg.n_grid), cfg.repeats, 1 + len(family), n_components
    )
    stages = {
        "sampling": sum(t for _, t, _ in outs),
        "estimation": sum(t for _, _, t in outs),
        "oracles": 0.0,
    }

    rows = []
    family_rows = []
    oracle_calls = 0
    for n_idx, n in enumerate(cfg.n_grid):
        hbar = hbar_schedule(n, cfg.alpha)
        hf = hoeffding_bound(n, cfg.hoeffding_eps, cfg.alpha, m.d)
        t_oracle = time.perf_counter()
        if m.d != 2:
            oracles = [math.nan] * n_components
        elif cfg.mode == "dirac":
            oracles = [
                dirac_expectation_oracle(m, a, fp, j, hbar, sigma=cfg.sigma)
                for j in range(1, m.d + 1)
            ]
            oracle_calls += len(oracles)
        else:
            oracles = [
                laplace_expectation_oracle(
                    m, a, fp, hbar, sigma=cfg.sigma, lambda_power=cfg.lambda_power
                )
            ]
            oracle_calls += 1
        stages["oracles"] += time.perf_counter() - t_oracle
        if cfg.mode == "dirac":
            targets = [float(x) for x in a.frame_derivatives]
        else:
            targets = [float(a.laplacian_at_base)]
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
                    "hoeffding": hf,
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
        "samples_drawn": sum(cfg.n_grid) * slots * cfg.repeats,
        "repeats": len(tasks),
        "oracle_calls": oracle_calls,
    }
    wall = time.perf_counter() - t_start
    timing = {"wall_time_s": wall, "stages_s": stages, "counters": counters}
    return ConvergenceReport(metadata=metadata, rows=rows, family_rows=family_rows, timing=timing)
