"""Model manifolds: flat space and the round sphere.

Two chart-free models are enough for every experiment in this package: R^d
with the identity chart, and S^d embedded in R^(d+1) with geodesic normal
coordinates at a base point.  All maps are vectorized over a trailing
embedding axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    InvalidArgumentError,
    OutOfInjectivityError,
    SamplingFailureError,
)

__all__ = [
    "ManifoldModel",
    "FramedPoint",
    "make_manifold",
    "default_base_point",
    "default_frame",
    "framed_point",
    "exp_map",
    "exp_axis",
    "log_map",
    "vol_density",
    "log_coords",
    "neighbourhood_volume",
    "sample_log_coords",
    "sample_uniform",
    "sample_uniform_batch",
    "jacobi_expansion_check",
    "JacobiReport",
]

_KINDS = ("flat", "sphere")


@dataclass(frozen=True)
class ManifoldModel:
    """A model manifold: ``kind`` is "flat" or "sphere", ``d`` its dimension."""

    kind: str
    d: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidArgumentError(f"manifold kind must be one of {_KINDS}, got {self.kind!r}")
        if not isinstance(self.d, (int, np.integer)) or isinstance(self.d, bool) or self.d < 1:
            raise InvalidArgumentError(f"dimension must be an integer >= 1, got {self.d!r}")

    @property
    def embedding_dim(self) -> int:
        return self.d if self.kind == "flat" else self.d + 1

    @property
    def injectivity_radius(self) -> float:
        return math.inf if self.kind == "flat" else math.pi


def make_manifold(kind: str, d: int) -> ManifoldModel:
    """Construct a validated manifold model."""
    return ManifoldModel(kind, int(d))


def default_base_point(m: ManifoldModel) -> np.ndarray:
    """Origin for flat space; the last-coordinate pole for the sphere."""
    p = np.zeros(m.embedding_dim)
    if m.kind == "sphere":
        p[-1] = 1.0
    return p


def default_frame(m: ManifoldModel, p: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal tangent frame at p, shape (d, embedding_dim).

    Flat space always gets the standard basis.  On the sphere the standard
    basis is projected onto the tangent space at p and Gram-Schmidt
    orthonormalized, skipping directions that project to (near) zero; at the
    default pole this reproduces the first d coordinate directions.
    """
    if m.kind == "flat":
        return np.eye(m.d)
    p = np.asarray(p, dtype=float)
    rows = []
    for k in range(m.embedding_dim):
        v = np.zeros(m.embedding_dim)
        v[k] = 1.0
        v = v - np.dot(v, p) * p
        for r in rows:
            v = v - np.dot(v, r) * r
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            rows.append(v / nrm)
        if len(rows) == m.d:
            break
    if len(rows) < m.d:
        raise InvalidArgumentError("could not build a tangent frame at the given point")
    return np.array(rows)


@dataclass(frozen=True)
class FramedPoint:
    """A base point with an orthonormal tangent frame and a neighbourhood radius.

    ``frame`` has shape (d, embedding_dim); row j is the j-th frame vector.
    ``delta_u`` is the radius (in the tangent space) of the sampling
    neighbourhood and must stay below the injectivity radius.
    """

    point: np.ndarray
    frame: np.ndarray
    delta_u: float

    @property
    def d(self) -> int:
        return self.frame.shape[0]


def framed_point(
    m: ManifoldModel,
    point=None,
    frame=None,
    delta_u: float | None = None,
) -> FramedPoint:
    """Build and validate a FramedPoint, filling in canonical defaults.

    Default radius: min(0.9 * injectivity radius, 1.0).
    """
    p = default_base_point(m) if point is None else np.asarray(point, dtype=float)
    if p.shape != (m.embedding_dim,):
        raise InvalidArgumentError(
            f"point must have shape ({m.embedding_dim},), got {p.shape}"
        )
    if not np.all(np.isfinite(p)):
        raise InvalidArgumentError("point must be finite")
    if m.kind == "sphere" and abs(np.linalg.norm(p) - 1.0) > 1e-9:
        raise InvalidArgumentError("sphere point must have unit norm")
    f = default_frame(m, p) if frame is None else np.asarray(frame, dtype=float)
    if f.shape != (m.d, m.embedding_dim):
        raise InvalidArgumentError(
            f"frame must have shape ({m.d}, {m.embedding_dim}), got {f.shape}"
        )
    gram = f @ f.T
    if not np.allclose(gram, np.eye(m.d), atol=1e-12):
        raise InvalidArgumentError("frame rows must be orthonormal (tol 1e-12)")
    if m.kind == "sphere" and np.max(np.abs(f @ p)) > 1e-12:
        raise InvalidArgumentError("frame rows must be tangent at the point (tol 1e-12)")
    if delta_u is None:
        delta_u = min(0.9 * m.injectivity_radius, 1.0)
    delta_u = float(delta_u)
    if not (0.0 < delta_u < m.injectivity_radius):
        raise InvalidArgumentError(
            f"neighbourhood radius must lie in (0, {m.injectivity_radius}), got {delta_u}"
        )
    return FramedPoint(point=p, frame=f, delta_u=delta_u)


def _norms(v: np.ndarray) -> np.ndarray:
    """Norms over the last axis, summed column by column: np.sum's order on
    rows shorter than eight, at a fraction of its cost on short rows."""
    sq = v[..., 0] * v[..., 0]
    for k in range(1, v.shape[-1]):
        sq = sq + v[..., k] * v[..., k]
    return np.sqrt(sq)


def exp_map(m: ManifoldModel, p: np.ndarray, v) -> np.ndarray:
    """Geodesic exponential at p applied to tangent vectors v (..., embedding_dim).

    Tangent norms must stay strictly below the injectivity radius.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != m.embedding_dim:
        raise InvalidArgumentError(
            f"tangent vectors must have last axis {m.embedding_dim}, got {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError("tangent vectors must be finite")
    r = _norms(v)
    if np.any(r >= m.injectivity_radius):
        raise OutOfInjectivityError(
            f"tangent norm {float(np.max(r))} exceeds the injectivity radius"
        )
    if m.kind == "flat":
        return p + v
    # sin(r)/r via sinc keeps the r -> 0 limit exact.
    return np.cos(r)[..., None] * p + np.sinc(r / math.pi)[..., None] * v


def exp_axis(m: ManifoldModel, fp: FramedPoint, v, axis: int) -> np.ndarray:
    """Column ``axis`` of exp_map(m, fp.point, v @ fp.frame) for log coordinates
    v (..., d), formed alone: cos(r) p[axis] + sinc(r/pi) (v @ frame)[axis], r = |v|."""
    v = np.asarray(v, dtype=float)
    along = v @ fp.frame[:, axis]
    if m.kind == "flat":
        return fp.point[axis] + along
    r = _norms(v)
    return np.cos(r) * fp.point[axis] + np.sinc(r / math.pi) * along


def log_map(m: ManifoldModel, p: np.ndarray, q) -> np.ndarray:
    """Inverse of exp_map at p, for points q strictly inside the injectivity ball."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != m.embedding_dim:
        raise InvalidArgumentError(
            f"points must have last axis {m.embedding_dim}, got {q.shape}"
        )
    if not np.all(np.isfinite(q)):
        raise InvalidArgumentError("points must be finite")
    if m.kind == "flat":
        return q - p
    norms = _norms(q)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise InvalidArgumentError("sphere points must have unit norm (tol 1e-9)")
    cos_t = np.clip(np.sum(q * p, axis=-1), -1.0, 1.0)
    if np.any(cos_t <= -1.0 + 1e-12):
        raise OutOfInjectivityError("point is antipodal to the base point")
    theta = np.arccos(cos_t)
    # theta/sin(theta), exact 1 in the theta -> 0 limit.
    factor = 1.0 / np.sinc(theta / math.pi)
    return factor[..., None] * (q - cos_t[..., None] * p)


def vol_density(m: ManifoldModel, p: np.ndarray, v) -> np.ndarray:
    """Volume density of exp_map at p in the direction v: flat 1, sphere (sin r / r)^(d-1)."""
    v = np.asarray(v, dtype=float)
    r = _norms(v)
    if np.any(r >= m.injectivity_radius):
        raise OutOfInjectivityError("tangent norm exceeds the injectivity radius")
    if m.kind == "flat":
        return np.ones_like(r)
    return np.sinc(r / math.pi) ** (m.d - 1)


def log_coords(m: ManifoldModel, fp: FramedPoint, q) -> np.ndarray:
    """Frame coordinates of log_map: shape (..., d)."""
    return log_map(m, fp.point, q) @ fp.frame.T


def neighbourhood_volume(m: ManifoldModel, fp: FramedPoint, rule=None) -> float:
    """Riemannian volume of the geodesic ball of radius delta_u around the point.

    Computed from the density: Vol = Omega_{d-1} int_0^delta r^(d-1) G(r) dr,
    with closed forms for flat space and for the 2-sphere cap.
    """
    d = m.d
    delta = fp.delta_u
    log_omega = math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)
    omega = math.exp(log_omega)
    if m.kind == "flat":
        return omega * delta**d / d
    if d == 2:
        return 2.0 * math.pi * (1.0 - math.cos(delta))
    n = 256
    x, w = leggauss(n)
    r = 0.5 * delta * (x + 1.0)
    wr = 0.5 * delta * w
    vals = r ** (d - 1) * np.sinc(r / math.pi) ** (d - 1)
    return float(omega * np.sum(wr * vals))


def sample_log_coords(
    m: ManifoldModel, fp: FramedPoint, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw ``size`` points uniformly (w.r.t. volume) on the neighbourhood of fp.

    Returns frame log coordinates, shape (size, d).  Rejection sampling: the
    proposal is uniform on the radius-delta_u ball in the tangent space,
    accepted with probability G(|v|) <= 1, the volume density.  Each round draws
    all its proposals, so the stream does not depend on how many are kept.
    """
    if size < 0:
        raise InvalidArgumentError(f"size must be >= 0, got {size}")
    size = int(size)
    d = m.d
    out = np.empty((size, d))
    filled = 0
    rounds = 0
    while filled < size:
        rounds += 1
        if rounds > 512:
            raise SamplingFailureError("rejection sampling failed to fill the batch")
        want = size - filled
        draw = max(2 * want, 64)
        dirs = rng.standard_normal((draw, d))
        u = rng.random(draw)
        if m.kind == "flat":
            dirs = dirs[:want]
            radii = fp.delta_u * u[:want] ** (1.0 / d)
        else:
            radii = fp.delta_u * u ** (1.0 / d)
            keep = np.flatnonzero(rng.random(draw) < np.sinc(radii / math.pi) ** (d - 1))[:want]
            dirs = dirs[keep]
            radii = radii[keep]
        dirs /= np.maximum(_norms(dirs), 1e-300)[:, None]
        got = radii.shape[0]
        out[filled : filled + got] = radii[:, None] * dirs
        filled += got
    return out


def sample_uniform_batch(
    m: ManifoldModel, fp: FramedPoint, rng: np.random.Generator, size: int
) -> np.ndarray:
    """``sample_log_coords`` mapped into the embedding: shape (size, embedding_dim)."""
    return exp_map(m, fp.point, sample_log_coords(m, fp, rng, size) @ fp.frame)


def sample_uniform(m: ManifoldModel, fp: FramedPoint, rng: np.random.Generator) -> np.ndarray:
    """Draw one point uniformly on the neighbourhood of fp."""
    return sample_uniform_batch(m, fp, rng, 1)[0]


@dataclass(frozen=True)
class JacobiReport:
    """Differential-of-exp check: rows of (t, pairing, residual) plus a gradient norm.

    ``rows`` entries are dicts with keys t, pairing, residual, residual_over_t2;
    pairing is <w, J(t)> for the Jacobi-type field J(t) = (d exp_p)_{t v}(t w),
    and residual = pairing - t.  ``grad_density_norm`` is the central-difference
    gradient norm of the volume density at v = 0.
    """

    rows: tuple
    grad_density_norm: float


def jacobi_expansion_check(
    m: ManifoldModel,
    p: np.ndarray,
    w: np.ndarray,
    t_grid,
    v: np.ndarray | None = None,
    eps: float = 1e-5,
) -> JacobiReport:
    """Check <w, (d exp_p)_{tv}(t w)> = t + O(t^3) along a unit geodesic direction v.

    ``w`` must be a unit tangent vector at p; ``v`` defaults to a unit tangent
    vector orthogonal to w (the transverse case, where the cubic term carries
    the curvature).  The differential is formed by central differences.
    """
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    if abs(np.linalg.norm(w) - 1.0) > 1e-9:
        raise InvalidArgumentError("direction w must be a unit vector")
    if m.kind == "sphere" and abs(np.dot(w, p)) > 1e-9:
        raise InvalidArgumentError("direction w must be tangent at p")
    if v is None:
        frame = default_frame(m, p)
        v = None
        for row in frame:
            cand = row - np.dot(row, w) * w
            nrm = np.linalg.norm(cand)
            if nrm > 1e-6:
                v = cand / nrm
                break
        if v is None:
            raise InvalidArgumentError("could not build a direction orthogonal to w")
    else:
        v = np.asarray(v, dtype=float)
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise InvalidArgumentError("direction v must be a unit vector")
    rows = []
    for t in t_grid:
        t = float(t)
        if not (0.0 < t < m.injectivity_radius):
            raise InvalidArgumentError(f"t must lie in (0, injectivity radius), got {t}")
        plus = exp_map(m, p, t * (v + eps * w))
        minus = exp_map(m, p, t * (v - eps * w))
        jac = (plus - minus) / (2.0 * eps)
        pairing = float(np.dot(w, jac))
        residual = pairing - t
        rows.append(
            {
                "t": t,
                "pairing": pairing,
                "residual": residual,
                "residual_over_t2": residual / (t * t),
            }
        )
    h = 1e-3
    frame = default_frame(m, p)
    grads = []
    for j in range(m.d):
        step = h * frame[j]
        gp = float(vol_density(m, p, step[None, :])[0])
        gm = float(vol_density(m, p, -step[None, :])[0])
        grads.append((gp - gm) / (2.0 * h))
    grad_norm = float(np.linalg.norm(grads))
    return JacobiReport(rows=tuple(rows), grad_density_norm=grad_norm)
