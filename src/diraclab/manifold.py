"""Model manifolds: flat space and the round sphere.

Two chart-free models are enough for every experiment in this package: R^d
with the identity chart, and S^d embedded in R^(d+1) with geodesic normal
coordinates at a base point.  All maps are vectorized over a trailing
embedding axis.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    OutOfInjectivityError,
    SamplingFailureError,
    _integer,
    _positive,
)
from .specfun import _gauss_legendre

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
        object.__setattr__(self, "d", _integer("dimension", self.d, 1))

    @property
    def embedding_dim(self) -> int:
        return self.d if self.kind == "flat" else self.d + 1

    @property
    def injectivity_radius(self) -> float:
        return math.inf if self.kind == "flat" else math.pi


def make_manifold(kind: str, d: int) -> ManifoldModel:
    """Construct a validated manifold model."""
    return ManifoldModel(kind, d)


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
    delta_u = _positive("neighbourhood radius", delta_u)
    if delta_u >= m.injectivity_radius:
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


_SINC_EPS = np.finfo(float).eps


def _sinc(r):
    """np.sinc(r / pi), bit for bit (its zero guard included), with one fresh
    array for the result instead of np.sinc's four temporaries."""
    y = np.asarray(r / math.pi)
    y *= math.pi
    if not y.all():
        y[y == 0] = _SINC_EPS
    return np.divide(np.sin(y), y, out=y)


def _radial_density(m: ManifoldModel, r) -> np.ndarray:
    """G(r), the volume density of exp at tangent norm r: 1 flat, sinc(r) ** (d - 1) sphere."""
    return np.ones_like(r) if m.kind == "flat" else _sinc(r) ** (m.d - 1)


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
    return np.cos(r)[..., None] * p + _sinc(r)[..., None] * v


def exp_axis(m: ManifoldModel, fp: FramedPoint, v, axis: int) -> np.ndarray:
    """Column ``axis`` of exp_map(m, fp.point, v @ fp.frame) for log coordinates
    v (..., d), formed alone: cos(r) p[axis] + sinc(r/pi) (v @ frame)[axis], r = |v|.

    The projection is summed column by column.  On the default point and frame
    (frame entries 0 and 1) this equals the exp_map column bit for bit.  On a
    rotated point or frame the two round differently (r is |v| here, the norm
    of the embedded tangent there) and agree to about 2e-15 of the largest
    coordinate (elementwise, near a zero coordinate, up to 1e-11 relative).
    """
    axis = _integer("axis", axis, 0, m.embedding_dim)
    v = np.asarray(v, dtype=float)
    col = fp.frame[:, axis]
    along = v[..., 0] * col[0]
    for k in range(1, fp.d):
        along += v[..., k] * col[k]
    if m.kind == "flat":
        return fp.point[axis] + along
    r = _norms(v)
    out = np.cos(r)
    out *= fp.point[axis]
    along *= _sinc(r)
    out += along
    return out


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
    factor = 1.0 / _sinc(theta)
    return factor[..., None] * (q - cos_t[..., None] * p)


def vol_density(m: ManifoldModel, p: np.ndarray, v) -> np.ndarray:
    """Volume density of exp_map at p in the direction v: flat 1, sphere (sin r / r)^(d-1)."""
    v = np.asarray(v, dtype=float)
    r = _norms(v)
    if np.any(r >= m.injectivity_radius):
        raise OutOfInjectivityError("tangent norm exceeds the injectivity radius")
    return _radial_density(m, r)


def log_coords(m: ManifoldModel, fp: FramedPoint, q) -> np.ndarray:
    """Frame coordinates of log_map: shape (..., d)."""
    return log_map(m, fp.point, q) @ fp.frame.T


def neighbourhood_volume(m: ManifoldModel, fp: FramedPoint) -> float:
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
    x, w = _gauss_legendre(n)
    r = 0.5 * delta * (x + 1.0)
    wr = 0.5 * delta * w
    vals = r ** (d - 1) * _radial_density(m, r)
    return float(omega * np.sum(wr * vals))


# Rows the sampler works on at a time, so that its temporaries stay a few
# hundred KB, whatever the batch size.
_BLOCK = 8192


def sample_log_coords(
    m: ManifoldModel, fp: FramedPoint, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw ``size`` points uniformly (w.r.t. volume) on the neighbourhood of fp.

    Returns frame log coordinates, shape (size, d).  Rejection sampling: the
    proposal is uniform on the radius-delta_u ball in the tangent space,
    accepted with probability G(|v|) <= 1, the volume density.  Each round draws
    all its proposals, so the stream does not depend on how many are kept.  The
    work after the draws runs in blocks of a fixed number of rows.  Flat keeps
    the first ``size`` proposals: their directions are drawn straight into the
    result and scaled there, and the rest are drawn into a block and dropped.
    The sphere draws each round's first ``size - filled`` directions into the
    free rows of the result as well.  Its acceptance uniforms come after the
    round's other directions and its radius uniforms in the stream, so it
    skips those, and reads them block by block from copies of the generator
    (``copy.deepcopy``) taken before each skip.  It decides proposals block by
    block, only up to the last acceptance kept, by a squeeze test that
    evaluates the density only where its bounds do not settle the decision
    (``_squeeze_accept``), and writes the kept points over the round's
    directions.  So either branch holds its result and a few blocks.
    """
    return _sample_log_coords(m, fp, rng, size)[0]


def _sample_log_coords(m, fp, rng, size):
    """``sample_log_coords`` with its counters: (coords, rounds, proposals).

    ``proposals`` counts the proposals examined up to the last one kept, so
    size / proposals is the acceptance rate (1 on flat space).
    """
    size = _integer("size", size, 0)
    d = m.d
    if size == 0:
        return np.empty((0, d)), 0, 0
    block = np.empty(_BLOCK * d)
    if m.kind == "flat":
        # One round of max(2 size, 64) proposals; the first size are kept.
        draw = max(2 * size, 64)
        out = np.empty((size, d))
        rng.standard_normal(out=out)
        _skip(rng.standard_normal, block, (draw - size) * d)
        for start in range(0, size, _BLOCK):
            stop = min(size, start + _BLOCK)
            radii = rng.random(out=block[: stop - start]) ** (1.0 / d)
            radii *= fp.delta_u
            _place(out, start, radii, out[start:stop])
        _skip(rng.random, block, draw - size)
        return out, 1, size
    out = np.empty((size, d))
    radius_block = np.empty(_BLOCK)
    dirs_block = np.empty((_BLOCK, d))
    filled = rounds = proposals = 0
    while filled < size:
        rounds += 1
        if rounds > 512:
            raise SamplingFailureError("rejection sampling failed to fill the batch")
        first = filled
        want = size - first
        draw = max(2 * want, 64)
        # The round's first want directions go straight into the free rows: a
        # kept row's index never exceeds its proposal's, so each direction is
        # read before its row is written.  The rest are skipped, and redrawn
        # from a copy of the generator as far as the acceptances reach; the
        # radius uniforms likewise.
        rng.standard_normal(out=out[first:])
        normal_rng = copy.deepcopy(rng)
        _skip(rng.standard_normal, block, (draw - want) * d)
        radius_rng = copy.deepcopy(rng)
        _skip(rng.random, block, draw)
        for start in range(0, draw, _BLOCK):
            stop = min(draw, start + _BLOCK)
            accept = rng.random(out=block[: stop - start])
            ub = radius_rng.random(out=radius_block[: stop - start])
            late = max(start, want)
            if stop > late:
                normal_rng.standard_normal(out=dirs_block[: stop - late])
            take = _squeeze_accept(accept, ub, m, fp.delta_u)
            hits = np.flatnonzero(take)[: size - filled]
            if filled + hits.size == size:
                proposals += int(hits[-1]) + 1
            else:
                proposals += stop - start
            radii = ub[hits] ** (1.0 / d)
            radii *= fp.delta_u
            hits += start
            split = np.searchsorted(hits, want)
            # The acceptance uniforms are spent: their block takes the kept
            # directions (mode "clip" writes into it unbuffered).
            dirs = block[: hits.size * d].reshape(hits.size, d)
            np.take(out, hits[:split] + first, axis=0, out=dirs[:split], mode="clip")
            np.take(dirs_block, hits[split:] - late, axis=0, out=dirs[split:], mode="clip")
            filled = _place(out, filled, radii, dirs)
            if filled == size:
                _skip(rng.random, block, draw - stop)
                break
    return out, rounds, proposals


# Absolute margin of the squeeze test, far above the few ulps by which the
# computed density and its computed bounds can stray from the exact values.
_SQUEEZE_MARGIN = 1e-12


def _squeeze_accept(accept: np.ndarray, u: np.ndarray, m, delta: float) -> np.ndarray:
    """``accept < sinc(r) ** (d - 1)`` on the sphere m, with r = delta * u ** (1/d),
    decision for decision, evaluating the density only where the bounds do not
    settle it.

    For r < pi, lo = 1 - r**2/6 <= sinc(r) <= lo + r**4/120 = hi (at d > 2 both
    raised to the power d - 1, lo clipped at 0).  A uniform below lo is
    accepted outright, one at or above hi rejected; only the band between gets
    the exact density, computed as the unbounded test computes it.
    """
    d = m.d
    r2 = u * (delta * delta) if d == 2 else u ** (2.0 / d) * (delta * delta)
    lo = 1.0 - r2 / 6.0
    r2 *= r2
    r2 /= 120.0
    hi = np.add(lo, r2, out=r2)
    if d != 2:
        lo = np.maximum(lo, 0.0, out=lo) ** (d - 1)
        hi **= d - 1
    take = accept < lo - _SQUEEZE_MARGIN
    band = np.flatnonzero(~take & (accept < hi + _SQUEEZE_MARGIN))
    if band.size:
        radii = u[band] ** (1.0 / d)
        radii *= delta
        take[band] = accept[band] < _radial_density(m, radii)
    return take


def _skip(draw, buf: np.ndarray, count: int) -> None:
    """Draw ``count`` values with ``draw`` into ``buf``, a block at a time, and
    drop them: the stream moves on as if they had been kept."""
    for start in range(0, count, buf.size):
        draw(out=buf[: min(buf.size, count - start)])


def _place(out: np.ndarray, at: int, radii: np.ndarray, dirs: np.ndarray) -> int:
    """Write radii * (dirs / |dirs|) into out[at:], one column at a time
    (``dirs`` may be those rows of out); returns the next free row."""
    norms = _norms(dirs)
    np.maximum(norms, 1e-300, out=norms)
    unit = np.empty_like(norms)
    end = at + radii.shape[0]
    for k in range(dirs.shape[1]):
        np.divide(dirs[:, k], norms, out=unit)
        np.multiply(radii, unit, out=out[at:end, k])
    return end


def sample_uniform_batch(
    m: ManifoldModel, fp: FramedPoint, rng: np.random.Generator, size: int
) -> np.ndarray:
    """``sample_log_coords`` mapped into the embedding: shape (size, embedding_dim)."""
    return exp_map(m, fp.point, sample_log_coords(m, fp, rng, size) @ fp.frame)


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
) -> JacobiReport:
    """Check <w, (d exp_p)_{tv}(t w)> = t + O(t^3) along a unit geodesic direction v.

    ``w`` must be a unit tangent vector at p; v is the first frame direction
    not parallel to w, made orthogonal to it (the transverse case, where the
    cubic term carries the curvature).  The differential is formed by central
    differences.
    """
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    if abs(np.linalg.norm(w) - 1.0) > 1e-9:
        raise InvalidArgumentError("direction w must be a unit vector")
    if m.kind == "sphere" and abs(np.dot(w, p)) > 1e-9:
        raise InvalidArgumentError("direction w must be tangent at p")
    frame = default_frame(m, p)
    for row in frame:
        cand = row - np.dot(row, w) * w
        nrm = np.linalg.norm(cand)
        if nrm > 1e-6:
            v = cand / nrm
            break
    else:
        raise InvalidArgumentError("could not build a direction orthogonal to w")
    eps = 1e-5
    rows = []
    for t in t_grid:
        t = _positive("t", t)
        if t >= m.injectivity_radius:
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
    grads = []
    for j in range(m.d):
        step = h * frame[j]
        gp = float(vol_density(m, p, step[None, :])[0])
        gm = float(vol_density(m, p, -step[None, :])[0])
        grads.append((gp - gm) / (2.0 * h))
    grad_norm = float(np.linalg.norm(grads))
    return JacobiReport(rows=tuple(rows), grad_density_norm=grad_norm)
