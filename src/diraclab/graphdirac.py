"""The weighted star graph of a sample batch and its graph Dirac operator.

Every sampled point is joined to the same base vertex, so a batch of star
copies (d+1 sampled neighbours each) is a single star: base vertex id 0 and
leaf ids 1..N, where copy k, slot j gets id 1 + k*(d+1) + j.  Each leaf
carries one concentration weight (``star_weights``, the only place the
weights are computed).  The operator is realized over a two-block vertex
space,

    D = (i/hbar) [[0, B], [-B^T, 0]],

with B holding the leaf weights in the base vertex's row.  D is Hermitian
and anticommutes with the block grading gamma = diag(+1, -1).  Since B has
rank one, the commutator [D, a] with a diagonal observable has rank two and
spectral radius ||w * (a_leaf - a_base)||_2 / hbar; the bound report uses
that closed form and no dense matrix is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidGraphError,
    NumericFailureError,
    OutOfNeighbourhoodError,
    _positive,
    _sign,
)
# log_coords is not used here; it stays importable from this module because
# perfbench's tracer test checks that a re-imported name is wrapped and restored.
from .manifold import FramedPoint, ManifoldModel, _norms, log_coords  # noqa: F401
from .specfun import log_c_d

__all__ = [
    "star_anchors",
    "star_weights",
    "WeightedGraphDirac",
    "assemble_dirac",
    "pf_bound_report",
]


def star_anchors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Anchor directions and averaging weights of the d+1 star slots.

    In frame log coordinates the anchors are e_1..e_d and the extra direction
    -(e_1 + ... + e_d)/sqrt(d), whatever the orthonormal frame; ``lams`` holds
    d copies of 1/(d + sqrt(d)) and a final sqrt(d)/(d + sqrt(d)), summing to
    1.  Returns (anchors (d+1, d), lams (d+1,)).
    """
    root = math.sqrt(d)
    anchors = np.vstack([np.eye(d), np.full(d, -1.0 / root)])
    lams = np.full(d + 1, 1.0 / (d + root))
    lams[d] = root / (d + root)
    return anchors, lams


def star_weights(logc, anchors, fp: FramedPoint, hbar: float, sigma: int) -> np.ndarray:
    """Concentration weights exp(log C_d(1/hbar) + sigma <v, s> / hbar).

    ``logc`` holds log coordinates v of the samples, shape (..., d); ``anchors``
    holds the matching anchor directions s and broadcasts against it.  Every
    sample must be finite and lie strictly inside the neighbourhood of fp.
    """
    logc = np.asarray(logc, dtype=float)
    hbar, sigma = _positive("hbar", hbar), _sign(sigma)
    _check_inside(logc, fp)
    return _weights(logc, anchors, hbar, sigma, log_c_d(fp.d, 1.0 / hbar))


def _check_inside(logc: np.ndarray, fp: FramedPoint) -> None:
    """Check that every sample in ``logc`` is finite and strictly inside the
    neighbourhood of fp."""
    if not np.all(_norms(logc) < fp.delta_u):
        if not np.all(np.isfinite(logc)):
            raise InvalidArgumentError("sample log coordinates must be finite")
        raise OutOfNeighbourhoodError("samples must lie inside the neighbourhood of the base point")


def _weights(logc: np.ndarray, anchors, hbar: float, sigma: int, log_c: float) -> np.ndarray:
    """``star_weights`` on arguments already checked, computed in one array;
    ``log_c`` is log C_d(1/hbar)."""
    out = np.einsum("...d,...d->...", logc, anchors)
    out *= sigma
    out /= hbar
    out += log_c
    # A single sample gives a numpy scalar, which has no buffer to write into.
    return np.exp(out, out=out) if out.ndim else np.exp(out)


@dataclass(frozen=True, eq=False)
class WeightedGraphDirac:
    """Graph Dirac operator of one weighted star.

    ``weights[g - 1]`` is the weight of the edge from the base vertex (id 0)
    to leaf g.  Vertex ids double as row and column indices within each of
    the two grading blocks.
    """

    hbar: float
    weights: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.weights.size + 1

    def export_matrix_market(self, path) -> None:
        """Write the operator in MatrixMarket coordinate format, row-major order.

        Each value is formatted once; the lower block's text is its negation,
        which equals repr(-v) for every float (signed zeros, infinities and
        NaN included).  Each block is joined once, line endings included.
        """
        n = self.n_vertices
        with np.errstate(over="ignore"):  # a value past the float range is written as inf
            scaled = np.asarray(self.weights, dtype=float) / self.hbar
        vals = [repr(v) for v in scaled.tolist()]
        neg = (t[1:] if t[0] == "-" else t if t == "nan" else "-" + t for t in vals)
        upper = "".join([f"1 {n + g} 0.0 {t}\n" for g, t in enumerate(vals, start=2)])
        lower = "".join([f"{n + g} 1 0.0 {t}\n" for g, t in enumerate(neg, start=2)])
        header = "%%MatrixMarket matrix coordinate complex general\n"
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines((header, f"{2 * n} {2 * n} {2 * len(vals)}\n", upper, lower))


def assemble_dirac(
    samples,
    m: ManifoldModel,
    fp: FramedPoint,
    hbar: float,
    sigma: int = 1,
) -> WeightedGraphDirac:
    """Weight a (n_copies, d+1, d) array of sample log coordinates as one star.

    Slot j of every copy is weighted against anchor j (``star_anchors``).
    """
    v = np.asarray(samples, dtype=float)
    if v.ndim != 3 or v.shape[0] < 1 or v.shape[1:] != (fp.d + 1, m.d):
        raise InvalidGraphError(
            f"samples must be log coordinates of shape (n, {fp.d + 1}, {m.d}), got {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise InvalidGraphError("sample log coordinates must be finite")
    hbar = _positive("hbar", hbar)
    w = star_weights(v, star_anchors(fp.d)[0], fp, hbar, sigma)
    return WeightedGraphDirac(hbar=hbar, weights=w.ravel())


def pf_bound_report(dirac: WeightedGraphDirac, a_values, grad_sup: float) -> dict:
    """Commutator norm of the star operator against a vertex observable.

    ``a_values`` holds one observable value per vertex (base first, then the
    leaves by id); the observable acts diagonally on both grading blocks.
    Returns the spectral radius of [D, a], in closed form, and its ratio to
    the gradient sup bound.
    """
    vals = np.asarray(a_values, dtype=float)
    if vals.shape != (dirac.n_vertices,):
        raise InvalidArgumentError(
            f"need one observable value per vertex ({dirac.n_vertices}), got {vals.shape}"
        )
    if not np.all(np.isfinite(vals)):
        raise InvalidArgumentError("observable values must be finite")
    grad_sup = _positive("gradient bound", grad_sup)
    rho = float(np.linalg.norm(dirac.weights * (vals[1:] - vals[0]))) / dirac.hbar
    if not math.isfinite(rho):
        raise NumericFailureError("commutator spectral radius is not finite", best=rho)
    return {
        "hbar": dirac.hbar,
        "rho": rho,
        "grad_sup": grad_sup,
        "bound_ratio": rho / grad_sup,
    }
