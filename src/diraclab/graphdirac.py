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
)
# log_coords is not used here; it stays importable from this module because
# perfbench's tracer test checks that a re-imported name is wrapped and restored.
from .manifold import FramedPoint, ManifoldModel, log_coords  # noqa: F401
from .specfun import log_c_d

__all__ = [
    "LambdaWeights",
    "laplace_lambda",
    "anchor_rows",
    "star_weights",
    "WeightedGraphDirac",
    "assemble_dirac",
    "pf_bound_report",
]


@dataclass(frozen=True, eq=False)
class LambdaWeights:
    """Averaging weights and the extra anchor direction for the Laplace estimator.

    ``lams`` has d+1 entries summing to 1: d copies of 1/(d + sqrt(d)) and a
    final sqrt(d)/(d + sqrt(d)).  ``s_extra`` is the unit tangent vector
    -(e_1 + ... + e_d)/sqrt(d) in embedding coordinates.
    """

    lams: np.ndarray
    s_extra: np.ndarray


def laplace_lambda(frame: np.ndarray) -> LambdaWeights:
    """Build LambdaWeights from an orthonormal frame of shape (d, embedding_dim)."""
    f = np.asarray(frame, dtype=float)
    if f.ndim != 2 or f.shape[0] < 1:
        raise InvalidArgumentError(f"frame must be 2-d with at least one row, got {f.shape}")
    d = f.shape[0]
    if not np.allclose(f @ f.T, np.eye(d), atol=1e-12):
        raise InvalidArgumentError("frame rows must be orthonormal (tol 1e-12)")
    u = f.sum(axis=0)
    norm_u = float(np.linalg.norm(u))
    if norm_u < 1e-12:
        raise InvalidArgumentError("frame rows sum to zero; no extra anchor direction")
    lams = np.full(d + 1, 1.0 / (d + norm_u))
    lams[d] = norm_u / (d + norm_u)
    return LambdaWeights(lams=lams, s_extra=-u / norm_u)


def anchor_rows(fp: FramedPoint, lam: LambdaWeights) -> np.ndarray:
    """Log-coordinate anchor directions, one row per star slot: e_1..e_d, s_extra."""
    return np.vstack([np.eye(fp.d), fp.frame @ lam.s_extra])


def star_weights(logc, anchors, fp: FramedPoint, hbar: float, sigma: int) -> np.ndarray:
    """Concentration weights exp(log C_d(1/hbar) + sigma <v, s> / hbar).

    ``logc`` holds log coordinates v of the samples, shape (..., d); ``anchors``
    holds the matching anchor directions s and broadcasts against it.  Every
    sample must be finite and lie strictly inside the neighbourhood of fp.
    """
    if not (math.isfinite(hbar) and hbar > 0.0):
        raise InvalidArgumentError(f"hbar must be finite and > 0, got {hbar!r}")
    if sigma not in (1, -1):
        raise InvalidArgumentError(f"sign must be +1 or -1, got {sigma!r}")
    if not np.all(np.sqrt(np.einsum("...d,...d->...", logc, logc)) < fp.delta_u):
        if not np.all(np.isfinite(logc)):
            raise InvalidArgumentError("sample log coordinates must be finite")
        raise OutOfNeighbourhoodError("samples must lie inside the neighbourhood of the base point")
    proj = np.einsum("...d,...d->...", logc, anchors)
    return np.exp(log_c_d(fp.d, 1.0 / hbar) + sigma * proj / hbar)


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
        """Write the operator in MatrixMarket coordinate format, row-major order."""
        n = self.n_vertices
        vals = [float(w) / self.hbar for w in self.weights]
        lines = ["%%MatrixMarket matrix coordinate complex general"]
        lines.append(f"{2 * n} {2 * n} {2 * len(vals)}")
        lines.extend(f"1 {n + g} 0.0 {v!r}" for g, v in enumerate(vals, start=2))
        lines.extend(f"{n + g} 1 0.0 {-v!r}" for g, v in enumerate(vals, start=2))
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")


def assemble_dirac(
    samples,
    m: ManifoldModel,
    fp: FramedPoint,
    hbar: float,
    sigma: int = 1,
    lam: LambdaWeights | None = None,
) -> WeightedGraphDirac:
    """Weight a (n_copies, d+1, d) array of sample log coordinates as one star.

    Slot j of every copy is weighted against anchor j (``anchor_rows``).
    """
    v = np.asarray(samples, dtype=float)
    if v.ndim != 3 or v.shape[0] < 1 or v.shape[1:] != (fp.d + 1, m.d):
        raise InvalidGraphError(
            f"samples must be log coordinates of shape (n, {fp.d + 1}, {m.d}), got {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise InvalidGraphError("sample log coordinates must be finite")
    if lam is None:
        lam = laplace_lambda(fp.frame)
    w = star_weights(v, anchor_rows(fp, lam), fp, hbar, sigma)
    return WeightedGraphDirac(hbar=float(hbar), weights=w.ravel())


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
    if not (math.isfinite(grad_sup) and grad_sup > 0.0):
        raise InvalidArgumentError(f"gradient bound must be finite and > 0, got {grad_sup!r}")
    rho = float(np.linalg.norm(dirac.weights * (vals[1:] - vals[0]))) / dirac.hbar
    if not math.isfinite(rho):
        raise NumericFailureError("commutator spectral radius is not finite", best=rho)
    return {
        "hbar": dirac.hbar,
        "rho": rho,
        "grad_sup": float(grad_sup),
        "bound_ratio": rho / float(grad_sup),
    }
