"""Block matrices on a word grid with two-by-two coefficients.

The objects here live on a grid of 2N word indices. A formal element is a sum
of terms, each a word of at most two index pairs with a 2x2 complex
coefficient; realizing a term places the coefficient (or a continuation of it)
into the corresponding 2x2 blocks of a 4N x 4N matrix. On top of that sit
antisymmetric weighted operators, the Dirac operators obtained from their
entrywise real parts, closed-form commutators with diagonal observables, and
the reduction of degree-two words into a Clifford algebra.

The word calculus (sums, products, the reduction) runs on numpy elementwise
float64 arithmetic and makes no BLAS call: a product of two 2x2 coefficients
forms entry [p, q] as x_0 y_0 + x_1 y_1 with x_k = M1[p, k], y_k = M2[k, q],
each complex product written out as (xr*yr - xi*yi) + i(xr*yi + xi*yr). Its
bits are therefore the same on every BLAS build.

The double commutator C * D - D * C matches no keys: C and D hold the same
edge words, so word (s, t) of both products sits at the same place of one
grid. C * D is written into the result and D * C subtracted from it a block
of rows at a time, so its peak is about one result. When an all-zero product
(which ``mul`` drops) or a hand-built operator's word list would break that
alignment, the generic difference of the two products runs instead; both
routes give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .clifford import Multivector
from .errors import (
    InvalidArgumentError,
    InvalidGraphError,
    UnsupportedDegreeError,
    _integer,
    _positive,
)

__all__ = [
    "MAT_X",
    "MAT_Y",
    "MAT_J",
    "HADAMARD",
    "root_block",
    "TensorElement",
    "DiagonalObservable",
    "WeightedOperator",
    "build_w",
    "DiracOperator",
    "dirac_from_w",
    "commutator_closed_form",
    "commutator_concrete",
    "double_commutator_closed_form",
    "laplacian_closed_form",
    "psi_reduce",
    "psi_map_to_clifford",
    "realize_commutator_edges",
]

# Fixed 2x2 coefficient basis. X is the diagonal reflection, Y the negated
# antidiagonal exchange, J the quarter-turn rotation; XY = J, X^2 = Y^2 = I.
MAT_X = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
MAT_Y = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
MAT_J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)

# Involution exchanging the X and Y axes of the coefficient basis (up to sign):
# H X H = -Y, H Y H = -X. Used to realize closed-form commutator coefficients.
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

_ROOT_BLOCKS = {
    1: ((1.0, 1.0j), (1.0j, -1.0)),
    2: ((1.0, -1.0j), (-1.0j, -1.0)),
    3: ((1.0, -1.0j), (1.0j, 1.0)),
    4: ((1.0, -1.0j), (1.0j, -1.0)),
}

Word = tuple[tuple[int, int], ...]

# Terms (or coefficient products) the word calculus works on at a time, so
# that its temporaries stay below a few hundred KB, whatever the element size.
_BLOCK = 512


def root_block(s: int) -> np.ndarray:
    """The 2x2 coefficient of the s-th root family, s in 1..4."""
    return np.array(_ROOT_BLOCKS[_integer("root family index", s, 1, 5)], dtype=complex)


def _validate_word(word, grid: int) -> Word:
    if not isinstance(word, tuple):
        raise InvalidArgumentError(f"word must be a tuple of index pairs, got {word!r}")
    if len(word) > 2:
        raise UnsupportedDegreeError(
            f"words support at most two index pairs, got {len(word)}"
        )
    for pair in word:
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise InvalidArgumentError(f"malformed index pair {pair!r}")
    return tuple(tuple(_integer("word index", k, 1, grid + 1) for k in pair) for pair in word)


# Each word is stored as one integer key. On a grid of g word indices the pair
# (i, j) has code p = (i - 1) * g + (j - 1) in 0..g^2-1; the empty word is key
# 0, a one-pair word 1 + p, and a two-pair word 1 + g^2 + p1 * g^2 + p2.


def _word_key(word: Word, grid: int) -> int:
    codes = [(i - 1) * grid + (j - 1) for (i, j) in word]
    if not codes:
        return 0
    if len(codes) == 1:
        return 1 + codes[0]
    area = grid * grid
    return 1 + area + codes[0] * area + codes[1]


def _key_word(key: int, grid: int) -> Word:
    area = grid * grid
    if key == 0:
        return ()
    codes = (key - 1,) if key <= area else divmod(key - 1 - area, area)
    return tuple((p // grid + 1, p % grid + 1) for p in codes)


def _degree(keys: np.ndarray, area: int) -> np.ndarray:
    """Number of index pairs in each keyed word."""
    return (keys > 0).astype(np.int64) + (keys > area)


def _as_mat2(mat) -> np.ndarray:
    arr = np.array(mat, dtype=complex)
    if arr.shape != (2, 2):
        raise InvalidArgumentError(f"coefficient must be 2x2, got shape {arr.shape}")
    return arr


class TensorElement:
    """Sparse sum of words (at most two index pairs) with 2x2 coefficients.

    The terms are stored as one integer key per word and one (T, 2, 2) complex
    coefficient array, in the order each word first appeared; ``terms`` is a
    read-only word -> coefficient view of them. Every element holds each word
    at most once: the constructor reads a mapping, ``scale`` keeps its
    operand's words, and sums, differences, products and the reduction all
    collect equal words in one routine, ``_collected``. It adds the
    coefficients of equal words one at a time in first-occurrence order (a
    difference adds ``other``'s negated), so every result is bit-identical to
    accumulating the terms in a dict. A product's coefficient has entries
    x_0 y_0 + x_1 y_1, each complex product x y formed as
    (xr*yr - xi*yi) + i(xr*yi + xi*yr) in float64 arithmetic; no operation on
    an element makes a BLAS call.
    """

    __slots__ = ("n_pairs", "_keys", "_coeffs", "_terms")

    def __init__(self, n_pairs: int, terms: Mapping[Word, np.ndarray] | None = None):
        n_pairs = _integer("n_pairs", n_pairs, 1)
        grid = 2 * n_pairs
        keys, mats = [], []
        for word, mat in (terms or {}).items():
            keys.append(_word_key(_validate_word(word, grid), grid))
            mats.append(_as_mat2(mat))
        self._assign(
            n_pairs,
            np.array(keys, dtype=np.int64),
            np.array(mats, dtype=complex).reshape(-1, 2, 2),
        )

    def _assign(self, n_pairs: int, keys: np.ndarray, coeffs: np.ndarray):
        keys.flags.writeable = False
        coeffs.flags.writeable = False
        self.n_pairs = n_pairs
        self._keys = keys
        self._coeffs = coeffs
        self._terms = None

    @classmethod
    def _from_arrays(cls, n_pairs: int, keys: np.ndarray, coeffs: np.ndarray):
        out = cls.__new__(cls)
        out._assign(n_pairs, keys, coeffs)
        return out

    @property
    def grid(self) -> int:
        return 2 * self.n_pairs

    @property
    def terms(self) -> Mapping[Word, np.ndarray]:
        """Read-only mapping from each word to its 2x2 coefficient."""
        if self._terms is None:
            grid = self.grid
            self._terms = MappingProxyType(
                {_key_word(k, grid): m for k, m in zip(self._keys.tolist(), self._coeffs)}
            )
        return self._terms

    def _check_same(self, other: "TensorElement"):
        if not isinstance(other, TensorElement):
            raise InvalidArgumentError(f"expected TensorElement, got {type(other)!r}")
        if self.n_pairs != other.n_pairs:
            raise InvalidArgumentError(
                f"grid sizes differ: {self.grid} vs {other.grid}"
            )

    def __add__(self, other: "TensorElement") -> "TensorElement":
        return self._joined(other, negate=False)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self._joined(other, negate=True)

    def _joined(self, other: "TensorElement", negate: bool) -> "TensorElement":
        """self + other, or self - other with ``other``'s terms negated: both
        term lists collected as one, ``self``'s first."""
        self._check_same(other)
        mask = np.repeat([False, True], [self._keys.size, other._keys.size]) if negate else None
        return _collected(
            self.n_pairs,
            np.concatenate([self._keys, other._keys]),
            np.concatenate([self._coeffs, other._coeffs]),
            negate=mask,
        )

    def scale(self, value: complex) -> "TensorElement":
        return TensorElement._from_arrays(
            self.n_pairs, self._keys, (value * self._coeffs).astype(complex, copy=False)
        )

    def mul(self, other: "TensorElement") -> "TensorElement":
        """Free product: words concatenate, coefficients multiply as matrices
        (see ``_mat2_products`` for the product rule).

        Raises UnsupportedDegreeError when a product word would exceed two
        index pairs.
        """
        self._check_same(other)
        if not (self._keys.size and other._keys.size):
            return TensorElement(self.n_pairs)
        area = self.grid**2
        if _degree(self._keys, area).max() + _degree(other._keys, area).max() > 2:
            raise UnsupportedDegreeError(
                "product would create a word with more than two pairs"
            )
        # The key of a product word is left * area + right (see _word_key),
        # and left itself when the right word is empty.
        keys = self._keys[:, None] * np.where(other._keys == 0, 1, area) + other._keys
        return _collected(
            self.n_pairs, keys.ravel(), _mat2_products(self._coeffs, other._coeffs)
        )

    def max_abs_diff(self, other: "TensorElement") -> float:
        diff = self - other
        return float(np.max(np.abs(diff._coeffs))) if diff._keys.size else 0.0

    def __repr__(self) -> str:
        return f"TensorElement(n_pairs={self.n_pairs}, words={sorted(self.terms)})"


def _parts(coeffs: np.ndarray) -> np.ndarray:
    """A (T, 2, 2) complex stack as (T, 2, 2, re|im) float64."""
    return np.ascontiguousarray(coeffs).view(float).reshape(-1, 2, 2, 2)


def _mat2_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every product a[s] @ b[t] of two (T, 2, 2) complex stacks, in (s, t)
    row-major order, shape (len(a) * len(b), 2, 2).

    Entry [p, q] is formed in float64 real arithmetic from x_k = a[s][p, k]
    and y_k = b[t][k, q]: re = (x0r*y0r - x0i*y0i) + (x1r*y1r - x1i*y1i) and
    im = (x0r*y0i + x0i*y0r) + (x1r*y1i + x1i*y1r), each product and sum
    rounded once (no fused multiply-add). No BLAS call is made, so the bits
    do not depend on the BLAS build. Each part is written straight into the
    output, a block of about ``_BLOCK`` products at a time.
    """
    count = b.shape[0]
    out = np.empty((a.shape[0], count, 2, 2, 2))  # (s, t, p, q, re|im)
    # Real and imaginary parts of x_k = a[s][p, k] as (re|im, 1, p, k, 1, s, 1)
    # and of y_k = b[t][k, q] as (1, re|im, 1, k, q, 1, t): their product
    # holds every part product, and each runs along t.
    x = np.ascontiguousarray(_parts(a).transpose(3, 1, 2, 0))[:, None, :, :, None, :, None]
    y = np.ascontiguousarray(_parts(b).transpose(3, 1, 2, 0))[None, :, None, :, :, None, :]
    rows = min(a.shape[0], max(1, _BLOCK // count))
    scratch = np.empty(32 * rows * count)
    for start in range(0, a.shape[0], rows):
        stop = min(a.shape[0], start + rows)
        prod = scratch[: 32 * (stop - start) * count].reshape(2, 2, 2, 2, 2, -1, count)
        np.multiply(x[..., start:stop, :], y, out=prod)
        (rr, ri), (ir, ii) = prod
        np.subtract(rr, ii, out=rr)  # re_k = xr*yr - xi*yi
        np.add(ri, ir, out=ri)  # im_k = xr*yi + xi*yr
        for part, acc in enumerate((rr, ri)):
            np.add(acc[:, 0], acc[:, 1], out=out[start:stop, ..., part].transpose(2, 3, 0, 1))
    return out.view(complex).reshape(-1, 2, 2)


def _collected(
    n_pairs: int,
    keys: np.ndarray,
    coeffs: np.ndarray,
    distinct: bool = False,
    negate: np.ndarray | None = None,
) -> TensorElement:
    """Element summing the coefficients of equal word keys.

    Words keep the order of their first occurrence, each sum starts from the
    first coefficient and adds the later ones sequentially in input order,
    and words whose sum is all zero are dropped. ``distinct`` says the keys
    are known to differ, so only the dropping is left to do. ``negate``, a
    mask over the input words (only where ``distinct`` is false), says which
    coefficients enter their sums negated; each is negated as it is gathered,
    so ``coeffs`` is never copied whole.
    """
    if not distinct:
        _uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        slot = np.empty_like(order)
        slot[order] = np.arange(order.size)
        later = np.ones(keys.size, dtype=bool)
        later[first] = False
        later = np.flatnonzero(later)
        sums = _gathered(coeffs, first[order], negate)
        # np.add.at keeps the input order of the sums: np.add.reduceat regroups
        # them (the half-reduction misses 0.0); a masked pass per rank is slower.
        for start in range(0, later.size, _BLOCK):
            rows = later[start : start + _BLOCK]
            np.add.at(sums, slot[inverse[rows]], _gathered(coeffs, rows, negate))
        keys, coeffs = keys[first[order]], sums
    keep = coeffs.any(axis=(1, 2))
    if not keep.all():
        keys, coeffs = keys[keep], coeffs[keep]
    return TensorElement._from_arrays(n_pairs, keys, coeffs)


def _gathered(coeffs: np.ndarray, rows: np.ndarray, negate: np.ndarray | None) -> np.ndarray:
    """The coefficients of ``rows``, as a fresh array, those ``negate`` marks negated."""
    out = coeffs[rows]
    if negate is not None:
        np.negative(out, out=out, where=negate[rows][:, None, None])
    return out


class DiagonalObservable:
    """Real diagonal observable on the word grid, one value per word index.

    Realizes as kron(diag(values), I_2): each word index carries its value on
    both rows of its 2x2 block.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[float]):
        arr = np.asarray(list(values), dtype=float)
        if arr.ndim != 1 or arr.size < 2 or arr.size % 2:
            raise InvalidArgumentError(
                f"need an even number (>= 2) of values, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidArgumentError("observable values must be finite")
        self.values = arr

    @property
    def grid(self) -> int:
        return self.values.size

    def alpha(self, i: int, j: int) -> float:
        """Difference values[i] - values[j] (1-based indices)."""
        i = _integer("index i", i, 1, self.grid + 1)
        j = _integer("index j", j, 1, self.grid + 1)
        return float(self.values[i - 1] - self.values[j - 1])

    def realize(self) -> np.ndarray:
        return np.kron(np.diag(self.values), np.eye(2)).astype(complex)


def _validated_weights(
    weights: Mapping[tuple[int, int], float], grid: int
) -> dict[tuple[int, int], float]:
    out = {}
    for key in sorted(weights):
        if not (isinstance(key, tuple) and len(key) == 2):
            raise InvalidArgumentError(f"weight key must be an index pair, got {key!r}")
        i = _integer("weight index i", key[0], 1, grid)
        j = _integer("weight index j", key[1], i + 1, grid + 1)
        w = float(weights[key])
        if not math.isfinite(w):
            raise InvalidArgumentError(f"weight at ({i}, {j}) is not finite")
        out[(i, j)] = w
    return out


def _weight_arrays(weights: Mapping[tuple[int, int], float]):
    """Edge index pairs (E, 2) and weights (E,) of a validated weight dict."""
    pairs = np.array(list(weights), dtype=np.int64).reshape(-1, 2)
    return pairs, np.array(list(weights.values()), dtype=float)


def _edge_element(n_pairs: int, pairs: np.ndarray, coeffs: np.ndarray) -> TensorElement:
    """Element with one word per index pair (1-based rows of ``pairs``)."""
    keys = 1 + (pairs[:, 0] - 1) * (2 * n_pairs) + (pairs[:, 1] - 1)
    return TensorElement._from_arrays(n_pairs, keys, np.ascontiguousarray(coeffs, dtype=complex))


def _blocks_matrix(grid: int, rows, cols, upper, lower) -> np.ndarray:
    """Dense 2g x 2g matrix with upper[k] in the 2x2 block (rows[k], cols[k])
    and lower[k] added into (cols[k], rows[k]).

    The (rows[k], cols[k]) pairs are distinct, so each block starts from zero
    and meets at most one upper and one lower term, and a two-term sum from
    zero does not depend on the order of its terms. So for finite blocks the
    result is bit-identical to the sum of Kronecker products
    kron(E_ij, upper) + kron(E_ji, lower) without forming any g x g
    elementary matrix.
    """
    out = np.zeros((grid, 2, grid, 2), dtype=complex)
    # + 0.0 turns -0.0 into the 0.0 that a sum starting from zeros gives.
    out[rows, :, cols, :] = np.add(upper, 0.0)
    out[cols, :, rows, :] += lower
    return out.reshape(2 * grid, 2 * grid)


@dataclass(frozen=True)
class WeightedOperator:
    """Weighted sum of root-vector matrices in dense form.

    Edge (i, j) with weight w puts w * C_s in the 2x2 block at word position
    (i, j) and its antisymmetric continuation -w * C_s^T at (j, i).
    """

    n_pairs: int
    s: int
    weights: dict[tuple[int, int], float]
    concrete: np.ndarray


def build_w(
    weights: Mapping[tuple[int, int], float], s: int, n_pairs: int
) -> WeightedOperator:
    """Assemble the weighted operator: w_ij * C_s on each edge, continued
    antisymmetrically."""
    n_pairs = _integer("n_pairs", n_pairs, 1)
    wts = _validated_weights(weights, 2 * n_pairs)
    block = root_block(s)
    pairs, w = _weight_arrays(wts)
    w = w[:, None, None]
    concrete = _blocks_matrix(
        2 * n_pairs, pairs[:, 0] - 1, pairs[:, 1] - 1, w * block, w * -block.T
    )
    return WeightedOperator(n_pairs, s, wts, concrete)


def realize_commutator_edges(element: TensorElement) -> np.ndarray:
    """Dense matrix for a closed-form commutator element.

    Closed-form coefficients live in the Hadamard-rotated basis: the stored M
    on word (i, j) contributes kron(E_ij, H M H) plus the symmetric
    continuation kron(E_ji, (H M H)^T). With this rule the realization agrees
    exactly with the brute-force matrix commutator for every weight set and
    observable.
    """
    keys = element._keys
    grid = element.grid
    bad = (keys == 0) | (keys > grid * grid)
    if bad.any():
        word = _key_word(int(keys[bad][0]), grid)
        raise InvalidArgumentError(f"commutator edge form expects length-one words, got {word}")
    rows, cols = np.divmod(keys - 1, grid)
    rotated = HADAMARD @ element._coeffs @ HADAMARD
    return _blocks_matrix(grid, rows, cols, rotated, rotated.transpose(0, 2, 1))


@dataclass(frozen=True)
class DiracOperator:
    """Hermitian operator (i/hbar) * Re(W) for a weighted operator W."""

    n_pairs: int
    s: int
    hbar: float
    weights: dict[tuple[int, int], float]
    symbolic: TensorElement
    concrete: np.ndarray


def dirac_from_w(w_op: WeightedOperator, hbar: float) -> DiracOperator:
    """Dirac operator from a weighted operator: entrywise real part, i/hbar.

    The symbolic edge form keeps one term (i/hbar) * w * Re(C_s) per edge; the
    dense matrix is (i/hbar) times the entrywise real part of the dense W and
    is Hermitian.
    """
    hbar = _positive("hbar", hbar)
    real_block = root_block(w_op.s).real.astype(complex)
    pairs, w = _weight_arrays(w_op.weights)
    symbolic = _edge_element(
        w_op.n_pairs, pairs, ((1j / hbar) * w)[:, None, None] * real_block
    )
    concrete = (1j / hbar) * w_op.concrete.real
    return DiracOperator(
        w_op.n_pairs, w_op.s, hbar, dict(w_op.weights), symbolic, concrete
    )


def commutator_concrete(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator a @ b - b @ a with shape validation."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"first operand is not square: shape {a.shape}")
    if a.shape != b.shape:
        raise InvalidArgumentError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def _closed_form_edges(dirac: DiracOperator, obs: DiagonalObservable):
    """Edge index pairs, weights w and differences alpha = a_i - a_j on which
    both closed forms are defined: operators of the second root family (whose
    real part is X) and an observable on the same grid. The weights pass the
    check ``build_w`` runs, so the edges are distinct pairs i < j on the grid,
    in increasing order."""
    if dirac.s != 2:
        raise InvalidArgumentError(
            f"closed form requires the second root family, got s={dirac.s}"
        )
    if obs.grid != dirac.n_pairs * 2:
        raise InvalidArgumentError(
            f"observable has {obs.grid} values, grid needs {dirac.n_pairs * 2}"
        )
    pairs, w = _weight_arrays(_validated_weights(dirac.weights, obs.grid))
    alpha = obs.values[pairs[:, 0] - 1] - obs.values[pairs[:, 1] - 1]
    return pairs, w, alpha


def commutator_closed_form(
    dirac: DiracOperator, obs: DiagonalObservable
) -> TensorElement:
    """Closed-form commutator of a Dirac operator with a diagonal observable.

    One term per weighted edge: on word (i, j) the coefficient is
    (i/hbar) * w_ij * (a_i - a_j) * Y. Defined for operators built from the
    second root family; realizing the result via realize_commutator_edges
    reproduces the dense commutator exactly.
    """
    pairs, w, alpha = _closed_form_edges(dirac, obs)
    coeff = (1j / dirac.hbar) * (w * alpha)
    return _edge_element(dirac.n_pairs, pairs, coeff[:, None, None] * MAT_Y)


def double_commutator_closed_form(
    dirac: DiracOperator, obs: DiagonalObservable
) -> TensorElement:
    """Degree-two element C * D - D * C with C the closed-form commutator.

    The product is taken in the free word calculus, so the result carries
    squared words E_ij E_ij and mixed anticommutator pairs. Its half
    reduction under psi_reduce is the Laplacian closed form.

    C and the symbolic D share their edge words, so C * D is written into
    the result and D * C subtracted from it a block of rows at a time. C's
    words are distinct one-pair words by construction, so D's key list
    equalling C's is all that alignment needs. The generic
    ``C.mul(D) - D.mul(C)`` runs instead when the key lists differ (a
    hand-built ``DiracOperator``), or when a product is all zero (alpha = 0
    on an edge, an underflow), which ``mul`` drops. Both routes give the same
    bits, word order included.
    """
    comm = commutator_closed_form(dirac, obs)
    sym = dirac.symbolic
    comm._check_same(sym)
    if comm._keys.size and np.array_equal(comm._keys, sym._keys):
        aligned = _aligned_commutator(comm, sym)
        if aligned is not None:
            return aligned
    return comm.mul(sym) - sym.mul(comm)


def _aligned_commutator(a: TensorElement, b: TensorElement) -> TensorElement | None:
    """a * b - b * a for two elements on one list of distinct one-pair words,
    each entry one x - y, which IEEE rounds as the x + (-y) that ``__sub__``
    forms; None when some product in either order is all zero. b * a is
    formed ``_BLOCK`` products at a time.
    """
    count = a._keys.size
    out = _mat2_products(a._coeffs, b._coeffs)
    if not out.any(axis=(1, 2)).all():
        return None
    rows = max(1, _BLOCK // count)
    for start in range(0, count, rows):
        block = _mat2_products(b._coeffs[start : start + rows], a._coeffs)
        if not block.any(axis=(1, 2)).all():
            return None
        part = out[start * count : start * count + block.shape[0]]
        np.subtract(part, block, out=part)
    keys = a._keys[:, None] * a.grid**2 + a._keys
    return _collected(a.n_pairs, keys.ravel(), out, distinct=True)


def laplacian_closed_form(
    dirac: DiracOperator, obs: DiagonalObservable
) -> TensorElement:
    """Scalar-word Laplacian coefficient -(1/hbar^2) sum_edges w^2 alpha * J.

    Matches (1/2) psi_reduce(double_commutator_closed_form(...)) bit for bit:
    the per-edge scalars are multiplied, and summed one edge at a time, in
    the same order as on the word-calculus route.
    """
    _pairs, w, alpha = _closed_form_edges(dirac, obs)
    unit = 1j / dirac.hbar
    total = 0.0 + 0.0j
    for z in ((unit * (w * alpha)) * (unit * w)).tolist():
        total += z
    return _collected(
        dirac.n_pairs, np.zeros(1, dtype=np.int64), (total * MAT_J)[None], distinct=True
    )


def psi_reduce(element: TensorElement) -> TensorElement:
    """Canonical reduction of degree-two words.

    A squared word (u, u) collapses to the empty word with a sign flip; a
    descending pair (u, v) with u > v is rewritten as the ascending pair with
    a sign flip, so symmetric pair combinations cancel. Words of length zero
    or one pass through; longer words cannot be stored (TensorElement rejects
    them with UnsupportedDegreeError).
    """
    keys = element._keys
    area = element.grid**2
    u, v = np.divmod(keys - 1 - area, area)
    pair = keys > area
    flip = pair & (u >= v)
    reduced = np.where(pair & (u == v), 0, np.where(flip, 1 + area + v * area + u, keys))
    return _collected(element.n_pairs, reduced, element._coeffs, negate=flip)


def psi_map_to_clifford(
    element: TensorElement, d: int, hbar: float
) -> tuple[Multivector, complex]:
    """Read a base-row element off into Clifford generator coordinates.

    The element must consist of exactly d+1 length-one words sharing a common
    first index, each with coefficient c_j * (i/hbar) * Y for a real scalar
    c_j. Words are ordered by second index; the last one is dropped. Returns
    (sum_j c_j e_j, i/hbar).
    """
    d = _integer("d", d, 1)
    hbar = _positive("hbar", hbar)
    words = sorted(element.terms)
    if len(words) != d + 1:
        raise InvalidGraphError(
            f"expected exactly {d + 1} words in the base row, got {len(words)}"
        )
    base = None
    for word in words:
        if len(word) != 1:
            raise InvalidGraphError(f"expected length-one words, got {word}")
        i, j = word[0]
        if base is None:
            base = i
        elif i != base:
            raise InvalidGraphError(
                f"words do not share a base index: {base} vs {i}"
            )
        if j == base:
            raise InvalidGraphError(f"word ({i}, {j}) loops back to the base index")
    reference = (1j / hbar) * MAT_Y
    coeffs = {}
    for k, word in enumerate(words[:d]):
        mat = element.terms[word]
        c = mat[0, 1] / reference[0, 1]
        scale = max(1.0, abs(c))
        if np.max(np.abs(mat - c * reference)) > 1e-10 * scale / hbar:
            raise InvalidArgumentError(
                f"coefficient on word {word} is not a multiple of (i/hbar) Y"
            )
        if abs(c.imag) > 1e-10 * scale:
            raise InvalidArgumentError(
                f"coefficient on word {word} is not real: {c}"
            )
        coeffs[1 << k] = c.real
    return Multivector(d, coeffs), 1j / hbar
