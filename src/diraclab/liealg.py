"""Block matrices on a word grid with two-by-two coefficients.

The objects here live on a grid of 2N word indices. A formal element is a sum
of terms, each a word of at most two index pairs with a 2x2 complex
coefficient; realizing a term places the coefficient (or a continuation of it)
into the corresponding 2x2 blocks of a 4N x 4N matrix. On top of that sit
antisymmetric weighted operators, the Dirac operators obtained from their
entrywise real parts, closed-form commutators with diagonal observables, and
the reduction of degree-two words into a Clifford algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .clifford import Multivector
from .errors import (
    InvalidArgumentError,
    InvalidGraphError,
    UnsupportedDegreeError,
)

__all__ = [
    "MAT_X",
    "MAT_Y",
    "MAT_J",
    "HADAMARD",
    "root_block",
    "build_root_vector",
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
    "realize_operator_edges",
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


def root_block(s: int) -> np.ndarray:
    """The 2x2 coefficient of the s-th root family, s in 1..4."""
    if s not in _ROOT_BLOCKS:
        raise InvalidArgumentError(f"root family index must be 1..4, got {s}")
    return np.array(_ROOT_BLOCKS[s], dtype=complex)


def _elementary(n: int, i: int, j: int) -> np.ndarray:
    out = np.zeros((n, n))
    out[i - 1, j - 1] = 1.0
    return out


def build_root_vector(i: int, j: int, s: int, n_pairs: int) -> np.ndarray:
    """Dense 4N x 4N matrix with the s-th root block at word position (i, j).

    The block C_s sits in the 2x2 block at grid position (i, j) and its
    negated transpose at (j, i), so the matrix pairs the two word indices
    antisymmetrically. Requires 1 <= i < j <= 2N.
    """
    grid = 2 * n_pairs
    if n_pairs < 1:
        raise InvalidArgumentError(f"need n_pairs >= 1, got {n_pairs}")
    if not (1 <= i < j <= grid):
        raise InvalidArgumentError(
            f"word indices must satisfy 1 <= i < j <= {grid}, got ({i}, {j})"
        )
    block = root_block(s)
    return np.kron(_elementary(grid, i, j), block) + np.kron(
        _elementary(grid, j, i), -block.T
    )


def _validate_word(word, grid: int) -> Word:
    if not isinstance(word, tuple):
        raise InvalidArgumentError(f"word must be a tuple of index pairs, got {word!r}")
    if len(word) > 2:
        raise UnsupportedDegreeError(
            f"words support at most two index pairs, got {len(word)}"
        )
    for pair in word:
        if (
            not isinstance(pair, tuple)
            or len(pair) != 2
            or not all(isinstance(k, int) for k in pair)
        ):
            raise InvalidArgumentError(f"malformed index pair {pair!r}")
        if not all(1 <= k <= grid for k in pair):
            raise InvalidArgumentError(
                f"index pair {pair} out of range 1..{grid}"
            )
    return word


def _as_mat2(mat) -> np.ndarray:
    arr = np.array(mat, dtype=complex)
    if arr.shape != (2, 2):
        raise InvalidArgumentError(f"coefficient must be 2x2, got shape {arr.shape}")
    return arr


class TensorElement:
    """Sparse sum of words (at most two index pairs) with 2x2 coefficients."""

    __slots__ = ("n_pairs", "terms")

    def __init__(self, n_pairs: int, terms: Mapping[Word, np.ndarray] | None = None):
        if n_pairs < 1:
            raise InvalidArgumentError(f"need n_pairs >= 1, got {n_pairs}")
        self.n_pairs = n_pairs
        grid = 2 * n_pairs
        self.terms: dict[Word, np.ndarray] = {}
        if terms:
            for word, mat in terms.items():
                self.terms[_validate_word(word, grid)] = _as_mat2(mat)

    @property
    def grid(self) -> int:
        return 2 * self.n_pairs

    def _check_same(self, other: "TensorElement"):
        if not isinstance(other, TensorElement):
            raise InvalidArgumentError(f"expected TensorElement, got {type(other)!r}")
        if self.n_pairs != other.n_pairs:
            raise InvalidArgumentError(
                f"grid sizes differ: {self.grid} vs {other.grid}"
            )

    def _add_term(self, word: Word, mat: np.ndarray):
        if word in self.terms:
            self.terms[word] = self.terms[word] + mat
        else:
            self.terms[word] = mat.copy()

    def _pruned(self) -> "TensorElement":
        self.terms = {w: m for w, m in self.terms.items() if m.any()}
        return self

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check_same(other)
        out = TensorElement(self.n_pairs, self.terms)
        for word, mat in other.terms.items():
            out._add_term(word, mat)
        return out._pruned()

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        self._check_same(other)
        out = TensorElement(self.n_pairs, self.terms)
        for word, mat in other.terms.items():
            out._add_term(word, -mat)
        return out._pruned()

    def scale(self, value: complex) -> "TensorElement":
        return TensorElement(
            self.n_pairs, {w: value * m for w, m in self.terms.items()}
        )

    def mul(self, other: "TensorElement") -> "TensorElement":
        """Free product: words concatenate, coefficients multiply as matrices.

        Raises UnsupportedDegreeError when a product word would exceed two
        index pairs.
        """
        self._check_same(other)
        out = TensorElement(self.n_pairs)
        for w1, m1 in self.terms.items():
            for w2, m2 in other.terms.items():
                if len(w1) + len(w2) > 2:
                    raise UnsupportedDegreeError(
                        "product would create a word with more than two pairs"
                    )
                out._add_term(w1 + w2, m1 @ m2)
        return out._pruned()

    @classmethod
    def mean(cls, elements: Sequence["TensorElement"]) -> "TensorElement":
        """Term-wise average of elements on the same grid."""
        if not elements:
            raise InvalidArgumentError("cannot average an empty sequence")
        out = TensorElement(elements[0].n_pairs)
        for el in elements:
            elements[0]._check_same(el)
            for word, mat in el.terms.items():
                out._add_term(word, mat)
        inv = 1.0 / len(elements)
        out.terms = {w: inv * m for w, m in out.terms.items()}
        return out._pruned()

    def max_abs_diff(self, other: "TensorElement") -> float:
        self._check_same(other)
        zero = np.zeros((2, 2), dtype=complex)
        words = set(self.terms) | set(other.terms)
        if not words:
            return 0.0
        return max(
            float(np.max(np.abs(self.terms.get(w, zero) - other.terms.get(w, zero))))
            for w in words
        )

    def realize(self) -> np.ndarray:
        """Dense 4N x 4N matrix: each word maps to a product of elementary
        grid matrices (identity for the empty word), tensored with its
        coefficient."""
        grid = self.grid
        out = np.zeros((2 * grid, 2 * grid), dtype=complex)
        for word, mat in self.terms.items():
            pos = np.eye(grid)
            for (i, j) in word:
                pos = pos @ _elementary(grid, i, j)
            out += np.kron(pos, mat)
        return out

    def to_json_obj(self) -> dict:
        terms = []
        for word in sorted(self.terms):
            mat = self.terms[word]
            terms.append(
                {
                    "word": [[i, j] for (i, j) in word],
                    "mat2": [[float(z.real), float(z.imag)] for z in mat.ravel()],
                }
            )
        return {"n_pairs": self.n_pairs, "terms": terms}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "TensorElement":
        try:
            n_pairs = int(obj["n_pairs"])
            terms = {}
            for t in obj["terms"]:
                word = tuple((int(i), int(j)) for i, j in t["word"])
                flat = [complex(re, im) for re, im in t["mat2"]]
                terms[word] = np.array(flat, dtype=complex).reshape(2, 2)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"malformed element object: {exc}") from exc
        return cls(n_pairs, terms)

    def __repr__(self) -> str:
        return f"TensorElement(n_pairs={self.n_pairs}, words={sorted(self.terms)})"


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
        if not (1 <= i <= self.grid and 1 <= j <= self.grid):
            raise InvalidArgumentError(f"indices ({i}, {j}) out of range 1..{self.grid}")
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
        i, j = key
        if not (1 <= i < j <= grid):
            raise InvalidArgumentError(
                f"weight indices must satisfy 1 <= i < j <= {grid}, got ({i}, {j})"
            )
        w = float(weights[key])
        if not np.isfinite(w):
            raise InvalidArgumentError(f"weight at ({i}, {j}) is not finite")
        out[(int(i), int(j))] = w
    return out


@dataclass(frozen=True)
class WeightedOperator:
    """Weighted sum of root-vector matrices, kept in symbolic and dense form.

    The symbolic element records one term per edge (the upper word only, with
    coefficient w * C_s); the dense matrix carries the antisymmetric
    continuation on the mirrored block.
    """

    n_pairs: int
    s: int
    weights: dict[tuple[int, int], float]
    symbolic: TensorElement
    concrete: np.ndarray


def build_w(
    weights: Mapping[tuple[int, int], float], s: int, n_pairs: int
) -> WeightedOperator:
    """Assemble the weighted operator sum_edges w_ij * root_vector(i, j, s)."""
    if n_pairs < 1:
        raise InvalidArgumentError(f"need n_pairs >= 1, got {n_pairs}")
    wts = _validated_weights(weights, 2 * n_pairs)
    block = root_block(s)
    symbolic = TensorElement(
        n_pairs, {((i, j),): w * block for (i, j), w in wts.items()}
    )
    concrete = np.zeros((4 * n_pairs, 4 * n_pairs), dtype=complex)
    for (i, j), w in wts.items():
        concrete += w * build_root_vector(i, j, s, n_pairs)
    return WeightedOperator(n_pairs, s, wts, symbolic, concrete)


def realize_operator_edges(element: TensorElement) -> np.ndarray:
    """Dense matrix for an edge-form operator element.

    Each stored term M on word (i, j) contributes kron(E_ij, M) plus the
    antisymmetric continuation kron(E_ji, -M^T). Only length-one words are
    meaningful here.
    """
    grid = element.grid
    out = np.zeros((2 * grid, 2 * grid), dtype=complex)
    for word, mat in element.terms.items():
        if len(word) != 1:
            raise InvalidArgumentError(
                f"operator edge form expects length-one words, got {word}"
            )
        (i, j) = word[0]
        out += np.kron(_elementary(grid, i, j), mat)
        out += np.kron(_elementary(grid, j, i), -mat.T)
    return out


def realize_commutator_edges(element: TensorElement) -> np.ndarray:
    """Dense matrix for a closed-form commutator element.

    Closed-form coefficients live in the Hadamard-rotated basis: the stored M
    on word (i, j) contributes kron(E_ij, H M H) plus the symmetric
    continuation kron(E_ji, (H M H)^T). With this rule the realization agrees
    exactly with the brute-force matrix commutator for every weight set and
    observable.
    """
    grid = element.grid
    out = np.zeros((2 * grid, 2 * grid), dtype=complex)
    for word, mat in element.terms.items():
        if len(word) != 1:
            raise InvalidArgumentError(
                f"commutator edge form expects length-one words, got {word}"
            )
        (i, j) = word[0]
        rotated = HADAMARD @ mat @ HADAMARD
        out += np.kron(_elementary(grid, i, j), rotated)
        out += np.kron(_elementary(grid, j, i), rotated.T)
    return out


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
    if not (isinstance(hbar, (int, float)) and hbar > 0 and np.isfinite(hbar)):
        raise InvalidArgumentError(f"hbar must be a positive finite number, got {hbar}")
    hbar = float(hbar)
    real_block = root_block(w_op.s).real.astype(complex)
    symbolic = TensorElement(
        w_op.n_pairs,
        {
            ((i, j),): ((1j / hbar) * w) * real_block
            for (i, j), w in w_op.weights.items()
        },
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


def commutator_closed_form(
    dirac: DiracOperator, obs: DiagonalObservable
) -> TensorElement:
    """Closed-form commutator of a Dirac operator with a diagonal observable.

    One term per weighted edge: on word (i, j) the coefficient is
    (i/hbar) * w_ij * (a_i - a_j) * Y. Defined for operators built from the
    second root family (whose real part is X); realizing the result via
    realize_commutator_edges reproduces the dense commutator exactly.
    """
    if dirac.s != 2:
        raise InvalidArgumentError(
            f"closed form requires the second root family, got s={dirac.s}"
        )
    if obs.grid != dirac.n_pairs * 2:
        raise InvalidArgumentError(
            f"observable has {obs.grid} values, grid needs {dirac.n_pairs * 2}"
        )
    terms = {}
    for (i, j), w in dirac.weights.items():
        coeff = (1j / dirac.hbar) * (w * obs.alpha(i, j))
        terms[((i, j),)] = coeff * MAT_Y
    return TensorElement(dirac.n_pairs, terms)


def double_commutator_closed_form(
    dirac: DiracOperator, obs: DiagonalObservable
) -> TensorElement:
    """Degree-two element C * D - D * C with C the closed-form commutator.

    The product is taken in the free word calculus, so the result carries
    squared words E_ij E_ij and mixed anticommutator pairs. Its half
    reduction under psi_reduce is the Laplacian closed form.
    """
    comm = commutator_closed_form(dirac, obs)
    return comm.mul(dirac.symbolic) - dirac.symbolic.mul(comm)


def laplacian_closed_form(
    dirac: DiracOperator, obs: DiagonalObservable
) -> TensorElement:
    """Scalar-word Laplacian coefficient -(1/hbar^2) sum_edges w^2 alpha * J.

    Matches (1/2) psi_reduce(double_commutator_closed_form(...)) bit for bit:
    the per-edge scalars are multiplied in the same order as on the
    word-calculus route.
    """
    if dirac.s != 2:
        raise InvalidArgumentError(
            f"closed form requires the second root family, got s={dirac.s}"
        )
    if obs.grid != dirac.n_pairs * 2:
        raise InvalidArgumentError(
            f"observable has {obs.grid} values, grid needs {dirac.n_pairs * 2}"
        )
    total = 0.0 + 0.0j
    for (i, j), w in dirac.weights.items():
        z_c = (1j / dirac.hbar) * (w * obs.alpha(i, j))
        z_d = (1j / dirac.hbar) * w
        total += z_c * z_d
    element = TensorElement(dirac.n_pairs)
    element._add_term((), total * MAT_J)
    return element._pruned()


def psi_reduce(element: TensorElement) -> TensorElement:
    """Canonical reduction of degree-two words.

    A squared word (u, u) collapses to the empty word with a sign flip; a
    descending pair (u, v) with u > v is rewritten as the ascending pair with
    a sign flip, so symmetric pair combinations cancel. Words of length zero
    or one pass through; longer words are rejected.
    """
    out = TensorElement(element.n_pairs)
    for word, mat in element.terms.items():
        if len(word) < 2:
            out._add_term(word, mat)
            continue
        if len(word) > 2:
            raise UnsupportedDegreeError(
                f"reduction supports words of at most two pairs, got {len(word)}"
            )
        u, v = word
        if u == v:
            out._add_term((), -mat)
        elif u > v:
            out._add_term((v, u), -mat)
        else:
            out._add_term(word, mat)
    return out._pruned()


def psi_map_to_clifford(
    element: TensorElement, d: int, hbar: float
) -> tuple[Multivector, complex]:
    """Read a base-row element off into Clifford generator coordinates.

    The element must consist of exactly d+1 length-one words sharing a common
    first index, each with coefficient c_j * (i/hbar) * Y for a real scalar
    c_j. Words are ordered by second index; the last one is dropped. Returns
    (sum_j c_j e_j, i/hbar).
    """
    if d < 1:
        raise InvalidArgumentError(f"need d >= 1, got {d}")
    if not (hbar > 0 and np.isfinite(hbar)):
        raise InvalidArgumentError(f"hbar must be a positive finite number, got {hbar}")
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
