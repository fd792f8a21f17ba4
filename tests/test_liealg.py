"""Unit tests for the block word calculus and its closed forms."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from diraclab import (
    DiagonalObservable,
    DiracOperator,
    InvalidArgumentError,
    InvalidGraphError,
    TensorElement,
    UnsupportedDegreeError,
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
from diraclab.liealg import (
    HADAMARD,
    MAT_J,
    MAT_X,
    MAT_Y,
    _aligned_commutator,
    _edge_element,
    _validated_weights,
    _weight_arrays,
)


def random_dirac(rng: np.random.Generator, n_pairs: int, hbar: float):
    grid = 2 * n_pairs
    pairs = [(i, j) for i in range(1, grid + 1) for j in range(i + 1, grid + 1)]
    rng.shuffle(pairs)
    n_edges = int(rng.integers(1, len(pairs) + 1))
    weights = {
        pair: float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0))
        for pair in pairs[:n_edges]
    }
    return dirac_from_w(build_w(weights, s=2, n_pairs=n_pairs), hbar)


def test_coefficient_basis_relations():
    ident = np.eye(2)
    assert_allclose(MAT_X @ MAT_X, ident)
    assert_allclose(MAT_Y @ MAT_Y, ident)
    assert_allclose(MAT_J @ MAT_J, -ident)
    assert_allclose(MAT_X @ MAT_Y, MAT_J)
    assert_allclose(HADAMARD @ MAT_X @ HADAMARD, -MAT_Y, atol=1e-15)
    assert_allclose(HADAMARD @ MAT_Y @ HADAMARD, -MAT_X, atol=1e-15)


def test_root_block_family_algebra():
    # Families 1 and 2 are nilpotent, 3 is twice a projector, 4 is a square
    # root of twice the identity.
    for s in (1, 2):
        block = root_block(s)
        assert_allclose(block @ block, np.zeros((2, 2)), atol=1e-15)
    c3 = root_block(3)
    assert_allclose(c3 @ c3, 2.0 * c3, atol=1e-15)
    c4 = root_block(4)
    assert_allclose(c4 @ c4, 2.0 * np.eye(2), atol=1e-15)


def test_root_block_rejects_bad_family():
    with pytest.raises(InvalidArgumentError):
        root_block(5)


def test_root_vector_is_skew_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n_pairs = int(rng.integers(1, 5))
        grid = 2 * n_pairs
        i = int(rng.integers(1, grid))
        j = int(rng.integers(i + 1, grid + 1))
        s = int(rng.integers(1, 5))
        # A single edge of weight one is the root vector at (i, j).
        z = build_w({(i, j): 1.0}, s=s, n_pairs=n_pairs).concrete
        assert_allclose(z.T, -z, atol=1e-15)


def test_root_vector_index_validation():
    with pytest.raises(InvalidArgumentError):
        build_w({(2, 2): 1.0}, s=1, n_pairs=2)
    with pytest.raises(InvalidArgumentError):
        build_w({(1, 5): 1.0}, s=1, n_pairs=2)


def test_tensor_element_keeps_explicit_zero_terms():
    # Degenerate coefficients must stay addressable for the base-row reader.
    zero = TensorElement(1, {((1, 2),): np.zeros((2, 2))})
    assert ((1, 2),) in zero.terms


def test_tensor_element_rejects_long_words():
    with pytest.raises(UnsupportedDegreeError):
        TensorElement(2, {((1, 2), (1, 3), (1, 4)): MAT_Y})


def test_tensor_element_mul_concatenates_words():
    a = TensorElement(2, {((1, 2),): 2.0 * MAT_X})
    b = TensorElement(2, {((3, 4),): 3.0 * MAT_Y})
    prod = a.mul(b)
    assert set(prod.terms) == {((1, 2), (3, 4))}
    assert_allclose(prod.terms[((1, 2), (3, 4))], 6.0 * MAT_X @ MAT_Y)


def test_build_w_realization_matches_symbolic():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n_pairs = int(rng.integers(1, 5))
        w_op = build_w(
            {(1, 2): float(rng.uniform(-2, 2))}, s=int(rng.integers(1, 5)), n_pairs=n_pairs
        )
        dirac = dirac_from_w(w_op, float(rng.uniform(0.1, 2.0)))
        assert_allclose(kron_operator_edges(dirac.symbolic), dirac.concrete)


def test_dirac_matrix_is_hermitian():
    rng = np.random.default_rng(23)
    for _ in range(20):
        dirac = random_dirac(rng, int(rng.integers(1, 5)), float(rng.uniform(0.1, 2)))
        assert_allclose(dirac.concrete, dirac.concrete.conj().T, atol=1e-14)


def test_single_edge_commutator_pinned():
    # One edge, diagonal (a1, a2): a single word with coefficient
    # (i/hbar) w (a1 - a2) Y.
    w, hbar, a1, a2 = 0.7, 0.25, 1.5, -0.5
    dirac = dirac_from_w(build_w({(1, 2): w}, s=2, n_pairs=1), hbar)
    comm = commutator_closed_form(dirac, DiagonalObservable((a1, a2)))
    assert set(comm.terms) == {((1, 2),)}
    assert_allclose(comm.terms[((1, 2),)], (1j / hbar) * w * (a1 - a2) * MAT_Y)


def test_commutator_with_constant_observable_is_zero():
    # Zero-matrix terms are kept addressable, so compare by value.
    rng = np.random.default_rng(31)
    dirac = random_dirac(rng, 3, 0.5)
    comm = commutator_closed_form(dirac, DiagonalObservable([2.0] * 6))
    assert comm.max_abs_diff(TensorElement(3)) == 0.0


def test_commutator_closed_form_matches_concrete():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(50):
        n_pairs = int(rng.integers(1, 9))
        hbar = float(rng.uniform(0.1, 10.0))
        dirac = random_dirac(rng, n_pairs, hbar)
        obs = DiagonalObservable(rng.uniform(-3, 3, size=2 * n_pairs))
        closed = realize_commutator_edges(commutator_closed_form(dirac, obs))
        brute = commutator_concrete(dirac.concrete, obs.realize())
        worst = max(worst, float(np.max(np.abs(closed - brute))))
    assert worst <= 1e-12


def test_observable_takes_finite_real_values():
    # A float conversion would read the strings and bools as numbers;
    # complex values are not real.
    for values in (["1", "3"], [True, False], [1 + 1j, 2.0]):
        with pytest.raises(InvalidArgumentError):
            DiagonalObservable(values)


def test_commutator_requires_second_family():
    dirac = dirac_from_w(build_w({(1, 2): 1.0}, s=1, n_pairs=1), 1.0)
    with pytest.raises(InvalidArgumentError):
        commutator_closed_form(dirac, DiagonalObservable((1.0, 2.0)))


def test_single_edge_laplacian_pinned():
    w, hbar, a1, a2 = 1.2, 0.5, 2.0, -1.0
    dirac = dirac_from_w(build_w({(1, 2): w}, s=2, n_pairs=1), hbar)
    lap = laplacian_closed_form(dirac, DiagonalObservable((a1, a2)))
    assert set(lap.terms) == {()}
    assert_allclose(lap.terms[()], -(w * w * (a1 - a2) / hbar**2) * MAT_J)


def test_laplacian_equals_half_reduced_bicommutator_exactly():
    rng = np.random.default_rng(53)
    for _ in range(50):
        n_pairs = int(rng.integers(1, 9))
        dirac = random_dirac(rng, n_pairs, float(rng.uniform(0.1, 2.0)))
        obs = DiagonalObservable(rng.uniform(-3, 3, size=2 * n_pairs))
        lap = laplacian_closed_form(dirac, obs)
        reduced = psi_reduce(double_commutator_closed_form(dirac, obs)).scale(0.5)
        assert reduced.max_abs_diff(lap) == 0.0


def test_psi_reduce_squared_word_flips_sign():
    elem = TensorElement(1, {((1, 2), (1, 2)): 2.0 * MAT_X})
    out = psi_reduce(elem)
    assert set(out.terms) == {()}
    assert_allclose(out.terms[()], -2.0 * MAT_X)


def test_psi_reduce_cancels_symmetric_distinct_pairs():
    u, v = (1, 2), (1, 3)
    elem = TensorElement(2, {(u, v): MAT_Y, (v, u): MAT_Y})
    assert psi_reduce(elem).terms == {}


def test_psi_reduce_passes_short_words_through():
    elem = TensorElement(1, {(): MAT_J, ((1, 2),): MAT_X})
    out = psi_reduce(elem)
    assert_allclose(out.terms[()], MAT_J)
    assert_allclose(out.terms[((1, 2),)], MAT_X)


def test_psi_map_reads_base_row():
    hbar = 0.5
    coeffs = (0.3, -1.1, 0.0)
    terms = {
        ((1, 1 + k),): c * (1j / hbar) * MAT_Y for k, c in enumerate(coeffs, start=1)
    }
    mv, factor = psi_map_to_clifford(TensorElement(2, terms), d=2, hbar=hbar)
    assert factor == 1j / hbar
    assert mv.component(1) == pytest.approx(0.3)
    assert mv.component(2) == pytest.approx(-1.1)
    # The extra word is dropped, not folded into the image.
    assert set(mv.coeffs) == {1, 2}


def test_psi_map_rejects_wrong_word_count():
    terms = {((1, 2),): (1j / 1.0) * MAT_Y}
    with pytest.raises(InvalidGraphError):
        psi_map_to_clifford(TensorElement(1, terms), d=2, hbar=1.0)


def test_psi_map_rejects_mixed_base():
    terms = {
        ((1, 2),): (1j / 1.0) * MAT_Y,
        ((1, 3),): (1j / 1.0) * MAT_Y,
        ((2, 4),): (1j / 1.0) * MAT_Y,
    }
    with pytest.raises(InvalidGraphError):
        psi_map_to_clifford(TensorElement(2, terms), d=2, hbar=1.0)


def test_psi_map_rejects_non_y_coefficient():
    terms = {
        ((1, 2),): (1j / 1.0) * MAT_Y,
        ((1, 3),): (1j / 1.0) * MAT_X,
        ((1, 4),): (1j / 1.0) * MAT_Y,
    }
    with pytest.raises(InvalidArgumentError):
        psi_map_to_clifford(TensorElement(2, terms), d=2, hbar=1.0)


# -- reference word calculus -------------------------------------------------
# The dict algorithm the array store replaced, kept here as the reference:
# terms accumulate in a dict, a word's first occurrence fixes its position,
# and later coefficients add to it one at a time.


def ref_add_term(terms, word, mat):
    if word in terms:
        terms[word] = terms[word] + mat
    else:
        terms[word] = mat.copy()


def ref_pruned(terms):
    return {w: m for w, m in terms.items() if m.any()}


def ref_copy(terms):
    return {w: np.array(m, dtype=complex) for w, m in terms.items()}


def ref_add(a, b):
    out = ref_copy(a)
    for word, mat in b.items():
        ref_add_term(out, word, mat)
    return ref_pruned(out)


def ref_sub(a, b):
    out = ref_copy(a)
    for word, mat in b.items():
        ref_add_term(out, word, -mat)
    return ref_pruned(out)


def ref_scale(a, value):
    return {w: value * m for w, m in a.items()}


def ref_mat2_product(m1, m2):
    """The 2x2 product rule on Python floats: entry [p, q] is x0*y0 + x1*y1
    with x = m1[p, k], y = m2[k, q], each complex product written out as
    (xr*yr - xi*yi) + i(xr*yi + xi*yr)."""
    out = np.empty((2, 2), dtype=complex)
    for p in range(2):
        for q in range(2):
            x0, x1 = complex(m1[p, 0]), complex(m1[p, 1])
            y0, y1 = complex(m2[0, q]), complex(m2[1, q])
            re = (x0.real * y0.real - x0.imag * y0.imag) + (x1.real * y1.real - x1.imag * y1.imag)
            im = (x0.real * y0.imag + x0.imag * y0.real) + (x1.real * y1.imag + x1.imag * y1.real)
            out[p, q] = complex(re, im)
    return out


def ref_mul(a, b):
    out = {}
    for w1, m1 in a.items():
        for w2, m2 in b.items():
            if len(w1) + len(w2) > 2:
                raise UnsupportedDegreeError("degree")
            ref_add_term(out, w1 + w2, ref_mat2_product(m1, m2))
    return ref_pruned(out)


def ref_psi_reduce(a):
    out = {}
    for word, mat in a.items():
        if len(word) < 2:
            ref_add_term(out, word, mat)
            continue
        u, v = word
        if u == v:
            ref_add_term(out, (), -mat)
        elif u > v:
            ref_add_term(out, (v, u), -mat)
        else:
            ref_add_term(out, word, mat)
    return ref_pruned(out)


def bits(arr):
    return np.ascontiguousarray(arr, dtype=complex).view(np.uint64)


def assert_same_terms(element, ref):
    """Same words in the same order, coefficients equal bit for bit."""
    assert list(element.terms) == list(ref)
    for word, mat in ref.items():
        assert np.array_equal(bits(element.terms[word]), bits(mat)), word


_SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 0.5])


@st.composite
def coefficients(draw):
    """A general complex 2x2 matrix: an explicit zero one time in six, else
    entries mixing signed zeros and small integers with arbitrary doubles."""
    if draw(st.integers(0, 5)) == 0:
        return np.zeros((2, 2), dtype=complex)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = np.where(
        rng.random(8) < 0.3, rng.choice(_SPECIAL, 8), rng.normal(scale=3.0, size=8)
    )
    return (parts[:4] + 1j * parts[4:]).reshape(2, 2)


@st.composite
def words(draw, grid):
    pair = st.tuples(st.integers(1, grid), st.integers(1, grid))
    length = draw(st.integers(0, 2))
    if length == 2 and draw(st.booleans()):
        u = draw(pair)
        return (u, u)
    return tuple(draw(pair) for _ in range(length))


@st.composite
def raw_terms(draw, grid, max_degree=2):
    out = {}
    for _ in range(draw(st.integers(0, 6))):
        word = draw(words(grid))
        if len(word) <= max_degree:
            out[word] = draw(coefficients())
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_array_store_matches_dict_algorithm(data):
    n_pairs = data.draw(st.integers(1, 2))
    grid = 2 * n_pairs
    ra = data.draw(raw_terms(grid))
    rb = data.draw(raw_terms(grid))
    if data.draw(st.booleans()):
        # Share words (in another order) so that sums meet and may cancel.
        rb.update({w: data.draw(st.sampled_from([-m, m, 2.0 * m])) for w, m in reversed(ra.items())})
    a = TensorElement(n_pairs, ra)
    b = TensorElement(n_pairs, rb)
    assert_same_terms(a, ra)
    assert_same_terms(a + b, ref_add(ra, rb))
    assert_same_terms(a - b, ref_sub(ra, rb))
    # Every word shared: a sum that cancels exactly.
    assert_same_terms(a - a, ref_sub(ra, ra))
    assert_same_terms(a + a.scale(-1.0), ref_add(ra, ref_scale(ra, -1.0)))
    # No word shared: each side's words kept in order, the right side's after.
    rd = {w: m for w, m in rb.items() if w not in ra}
    d = TensorElement(n_pairs, rd)
    for left, right, rl, rr in ((a, d, ra, rd), (d, a, rd, ra)):
        assert_same_terms(left + right, ref_add(rl, rr))
        assert_same_terms(left - right, ref_sub(rl, rr))
    value = data.draw(st.sampled_from([0.5, -1.0, 0.0, 1j / 3.0, 0.3 - 1.7j]))
    assert_same_terms(a.scale(value), ref_scale(ra, value))
    assert_same_terms(psi_reduce(a), ref_psi_reduce(ra))
    for left, right, rl, rr in ((a, b, ra, rb), (b, a, rb, ra)):
        try:
            expected = ref_mul(rl, rr)
        except UnsupportedDegreeError:
            with pytest.raises(UnsupportedDegreeError):
                left.mul(right)
            continue
        product = left.mul(right)
        assert_same_terms(product, expected)
        assert_same_terms(psi_reduce(product), ref_psi_reduce(expected))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_products_of_words_of_degree_one_match_dict_algorithm(data):
    # The shape of the double commutator: every word one pair long, so no
    # two products share a word and the reduction meets every collision.
    n_pairs = data.draw(st.integers(1, 3))
    grid = 2 * n_pairs
    pair = st.tuples(st.integers(1, grid), st.integers(1, grid))
    ra = {(p,): data.draw(coefficients()) for p in data.draw(st.lists(pair, max_size=6))}
    rb = {(p,): data.draw(coefficients()) for p in data.draw(st.lists(pair, max_size=6))}
    a, b = TensorElement(n_pairs, ra), TensorElement(n_pairs, rb)
    left, right = a.mul(b), b.mul(a)
    assert_same_terms(left, ref_mul(ra, rb))
    both = ref_sub(ref_mul(ra, rb), ref_mul(rb, ra))
    assert_same_terms(left - right, both)
    assert_same_terms(psi_reduce(left - right), ref_psi_reduce(both))


def assert_distinct_words(element):
    assert np.unique(element._keys).size == element._keys.size


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_element_holds_each_word_once(data):
    # The aligned double commutator and the closed forms collect with
    # distinct=True, which rests on their operands holding distinct words.
    n_pairs = data.draw(st.integers(1, 2))
    grid = 2 * n_pairs
    a = TensorElement(n_pairs, data.draw(raw_terms(grid)))
    b = TensorElement(n_pairs, data.draw(raw_terms(grid)))
    if data.draw(st.booleans()):
        b = b + a.scale(data.draw(st.sampled_from([1.0, -1.0, 2.0])))
    value = data.draw(st.sampled_from([0.5, -1.0, 0.0, 0.3 - 1.7j]))
    elements = [a, b, a + b, a - b, b - a, a - a, a.scale(value), psi_reduce(a)]
    for left, right in ((a, b), (b, a)):
        try:
            product = left.mul(right)
        except UnsupportedDegreeError:
            continue
        elements += [product, psi_reduce(product), product - right.mul(left)]
    pairs = st.tuples(st.integers(1, grid), st.integers(1, grid))
    weights = data.draw(st.dictionaries(pairs.filter(lambda p: p[0] < p[1]), st.floats(-2.0, 2.0)))
    edge_pairs, w = _weight_arrays(_validated_weights(weights, grid))
    elements.append(_edge_element(n_pairs, edge_pairs, w[:, None, None] * MAT_X))
    for element in elements:
        assert_distinct_words(element)


def complete_operator(n_pairs: int):
    """Dirac operator on every edge of the grid, and an observable."""
    rng = np.random.default_rng(n_pairs)
    grid = 2 * n_pairs
    weights = {
        (i, j): float(rng.uniform(0.2, 2.0))
        for i in range(1, grid + 1)
        for j in range(i + 1, grid + 1)
    }
    dirac = dirac_from_w(build_w(weights, s=2, n_pairs=n_pairs), 0.5)
    return dirac, DiagonalObservable(rng.uniform(-3.0, 3.0, size=grid))


@pytest.mark.parametrize("n_pairs", [8, 12])
def test_double_commutator_holds_a_few_results_at_its_peak(n_pairs):
    # C * D written into the result, D * C subtracted from it a block of rows
    # at a time, the result's keys and a few blocks of temporaries: at most 2
    # results' coefficient bytes, plus a fixed share.
    dirac, obs = complete_operator(n_pairs)
    double_commutator_closed_form(dirac, obs)
    tracemalloc.start()
    try:
        result = double_commutator_closed_form(dirac, obs)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    edges = len(dirac.weights)
    assert result._keys.size == edges * edges
    assert peak <= 2 * result._coeffs.nbytes + 256 * 1024, peak / result._coeffs.nbytes


def generic_double_commutator(dirac, obs):
    """The reference route: two full products and a matched difference."""
    comm = commutator_closed_form(dirac, obs)
    return comm.mul(dirac.symbolic) - dirac.symbolic.mul(comm)


def assert_same_bits(element, expected):
    assert element._keys.tobytes() == expected._keys.tobytes()
    assert element._coeffs.tobytes() == expected._coeffs.tobytes()


def test_double_commutator_matches_the_generic_difference_bit_for_bit():
    rng = np.random.default_rng(97)
    for _ in range(100):
        n_pairs = int(rng.integers(1, 9))
        dirac = random_dirac(rng, n_pairs, float(rng.uniform(0.1, 2.0)))
        obs = DiagonalObservable(rng.uniform(-3, 3, size=2 * n_pairs))
        expected = generic_double_commutator(dirac, obs)
        assert expected._keys.size == len(dirac.weights) ** 2
        assert_same_bits(double_commutator_closed_form(dirac, obs), expected)


def _equal_values_on_an_edge(rng):
    dirac = random_dirac(rng, 3, 0.5)
    values = rng.uniform(-3, 3, size=6)
    i, j = next(iter(dirac.weights))
    values[j - 1] = values[i - 1]
    return dirac, DiagonalObservable(values)


def _underflowing_weights(rng):
    # Coefficient products near 5e-324: some round to zero in one order only.
    weights = {(i, j): float(rng.uniform(1.0, 2.0)) * 1e-162 for i in range(1, 7) for j in range(i + 1, 7)}
    dirac = dirac_from_w(build_w(weights, s=2, n_pairs=3), 1.0)
    return dirac, DiagonalObservable(rng.uniform(-3, 3, size=6))


@pytest.mark.parametrize("case", [_equal_values_on_an_edge, _underflowing_weights])
def test_double_commutator_with_vanishing_products_takes_the_generic_route(case):
    # mul drops an all-zero product, so the difference appends D * C's word
    # after C * D's: the aligned grid would order it differently.
    dirac, obs = case(np.random.default_rng(11))
    comm = commutator_closed_form(dirac, obs)
    assert _aligned_commutator(comm, dirac.symbolic) is None
    expected = generic_double_commutator(dirac, obs)
    assert (np.diff(expected._keys) < 0).any()
    result = double_commutator_closed_form(dirac, obs)
    assert_same_bits(result, expected)
    c, d = comm.terms, dirac.symbolic.terms
    assert_same_terms(result, ref_sub(ref_mul(c, d), ref_mul(d, c)))


@pytest.mark.parametrize("pair", [(0, 2), (2, 1)])
def test_closed_forms_check_the_weights_as_build_w_does(pair):
    # Unchecked, index 0 would wrap to the observable's last value, and either
    # pair would key the edge as another word.
    weights = {pair: 1.0}
    with pytest.raises(InvalidArgumentError) as built:
        build_w(weights, s=2, n_pairs=1)
    dirac = DiracOperator(1, 2, 0.5, weights, TensorElement(1), np.zeros((4, 4), dtype=complex))
    obs = DiagonalObservable([1.0, 3.0])
    for closed_form in (commutator_closed_form, double_commutator_closed_form, laplacian_closed_form):
        with pytest.raises(InvalidArgumentError) as raised:
            closed_form(dirac, obs)
        assert str(raised.value) == str(built.value)


def test_double_commutator_of_a_hand_built_operator_takes_the_generic_route():
    # The symbolic words in reverse order: C's key list no longer matches D's.
    dirac = random_dirac(np.random.default_rng(13), 3, 0.5)
    pairs, _w = _weight_arrays(dirac.weights)
    symbolic = _edge_element(3, pairs[::-1], dirac.symbolic._coeffs[::-1])
    assert not np.array_equal(symbolic._keys, dirac.symbolic._keys)
    reordered = DiracOperator(3, 2, 0.5, dirac.weights, symbolic, dirac.concrete)
    obs = DiagonalObservable(np.random.default_rng(14).uniform(-3, 3, size=6))
    expected = generic_double_commutator(reordered, obs)
    assert expected._keys.size == len(dirac.weights) ** 2
    assert_same_bits(double_commutator_closed_form(reordered, obs), expected)


# Signed zeros, subnormals, values whose products overflow, and ordinary doubles.
_EXTREME = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.0e-309, 1e300, -1e300, 1.0, -1.0, 0.1, -2.75, 3.3e-7]
)


def test_single_word_products_follow_the_product_rule_bit_for_bit():
    rng = np.random.default_rng(71)
    words = [(), ((1, 2),), ((2, 1),)]
    for _ in range(400):
        w1, w2 = rng.choice(len(words), size=2)
        # Pairs of doubles viewed as complex, so every part keeps its bits.
        m1, m2 = (rng.choice(_EXTREME, 8).view(complex).reshape(2, 2) for _ in range(2))
        a = TensorElement(1, {words[w1]: m1})
        b = TensorElement(1, {words[w2]: m2})
        with np.errstate(over="ignore", invalid="ignore"):
            product = a.mul(b)
        assert_same_terms(product, ref_pruned({words[w1] + words[w2]: ref_mat2_product(m1, m2)}))


def test_mul_rejects_degree_three_products():
    one = TensorElement(2, {((1, 2),): MAT_X})
    two = TensorElement(2, {((1, 2), (3, 4)): MAT_Y, (): MAT_J})
    for left, right in ((one, two), (two, one), (two, two)):
        with pytest.raises(UnsupportedDegreeError):
            left.mul(right)
    # An empty factor forms no product, so nothing is rejected.
    assert two.mul(TensorElement(2)).terms == {}


def test_degree_three_words_cannot_reach_psi_reduce():
    # psi_reduce's degree bound is enforced where words enter the store: at
    # construction, and the stored terms cannot be changed afterwards.
    with pytest.raises(UnsupportedDegreeError):
        TensorElement(2, {((1, 2), (2, 3), (3, 4)): MAT_X})
    elem = TensorElement(2, {((1, 2), (3, 4)): MAT_X})
    with pytest.raises(TypeError):
        elem.terms[((1, 2), (3, 4), (1, 2))] = MAT_X
    with pytest.raises(ValueError):
        elem.terms[((1, 2), (3, 4))][0, 0] = 2.0
    assert set(psi_reduce(elem).terms) == {((1, 2), (3, 4))}


# -- realizations against Kronecker products ---------------------------------


def elementary(grid, i, j):
    out = np.zeros((grid, grid))
    out[i - 1, j - 1] = 1.0
    return out


def kron_operator_edges(element):
    grid = element.grid
    out = np.zeros((2 * grid, 2 * grid), dtype=complex)
    for ((i, j),), mat in element.terms.items():
        out += np.kron(elementary(grid, i, j), mat)
        out += np.kron(elementary(grid, j, i), -mat.T)
    return out


def kron_commutator_edges(element):
    grid = element.grid
    out = np.zeros((2 * grid, 2 * grid), dtype=complex)
    for ((i, j),), mat in element.terms.items():
        rotated = HADAMARD @ mat @ HADAMARD
        out += np.kron(elementary(grid, i, j), rotated)
        out += np.kron(elementary(grid, j, i), rotated.T)
    return out


def kron_build_w(weights, s, n_pairs):
    grid = 2 * n_pairs
    block = root_block(s)
    out = np.zeros((2 * grid, 2 * grid), dtype=complex)
    for (i, j), w in sorted(weights.items()):
        out += w * (np.kron(elementary(grid, i, j), block) + np.kron(elementary(grid, j, i), -block.T))
    return out


def test_block_placement_matches_kron_reference_bit_for_bit():
    rng = np.random.default_rng(61)
    for n_pairs in range(1, 9):
        grid = 2 * n_pairs
        pairs = [(i, j) for i in range(1, grid + 1) for j in range(i + 1, grid + 1)]
        for s in (1, 2, 3, 4):
            picked = rng.permutation(len(pairs))[: int(rng.integers(1, len(pairs) + 1))]
            weights = {pairs[k]: float(rng.uniform(-2.0, 2.0)) for k in picked}
            w_op = build_w(weights, s=s, n_pairs=n_pairs)
            assert np.array_equal(bits(w_op.concrete), bits(kron_build_w(weights, s, n_pairs)))
            # The dense Dirac matrix equals the realized symbolic form exactly;
            # the two may differ only in the sign of zero parts.
            dirac = dirac_from_w(w_op, 0.7)
            assert np.array_equal(dirac.concrete, kron_operator_edges(dirac.symbolic))
            assert np.array_equal(
                bits(realize_commutator_edges(dirac.symbolic)),
                bits(kron_commutator_edges(dirac.symbolic)),
            )
        # General coefficients, with words that share blocks: a pair and its
        # mirror, and a diagonal pair whose two contributions land together.
        # About a third of the real and imaginary parts are -0.0.
        words = [((1, grid),), ((grid, 1),), ((n_pairs, n_pairs),), ((grid, grid - 1),)]
        parts = rng.normal(size=(len(words), 2, 2, 2))
        parts[rng.random(parts.shape) < 0.3] = -0.0
        coeffs = parts.view(complex)[..., 0]
        element = TensorElement(n_pairs, dict(zip(words, coeffs)))
        assert np.array_equal(
            bits(realize_commutator_edges(element)), bits(kron_commutator_edges(element))
        )


def test_edge_realizations_reject_other_word_lengths():
    for word in ((), ((1, 2), (2, 3))):
        element = TensorElement(2, {((1, 2),): MAT_X, word: MAT_Y})
        with pytest.raises(InvalidArgumentError):
            realize_commutator_edges(element)
