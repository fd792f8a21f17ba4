"""Unit tests for the sparse real Clifford algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab import InvalidArgumentError, Multivector, mv_mul


def random_mv(rng: np.random.Generator, d: int, n_terms: int = 4) -> Multivector:
    coeffs = {}
    for mask in rng.integers(0, 1 << d, size=n_terms):
        coeffs[int(mask)] = float(rng.uniform(-2.0, 2.0))
    return Multivector(d, coeffs)


def assert_same_coeffs(x: Multivector, y: Multivector, tol: float = 1e-12) -> None:
    masks = set(x.coeffs) | set(y.coeffs)
    assert all(abs(x.component(m) - y.component(m)) <= tol for m in masks)


def test_blade_rejects_mask_out_of_range():
    with pytest.raises(InvalidArgumentError):
        Multivector(3, {8: 1.0})


def test_generator_squares_to_minus_one():
    for d in range(1, 6):
        for j in range(1, d + 1):
            e_j = Multivector.basis_vector(d, j)
            assert mv_mul(e_j, e_j) == Multivector.scalar(d, -1.0)


def test_generators_anticommute():
    d = 4
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            e_i, e_j = Multivector.basis_vector(d, i), Multivector.basis_vector(d, j)
            ij, ji = mv_mul(e_i, e_j), mv_mul(e_j, e_i)
            assert ij.coeffs == {(1 << (i - 1)) | (1 << (j - 1)): 1.0}
            assert ji == -ij


def test_blade_mul_unit_is_identity():
    unit = Multivector.scalar(3, 1.0)
    for mask in range(8):
        b = Multivector(3, {mask: 1.0})
        assert mv_mul(unit, b) == b
        assert mv_mul(b, unit) == b


def test_zero_coefficients_are_dropped():
    mv = Multivector(3, {0: 0.0, 1: 1.5})
    assert mv.coeffs == {1: 1.5}


def test_component_and_grade_part():
    mv = Multivector(3, {0: 1.0, 1: 2.0, 3: 3.0})
    assert mv.component(3) == 3.0
    assert mv.component(4) == 0.0
    grade = {k: {m: c for m, c in mv.coeffs.items() if m.bit_count() == k} for k in (1, 2)}
    assert grade == {1: {1: 2.0}, 2: {3: 3.0}}


def test_addition_and_negation():
    a = Multivector(2, {0: 1.0, 1: 2.0})
    b = Multivector(2, {1: -2.0, 2: 5.0})
    assert (a + b).coeffs == {0: 1.0, 2: 5.0}
    assert (a - a).coeffs == {}
    assert (-a).coeffs == {0: -1.0, 1: -2.0}


def test_dimension_mismatch_raises():
    with pytest.raises(InvalidArgumentError):
        Multivector(2, {0: 1.0}) + Multivector(3, {0: 1.0})


def test_norm_is_euclidean_on_coefficients():
    mv = Multivector(2, {0: 3.0, 3: 4.0})
    assert mv.norm() == pytest.approx(5.0)


def vector(coords) -> Multivector:
    """Grade-one element sum_j coords[j] e_{j+1}, built from basis vectors."""
    d = len(coords)
    out = Multivector(d)
    for j, c in enumerate(coords, start=1):
        out = out + Multivector.basis_vector(d, j).scale(float(c))
    return out


def test_basis_vector_sum_is_grade_one():
    mv = vector([1.0, -2.0, 0.5])
    assert mv.d == 3
    assert mv.coeffs == {1: 1.0, 2: -2.0, 4: 0.5}


def test_embedded_vector_squares_to_minus_norm():
    rng = np.random.default_rng(5)
    for _ in range(20):
        coords = rng.uniform(-2.0, 2.0, size=4)
        mv = vector(coords)
        sq = mv_mul(mv, mv)
        assert set(sq.coeffs) <= {0}
        assert sq.component(0) == pytest.approx(-float(coords @ coords))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
def test_blade_product_is_associative(ma, mb, mc):
    d = 5
    a, b, c = (Multivector(d, {mask: 1.0}) for mask in (ma, mb, mc))
    left = mv_mul(mv_mul(a, b), c)
    right = mv_mul(a, mv_mul(b, c))
    assert left == right
    assert set(left.coeffs) == {ma ^ mb ^ mc}
    assert abs(left.component(ma ^ mb ^ mc)) == 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mv_mul_distributes_over_addition(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    x, y, z = (random_mv(rng, d) for _ in range(3))
    lhs = mv_mul(x, y + z)
    rhs = mv_mul(x, y) + mv_mul(x, z)
    assert_same_coeffs(lhs, rhs)


def test_scalar_multiplication_commutes():
    rng = np.random.default_rng(11)
    x = random_mv(rng, 4)
    s = Multivector.scalar(4, -1.75)
    assert_same_coeffs(mv_mul(s, x), mv_mul(x, s))
    assert_same_coeffs(mv_mul(s, x), x.scale(-1.75))
