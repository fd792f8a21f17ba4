"""Unit tests for scaled Bessel functions, normalizers, and moment integrals."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from diraclab import (
    InvalidArgumentError,
    NumericFailureError,
    QuadratureRule,
    bessel_i_scaled,
    lemma_abc,
    log_c_d,
    vmf_moments,
)
from diraclab import specfun


def half_integer_reference(nu: float, x: np.ndarray) -> np.ndarray:
    """exp(-x) I_nu(x) for nu in {1/2, 3/2, 5/2} from hyperbolic closed forms."""
    pref = np.exp(-x) * np.sqrt(2.0 / (np.pi * x))
    if nu == 0.5:
        return pref * np.sinh(x)
    if nu == 1.5:
        return pref * (np.cosh(x) - np.sinh(x) / x)
    if nu == 2.5:
        return pref * ((1.0 + 3.0 / x**2) * np.sinh(x) - 3.0 * np.cosh(x) / x)
    raise ValueError(nu)


def test_bessel_scaled_half_integer_closed_forms():
    x = np.linspace(0.1, 200.0, 1500)
    for nu in (0.5, 1.5, 2.5):
        got = bessel_i_scaled(nu, x)
        ref = half_integer_reference(nu, x)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-10


def test_bessel_scaled_pinned_value():
    expected = math.exp(-1.0) * math.sqrt(2.0 / math.pi) * math.sinh(1.0)
    assert bessel_i_scaled(0.5, 1.0) == pytest.approx(expected, rel=1e-14)


def test_bessel_scalar_in_scalar_out():
    out = bessel_i_scaled(0.5, 2.0)
    assert isinstance(out, float)
    arr = bessel_i_scaled(0.5, np.array([1.0, 2.0]))
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)


def test_bessel_rejects_bad_inputs():
    with pytest.raises(InvalidArgumentError):
        bessel_i_scaled(-1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        bessel_i_scaled(0.5, -1.0)
    with pytest.raises(InvalidArgumentError):
        bessel_i_scaled(0.5, np.inf)


def test_log_c3_pinned_value():
    # d=3 normalizer: C_3(b) = b / (4 pi sinh b); at b=1 the log is known.
    assert log_c_d(3, 1.0) == pytest.approx(
        math.log(1.0 / (4.0 * math.pi * math.sinh(1.0))), rel=1e-14
    )


def test_log_c3_closed_form_across_range():
    worst = 0.0
    for beta in np.linspace(0.05, 50.0, 400):
        ref = math.log(beta / (4.0 * math.pi * math.sinh(beta)))
        got = log_c_d(3, float(beta))
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-10


def test_log_c_d_finite_at_extreme_concentration():
    for d in (2, 3, 4, 7):
        val = log_c_d(d, 1e6)
        assert math.isfinite(val)


def test_log_c_d_validation():
    with pytest.raises(InvalidArgumentError):
        log_c_d(1, 1.0)
    with pytest.raises(InvalidArgumentError):
        log_c_d(3, 0.0)
    with pytest.raises(InvalidArgumentError):
        log_c_d(3, math.inf)


def abc_reference(t: float) -> tuple[float, float, float]:
    """Independent d=3 closed forms for the radial coefficient integrals."""
    beta = 1.0 / t
    a_val = math.tanh(1.0 / (2.0 * t))
    b_val = t * a_val
    c_val = (
        1.0 / math.tanh(beta)
        - t
        - math.sqrt(2.0) / (6.0 * t * math.sinh(beta))
    )
    return a_val, b_val, c_val


@pytest.mark.parametrize("t", [0.2, 0.1, 0.05, 0.02])
def test_lemma_abc_matches_closed_forms(t):
    a_got, b_got, c_got = lemma_abc(3, t)
    a_ref, b_ref, c_ref = abc_reference(t)
    assert a_got == pytest.approx(a_ref, abs=5e-10)
    assert b_got == pytest.approx(b_ref, abs=5e-10)
    assert c_got == pytest.approx(c_ref, abs=5e-10)


def test_lemma_abc_pinned_c_value():
    _, _, c_got = lemma_abc(3, 0.1)
    assert c_got == pytest.approx(0.8997859868005306, abs=1e-10)


def test_lemma_abc_rejects_low_dimension():
    with pytest.raises(InvalidArgumentError):
        lemma_abc(2, 0.1)


def test_adaptive_failure_carries_best_value():
    rule = QuadratureRule(tol=1e-30, max_refinements=1)
    with pytest.raises(NumericFailureError) as exc_info:
        specfun._adaptive(rule, lambda level: [1.0 / (level + 1)], "halving")
    err = exc_info.value
    assert err.best.tolist() == [0.5]
    assert err.diagnostics == {"deltas": [0.5]}


@pytest.mark.parametrize("n", [2, 48, 96, 256])
def test_gauss_legendre_nodes_are_cached_read_only_copies_of_leggauss(n):
    x, w = specfun._gauss_legendre(n)
    ref_x, ref_w = leggauss(n)
    assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
    assert not x.flags.writeable and not w.flags.writeable
    again = specfun._gauss_legendre(n)
    assert again[0] is x and again[1] is w
    with pytest.raises(ValueError):
        x[0] = 0.0


def moment_reference(t: float, sigma: int) -> tuple[float, float, float]:
    """d=3 closed forms: (parallel first moment, parallel and transverse
    second moments) of the kernel measure at scale t."""
    b = 1.0 / t
    coth = 1.0 / math.tanh(b)
    m1_par = sigma * (1.0 / b - 3.0 * coth / b**2 + 3.0 / b**3)
    lam_par = coth / b - 5.0 / b**2 + 12.0 * coth / b**3 - 12.0 / b**4
    lam_tr = coth / b - 3.0 / b**2 + 6.0 * coth / b**3 - 6.0 / b**4
    return m1_par, lam_par, (lam_tr - lam_par) / 2.0


@pytest.mark.parametrize("t", [0.2, 0.1, 0.05])
@pytest.mark.parametrize("sigma", [-1, 1])
def test_vmf_moments_match_closed_forms(t, sigma):
    s = np.array([0.0, 0.0, 1.0])
    m1, m2 = vmf_moments(3, s, t, sigma=sigma)
    m1_ref, lam_par, lam_perp = moment_reference(t, sigma)
    assert_allclose(m1, m1_ref * s, atol=5e-10)
    assert m2[2, 2] == pytest.approx(lam_par, abs=5e-10)
    assert m2[0, 0] == pytest.approx(lam_perp, abs=5e-10)
    assert m2[1, 1] == pytest.approx(lam_perp, abs=5e-10)
    off_diag = m2 - np.diag(np.diag(m2))
    assert np.max(np.abs(off_diag)) <= 5e-10


def test_vmf_first_moment_aligns_with_axis():
    rng = np.random.default_rng(7)
    for _ in range(5):
        s = rng.normal(size=3)
        s /= np.linalg.norm(s)
        m1, m2 = vmf_moments(3, s, 0.1, sigma=-1)
        ortho = m1 - (m1 @ s) * s
        assert np.max(np.abs(ortho)) < 1e-12
        # Second moment is symmetric with s an eigenvector.
        assert_allclose(m2, m2.T, atol=1e-12)
        assert np.max(np.abs(m2 @ s - (s @ m2 @ s) * s)) < 1e-10


def test_vmf_second_moment_ignores_orientation_sign():
    s = np.array([0.0, 1.0, 0.0])
    _, m2_minus = vmf_moments(3, s, 0.1, sigma=-1)
    _, m2_plus = vmf_moments(3, s, 0.1, sigma=1)
    assert_allclose(m2_minus, m2_plus, atol=1e-12)


def test_vmf_moments_validation():
    with pytest.raises(InvalidArgumentError):
        vmf_moments(3, np.array([0.0, 0.0, 2.0]), 0.1)
    with pytest.raises(InvalidArgumentError):
        vmf_moments(3, np.array([0.0, 1.0]), 0.1)
    with pytest.raises(InvalidArgumentError):
        vmf_moments(3, np.array([0.0, 0.0, 1.0]), 0.1, sigma=2)
