"""Unit tests for scaled Bessel functions, normalizers, and moment integrals."""

from __future__ import annotations

import decimal
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose
from scipy import special

from diraclab import (
    InvalidArgumentError,
    NumericFailureError,
    bessel_i_scaled,
    dirac_expectation_oracle,
    framed_point,
    lemma_abc,
    linear_coordinate_function,
    log_c_d,
    make_manifold,
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


# scipy.special.ive (Amos's algorithm) is the independent route, held to
# 1e-13.  At nu = 50 no route can meet that against it: near x = 1e-3 scipy's
# own error reaches 1.34e-13 (against 40-digit arithmetic).  There the bound
# is scipy's error plus the 6.5e-14 of bessel_i_scaled, and the exact sums of
# test_bessel_scaled_matches_exact_sums_at_order_50 hold the route to 1e-13.
SCIPY_ORDERS = (-0.5, 0.0, 0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 6.0, 10.0, 20.0, 50.0)


@pytest.mark.parametrize("nu", SCIPY_ORDERS)
def test_bessel_scaled_matches_scipy(nu):
    switch = specfun._switch(nu)
    x = np.concatenate(
        [
            np.geomspace(1e-3, 1e6, 20001),
            [5e-324, 1e-300, np.nextafter(switch, 0.0), switch, np.nextafter(switch, np.inf)],
        ]
    )
    ref = special.ive(nu, x)
    normal = np.abs(ref) >= np.finfo(float).tiny
    tol = 2e-13 if nu == 50.0 else 1e-13
    got = bessel_i_scaled(nu, x)
    assert np.max(np.abs(got[normal] / ref[normal] - 1.0)) <= tol
    # The float path, on every 97th point and the five added ones.
    for i in [*range(0, x.size - 5, 97), *range(x.size - 5, x.size)]:
        if normal[i]:
            assert abs(bessel_i_scaled(nu, float(x[i])) / ref[i] - 1.0) <= tol


def exact_ive(n: int, x: float) -> float:
    """exp(-x) I_n(x) for an integer order n, from the power series summed in
    60-digit decimal arithmetic.  Every term is positive, so no digit cancels,
    and only the final conversion to a float rounds."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        h = decimal.Decimal(x) / 2
        t = s = h**n / math.factorial(n)
        k = 0
        while k < h or t > s * decimal.Decimal("1e-50"):
            k += 1
            t = t * h * h / (k * (k + n))
            s += t
        return float(s * (-decimal.Decimal(x)).exp())


def test_bessel_scaled_matches_exact_sums_at_order_50():
    # Every 13th point of the scipy grid up to twice the switch point, and the
    # switch point with its neighbours: the power series, the rescaled sum and
    # Hankel's series where it is least accurate.
    switch = specfun._switch(50.0)
    grid = np.geomspace(1e-3, 1e6, 20001)[::13]
    x = np.concatenate([grid[grid <= 2.0 * switch], [np.nextafter(switch, 0.0), switch, np.nextafter(switch, np.inf)]])
    ref = np.array([exact_ive(50, float(v)) for v in x])
    assert np.max(np.abs(bessel_i_scaled(50.0, x) / ref - 1.0)) <= 1e-13
    assert max(abs(bessel_i_scaled(50.0, float(v)) / r - 1.0) for v, r in zip(x, ref)) <= 1e-13


def test_bessel_scaled_exact_values_at_zero():
    for x in (0.0, np.zeros(3)):
        for nu, value in ((0.0, 1.0), (0.5, 0.0), (1.0, 0.0), (7.5, 0.0), (-0.5, math.inf)):
            got = bessel_i_scaled(nu, x)
            assert np.all(got == value)
            assert isinstance(got, float) == np.isscalar(x)


def test_bessel_scaled_at_subnormal_arguments():
    # Below 2**-1021, x / 2 rounds (to 0 at 5e-324).  The closed forms of
    # exp(-x) I_nu(x) there: 1 at nu = 0, sqrt(2 / (pi x)) at nu = -1/2 and
    # sqrt(2 x / pi) at nu = 1/2.
    x = np.array([5e-324, 1e-320, 1e-310, 2.0**-1021, 1e-300])
    closed = {0.0: np.ones_like(x), -0.5: math.sqrt(2.0 / math.pi) / np.sqrt(x), 0.5: math.sqrt(2.0 / math.pi) * np.sqrt(x)}
    for nu, ref in closed.items():
        assert_allclose(bessel_i_scaled(nu, x), ref, rtol=1e-13, atol=0.0)
        for v, r in zip(x, ref):
            assert abs(bessel_i_scaled(nu, float(v)) / r - 1.0) <= 1e-13
    # C_d(beta) tends to one over the area of the unit (d-1)-sphere.
    assert abs(log_c_d(2, 5e-324) + math.log(2.0 * math.pi)) <= 1e-13
    assert abs(log_c_d(3, 5e-324) + math.log(4.0 * math.pi)) <= 1e-13


def test_bessel_scaled_is_independent_of_its_batch():
    # Each series tests its stop on one element of the batch, the one whose
    # terms fall last; every element must still read as it does alone.  The
    # batches span the switch, and at nu = 50 354 and 356 sit on either side
    # of where the power series' sum may need rescaling.
    for nu in (-0.5, 0.0, 0.5, 1.0, 19.0, 50.0):
        switch = specfun._switch(nu)
        x = np.concatenate([
            [0.0, 1e-300],
            np.geomspace(1e-3, 3.0 * switch, 60),
            [np.nextafter(switch, 0.0), switch, 354.0, 356.0],
        ])
        got = specfun._ive(nu, x)
        alone = np.array([specfun._ive(nu, x[k : k + 1])[0] for k in range(x.size)])
        assert np.array_equal(got, alone), nu


@pytest.mark.parametrize("d", [2, 3, 4, 7, 102])
def test_log_c_d_matches_scipy_reference(d):
    nu = 0.5 * d - 1.0
    beta = np.geomspace(1e-3, 1e6, 401)
    ref = nu * np.log(beta) - 0.5 * d * math.log(2.0 * math.pi) - (beta + np.log(special.ive(nu, beta)))
    got = np.array([log_c_d(d, float(b)) for b in beta])
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_bessel_rejects_bad_inputs():
    with pytest.raises(InvalidArgumentError):
        bessel_i_scaled(-1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        bessel_i_scaled(np.array([0.5, 1.0]), 1.0)
    with pytest.raises(InvalidArgumentError):
        bessel_i_scaled(math.nan, 1.0)
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
    assert b_got == t * a_got
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


@pytest.mark.parametrize("d", [160, 400])
def test_lemma_abc_at_large_dimension(d):
    # exp(-x) I_{d/2-1}(x) falls below the smallest normal float on the
    # innermost radial nodes at d = 160, and on most of [0, 1] at d = 400,
    # where the leading terms of its power series alone would be off by 1e-4.
    # The reference is the same integral in 30-digit arithmetic.
    t = 0.2
    a_got = lemma_abc(d, t)[0]
    with mpmath.workdps(30):
        beta, nu = 1 / mpmath.mpf(t), mpmath.mpf(d) / 2 - 1
        i_beta = mpmath.besseli(nu, beta)
        a_ref = float(mpmath.quad(
            lambda r: r ** (1 - nu) * beta * mpmath.besseli(nu, beta * r) / i_beta, [0, 0.5, 1]
        ))
    assert abs(a_got / a_ref - 1.0) <= 1e-10


def test_lemma_abc_overflow_is_a_numeric_failure():
    # At d = 2040, t = 0.3 the log of C's constant term is about 712, past
    # the float range: a numeric failure, not a bare OverflowError.
    with pytest.raises(NumericFailureError, match="constant term of C overflows") as exc_info:
        lemma_abc(2040, 0.3)
    assert exc_info.value.diagnostics["log_const"] > math.log(np.finfo(float).max)


def test_radial_integral_failure_carries_best_value():
    # 48 / r.size halves with each level: it never settles on the ladder.
    with pytest.raises(NumericFailureError, match="after 6 refinements") as exc_info:
        specfun._radial_integral(lambda r, w: [48.0 / r.size], 1.0, "halving")
    err = exc_info.value
    assert err.best.tolist() == [2.0**-6]
    assert err.diagnostics == {"deltas": [2.0**-k for k in range(1, 7)]}
    # A level that turns non-finite after finite ones hands back the last finite values.
    with pytest.raises(NumericFailureError, match="not finite at refinement level 2") as exc_info:
        specfun._radial_integral(
            lambda r, w: [48.0 / r.size if r.size < 192 else math.inf], 1.0, "inf"
        )
    assert exc_info.value.best.tolist() == [0.5]
    assert exc_info.value.diagnostics == {"deltas": [0.5], "level": 2}


def test_radial_integral_stops_at_the_first_non_finite_level():
    calls = []

    def integrand(r, w):
        calls.append(r.size)
        return [math.nan]

    with pytest.raises(NumericFailureError, match="not finite at refinement level 0") as exc_info:
        specfun._radial_integral(integrand, 1.0, "nan")
    assert calls == [48]
    assert exc_info.value.best is None


def test_default_ladder_stops_at_3072_nodes(monkeypatch):
    # lemma_abc at t = 1e-5 has not converged by the top level: it raises
    # instead of building ever larger dense eigenproblems in leggauss.
    sizes = []
    real = specfun._gauss_legendre

    def recording(n):
        sizes.append(n)
        return real(n)

    monkeypatch.setattr(specfun, "_gauss_legendre", recording)
    with pytest.raises(NumericFailureError, match="after 6 refinements") as exc_info:
        lemma_abc(3, 1e-5)
    assert max(sizes) == 48 * 2**6
    assert len(exc_info.value.diagnostics["deltas"]) == 6


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


def polar_moments_reference(t: float, sigma: int) -> tuple[float, float, float]:
    """d = 2: (parallel first moment, parallel and transverse second moments)
    of the kernel measure at scale t, by an adaptive product rule over radius
    and the angle to s."""
    beta = 1.0 / t
    log_cd = log_c_d(2, beta)

    def integrand(r, wr) -> np.ndarray:
        x, wx = leggauss(r.size)
        th, wth = 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * wx
        rr, mu = r[:, None], np.cos(th)[None, :]
        # Twice the half-plane 0 <= theta <= pi.
        base = 2.0 * np.exp(log_cd + sigma * beta * rr * mu) * rr * wr[:, None] * wth[None, :]
        par = rr * mu
        return np.array([np.sum(base * par), np.sum(base * par**2), np.sum(base * (rr**2 - par**2))])

    m1_par, lam_par, lam_perp = specfun._radial_integral(integrand, 1.0, "polar moments")
    return m1_par, lam_par, lam_perp


@pytest.mark.parametrize("t", [0.5, 0.2, 0.1, 0.05, 0.02])
@pytest.mark.parametrize("sigma", [-1, 1])
def test_vmf_moments_match_the_polar_reference_at_d2(t, sigma):
    s = np.array([0.6, -0.8])
    m1, m2 = vmf_moments(2, s, t, sigma=sigma)
    m1_par, lam_par, lam_perp = polar_moments_reference(t, sigma)
    perp = np.array([0.8, 0.6])
    assert abs(m1 @ s - m1_par) <= 1e-12 * abs(m1_par)
    assert np.max(np.abs(m1 - (m1 @ s) * s)) <= 1e-15
    assert abs(s @ m2 @ s - lam_par) <= 1e-12 * lam_par
    assert abs(perp @ m2 @ perp - lam_perp) <= 1e-12 * lam_perp
    assert abs(perp @ m2 @ s) <= 1e-15


def test_vmf_moments_at_large_dimension():
    # At d = 160 and 300 exp(-x) I_nu(x) underflows on the innermost radial
    # nodes, where the kernel's mass is below the smallest float; at d = 400 it
    # underflows at beta = 1/t too, so the mass and the Bessel ratios come from
    # log differences.  The moments stay finite.  The reference is the same
    # radial integral in 30-digit arithmetic, with the parallel moment in the
    # form 1 - (d - 1) A / kappa, which cancels to about 1/d: in float64 that
    # form would carry the Bessel ratio's rounding times about d, past the
    # bound at d = 300.
    t = 0.3
    for d in (160, 300, 400):
        s = np.eye(d)[0]
        m1, m2 = vmf_moments(d, s, t)
        with mpmath.workdps(30):
            beta, nu = 1 / mpmath.mpf(t), mpmath.mpf(d) / 2 - 1

            def log_c(k):
                return nu * mpmath.log(k) - mpmath.log(mpmath.besseli(nu, k))

            def moment(f):
                def integrand(r):
                    k = beta * r
                    ratio = mpmath.besseli(nu + 1, k) / mpmath.besseli(nu, k)
                    return r ** (d + 1) * mpmath.exp(log_c(beta) - log_c(k)) * f(ratio, k)

                return float(mpmath.quad(integrand, [0, 1]))

            m1_ref = moment(lambda a, k: a / k * beta)
            perp_ref = moment(lambda a, k: a / k)
            par_ref = moment(lambda a, k: 1 - (d - 1) * a / k)
        assert abs(m1[0] / m1_ref - 1.0) <= 1e-12, d
        assert abs(m2[1, 1] / perp_ref - 1.0) <= 1e-12, d
        assert abs(m2[0, 0] / par_ref - 1.0) <= 1e-12, d


@pytest.mark.parametrize("t", [0.5, 0.2, 0.1, 0.05])
@pytest.mark.parametrize("sigma", [-1, 1])
def test_flat_d3_dirac_oracle_is_the_first_moment_over_t(t, sigma):
    # Flat, a = v1, delta_u = 1: the oracle of s_1n is the kernel's first
    # moment along s = e_1 over t, whose d = 3 closed form is elementary.
    m = make_manifold("flat", 3)
    fp = framed_point(m, delta_u=1.0)
    a = linear_coordinate_function(m, fp, 1)
    got = dirac_expectation_oracle(m, a, fp, 1, t, sigma)
    assert abs(got - moment_reference(t, sigma)[0] / t) <= 1e-10


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
