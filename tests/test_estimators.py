"""Unit tests for test functions, column estimators, and the run harness."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose
from scipy import special

from diraclab import (
    InvalidArgumentError,
    OutOfNeighbourhoodError,
    RunConfig,
    TensorElement,
    convergence_run,
    default_frame,
    dirac_estimate,
    dirac_expectation_oracle,
    embedding_coordinate_function,
    exp_map,
    framed_point,
    hbar_schedule,
    laplace_estimate,
    laplace_expectation_oracle,
    linear_coordinate_function,
    log_c_d,
    log_coords,
    make_manifold,
    neighbourhood_volume,
    polynomial_family,
    psi_map_to_clifford,
    resolve_test_function,
    s_jn,
    sample_log_coords,
    squared_radius_function,
    star_anchors,
    star_weights,
    vol_density,
)
from diraclab import specfun
from diraclab.estimators import (
    _COPIES,
    CSV_COLUMNS,
    _estimate,
    _estimator,
    _repeat_stars,
    table_texts,
)
from diraclab.liealg import MAT_Y


def validate_test_function(m, fp, a) -> dict:
    """Finite-difference check (step 1e-3) of a test function's declared
    derivatives and Laplacian at the base point.

    Returns the relative residuals; raises InvalidArgumentError when any
    exceeds 1e-6.
    """
    h, tol = 1e-3, 1e-6
    base = float(a.evaluate(np.zeros(m.d)))
    deriv_res = []
    lap_fd = 0.0
    for j in range(m.d):
        step = h * np.eye(m.d)[j]
        up = float(a.evaluate(step))
        down = float(a.evaluate(-step))
        fd = (up - down) / (2.0 * h)
        declared = float(a.frame_derivatives[j])
        deriv_res.append(abs(fd - declared) / max(1.0, abs(declared)))
        lap_fd += (up - 2.0 * base + down) / (h * h)
    lap_declared = float(a.laplacian_at_base)
    lap_res = abs(lap_fd - lap_declared) / max(1.0, abs(lap_declared))
    out = {"derivative_residuals": deriv_res, "laplacian_residual": lap_res}
    if max(deriv_res) > tol or lap_res > tol:
        raise InvalidArgumentError(
            f"test function {a.name!r} failed the finite-difference check: {out}"
        )
    return out


def star_samples(m, fp, n, seed=0):
    """Log coordinates of n star copies, shape (n, d+1, d)."""
    rng = np.random.default_rng(seed)
    slots = m.d + 1
    return sample_log_coords(m, fp, rng, n * slots).reshape(n, slots, m.d)


def test_hbar_schedule_pinned_values():
    assert hbar_schedule(1, 0.2) == 1.0
    assert hbar_schedule(16, 0.5) == pytest.approx(0.25, rel=1e-15)
    assert hbar_schedule(1000, 0.2) == pytest.approx(10.0 ** (-0.6), rel=1e-14)


def test_hbar_schedule_validation():
    with pytest.raises(InvalidArgumentError):
        hbar_schedule(0, 0.2)
    with pytest.raises(InvalidArgumentError):
        hbar_schedule(10, 0.0)
    with pytest.raises(InvalidArgumentError):
        hbar_schedule(10, True)


@pytest.mark.parametrize("kind", ["flat", "sphere"])
def test_factory_functions_pass_derivative_validation(kind):
    m = make_manifold(kind, 2)
    fp = framed_point(m)
    candidates = [
        linear_coordinate_function(m, fp, 1),
        linear_coordinate_function(m, fp, 2),
        squared_radius_function(m, fp),
        embedding_coordinate_function(m, fp, 0),
    ]
    for a in candidates:
        report = validate_test_function(m, fp, a)
        assert max(report["derivative_residuals"]) <= 1e-6
        assert report["laplacian_residual"] <= 1e-6


def test_linear_function_targets():
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    a = linear_coordinate_function(m, fp, 1)
    assert_allclose(a.frame_derivatives, [1.0, 0.0])
    assert a.laplacian_at_base == 0.0
    assert a.evaluate(np.array([0.7, -0.3])) == pytest.approx(0.7)


def test_squared_radius_targets():
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    a = squared_radius_function(m, fp)
    assert_allclose(a.frame_derivatives, [0.0, 0.0])
    assert a.laplacian_at_base == pytest.approx(4.0)
    assert a.evaluate(np.array([0.3, 0.4])) == pytest.approx(0.25)


def test_embedding_coordinate_on_sphere():
    m = make_manifold("sphere", 2)
    fp = framed_point(m)
    a = embedding_coordinate_function(m, fp, 0)
    assert_allclose(a.frame_derivatives, [1.0, 0.0], atol=1e-12)
    # Eigenfunction of the sphere Laplacian with eigenvalue -d at the pole
    # frame, where the coordinate vanishes.
    assert a.laplacian_at_base == pytest.approx(-2.0 * fp.point[0], abs=1e-12)


def test_polynomial_family_size_and_validation():
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    family = polynomial_family(m, fp)
    assert len(family) == 10
    assert len({a.name for a in family}) == 10
    for a in family:
        # Raises when any declared derivative disagrees with the
        # finite-difference probe.
        validate_test_function(m, fp, a)


def test_resolve_test_function_auto_defaults():
    flat = make_manifold("flat", 2)
    fp_flat = framed_point(flat)
    assert resolve_test_function(flat, fp_flat, "dirac", "auto").name == "linear-x1"
    assert resolve_test_function(flat, fp_flat, "laplace", "auto").name == "squared-radius"
    sphere = make_manifold("sphere", 2)
    fp_sphere = framed_point(sphere)
    assert resolve_test_function(sphere, fp_sphere, "dirac", "auto").name == "embedding-x1"


def test_resolve_test_function_named_forms():
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    assert resolve_test_function(m, fp, "dirac", "linear-x2").name == "linear-x2"
    assert resolve_test_function(m, fp, "laplace", "squared-radius").name == "squared-radius"
    with pytest.raises(InvalidArgumentError):
        resolve_test_function(m, fp, "dirac", "mystery-function")
    # An index suffix must be all decimal digits and at least 1; anything
    # else is an unknown name, not a parse error.
    names = ("linear-xfoo", "embedding-x", "linear-x", "linear-x1.0", "linear-x-1")
    for name in (*names, "linear-x0", "embedding-x0"):
        with pytest.raises(InvalidArgumentError, match="unknown test function"):
            resolve_test_function(m, fp, "dirac", name)


def test_s_jn_constant_function_is_zero():
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    samples = star_samples(m, fp, 50)[:, 0, :]
    const = resolve_test_function(m, fp, "dirac", "auto")
    zero = type(const)(
        name="const",
        evaluate=lambda x: np.zeros(np.asarray(x).shape[:-1]) + 3.0,
        frame_derivatives=np.zeros(2),
        laplacian_at_base=0.0,
    )
    assert s_jn(m, samples, zero, fp, 1, 0.5) == 0.0


def test_s_jn_is_linear_in_the_observable():
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    samples = star_samples(m, fp, 40)[:, 0, :]
    a = linear_coordinate_function(m, fp, 1)
    b = squared_radius_function(m, fp)
    ab = type(a)(
        name="sum",
        evaluate=lambda x: a.evaluate(x) + b.evaluate(x),
        frame_derivatives=a.frame_derivatives + b.frame_derivatives,
        laplacian_at_base=a.laplacian_at_base + b.laplacian_at_base,
    )
    lhs = s_jn(m, samples, ab, fp, 1, 0.4)
    rhs = s_jn(m, samples, a, fp, 1, 0.4) + s_jn(m, samples, b, fp, 1, 0.4)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("kind", ["flat", "sphere"])
def test_dirac_estimate_components_match_column_estimators(kind):
    m = make_manifold(kind, 2)
    fp = framed_point(m)
    samples = star_samples(m, fp, 30, seed=4)
    a = resolve_test_function(m, fp, "dirac", "auto")
    hbar = 0.5
    est = dirac_estimate(m, samples, a, fp, hbar)
    assert est.shape == (2,)
    # The word-calculus route: the averaged commutator element, reduced to a
    # grade-1 multivector; the reduction hands back the unit i/hbar it removed.
    anchors, lams = star_anchors(m.d)
    w = star_weights(samples, anchors, fp, hbar, 1)
    coeff = (w * (a.evaluate(samples) - a.evaluate(np.zeros(2)))).mean(axis=0)
    terms = {((1, 2 + slot),): (1j / hbar) * coeff[slot] * MAT_Y for slot in range(3)}
    mv, factor = psi_map_to_clifford(TensorElement(2, terms), 2, hbar)
    assert factor == 1j / hbar
    assert all(mask.bit_count() == 1 for mask in mv.coeffs)
    word = mv.scale(neighbourhood_volume(m, fp) / hbar)
    for j in (1, 2):
        col = s_jn(m, samples[:, j - 1, :], a, fp, j, hbar)
        assert est[j - 1] == pytest.approx(col, abs=1e-12)
        assert word.component(1 << (j - 1)) == pytest.approx(col, abs=1e-12)
    # dirac_estimate weights the frame slots alone, and both estimators give
    # the public route's numbers bit for bit: star_weights times
    # (evaluate - base) on the full star, per-slot means, then the slot mix
    # summed slot by slot, then Vol / hbar^power.  Every embedding axis, on
    # the default and on a rotated base point and frame.
    rng = np.random.default_rng(5)
    p = rng.standard_normal(m.embedding_dim)
    if kind == "sphere":
        p /= np.linalg.norm(p)
    rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    rotated = framed_point(m, point=p, frame=rot @ default_frame(m, p))
    for fp in (fp, rotated):
        samples = star_samples(m, fp, 30, seed=4)
        vol = neighbourhood_volume(m, fp)
        w = star_weights(samples, anchors, fp, hbar, 1)
        funcs = [resolve_test_function(m, fp, "dirac", "auto")] + [
            embedding_coordinate_function(m, fp, axis) for axis in range(m.embedding_dim)
        ]
        rows = _estimate(m, samples, funcs, fp, hbar, 1, *_estimator("dirac", m.d))
        for f, row in zip(funcs, rows):
            terms = w * (f.evaluate(samples) - f.evaluate(np.zeros(2)))
            est = dirac_estimate(m, samples, f, fp, hbar)
            assert np.array_equal(est, terms.mean(axis=0)[:2] * (vol / hbar))
            assert np.array_equal(row, est)
            means = terms.mean(axis=0)
            for power in (1, 2):
                mix = lams**power
                total = sum(mix[i] * means[i] for i in range(3))
                lap = laplace_estimate(m, samples, f, fp, hbar, lambda_power=power)
                assert lap == total * (vol / (hbar * hbar))


def test_laplace_estimate_constant_is_zero():
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    samples = star_samples(m, fp, 25)
    a = linear_coordinate_function(m, fp, 1)
    zero = type(a)(
        name="const",
        evaluate=lambda x: np.zeros(np.asarray(x).shape[:-1]) + 1.5,
        frame_derivatives=np.zeros(2),
        laplacian_at_base=0.0,
    )
    assert laplace_estimate(m, samples, zero, fp, 0.5) == 0.0


def test_laplace_estimate_lambda_power_changes_weighting():
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    samples = star_samples(m, fp, 25, seed=9)
    a = squared_radius_function(m, fp)
    one = laplace_estimate(m, samples, a, fp, 0.5, lambda_power=1)
    two = laplace_estimate(m, samples, a, fp, 0.5, lambda_power=2)
    assert one != two


def bessel_ratio(nu: float, beta: float) -> float:
    return float(special.ive(nu, beta) / special.ive(0, beta))


def test_dirac_oracle_matches_bessel_closed_form():
    # Flat d=2, a = x1: the finite-scale expectation collapses to a ratio of
    # modified Bessel functions, I_2(beta)/I_0(beta) with beta = 1/hbar.
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    a = linear_coordinate_function(m, fp, 1)
    for hbar in (0.5, 0.25118864315095796, 0.1):
        got = dirac_expectation_oracle(m, a, fp, 1, hbar)
        assert got == pytest.approx(bessel_ratio(2.0, 1.0 / hbar), abs=1e-9)


def test_dirac_oracle_orthogonal_component_vanishes():
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    a = linear_coordinate_function(m, fp, 1)
    assert dirac_expectation_oracle(m, a, fp, 2, 0.3) == pytest.approx(0.0, abs=1e-10)


def test_laplace_oracle_matches_bessel_closed_form():
    # Flat d=2, a = |x|^2: beta I_1/I_0 - 2 I_2/I_0 at beta = 1/hbar.
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    a = squared_radius_function(m, fp)
    for hbar in (0.5, 0.25118864315095796):
        beta = 1.0 / hbar
        ref = beta * bessel_ratio(1.0, beta) - 2.0 * bessel_ratio(2.0, beta)
        got = laplace_expectation_oracle(m, a, fp, hbar)
        assert got == pytest.approx(ref, abs=1e-8)


def test_dirac_oracle_tends_to_a_difference_across_the_neighbourhood():
    # The kernel's mass sits in a layer of width hbar at the anchor s_j on the
    # boundary of the ball, so as hbar -> 0 the oracle of s_jn tends to
    # a(p + delta_u s_j) - a(p), not to e_j(a)(p).  For a = v1^2 (flat, d = 2,
    # delta_u = 1) that is 1, though e_1(a)(p) = 0.
    m = make_manifold("flat", 2)
    fp = framed_point(m, delta_u=1.0)
    a = {f.name: f for f in polynomial_family(m, fp)}["poly-v1sq"]
    assert a.frame_derivatives[0] == 0.0
    limit = float(a.evaluate(fp.delta_u * np.eye(2)[0]) - a.evaluate(np.zeros(2)))
    assert limit == 1.0
    got = [dirac_expectation_oracle(m, a, fp, 1, h) for h in (0.5, 0.2, 0.1, 0.05, 0.02)]
    assert_allclose(got, [0.244437, 0.507795, 0.705516, 0.839291, 0.932325], rtol=0, atol=1e-6)
    assert all(x < y for x, y in zip(got, got[1:]))
    assert got[-1] < limit


def test_star_laplacian_has_an_anchor_moment_defect():
    # sum_j lambda_j s_j s_j^T = (I + 11^T / sqrt(d)) / (d + sqrt(d)) is not a
    # multiple of I, so the Laplace oracle tends to a multiple of
    # sum_j lambda_j a(s_j) (flat, delta_u = 1), and a harmonic function can
    # get a nonzero limit.  On v1 v2 (Laplacian 0) over squared radius that
    # ratio is lambda_{d+1} / 2, which the oracles approach as hbar falls.
    d = 2
    anchors, lams = star_anchors(d)
    moment = np.einsum("j,jk,jl->kl", lams, anchors, anchors)
    assert_allclose(moment, (np.eye(d) + np.ones((d, d)) / math.sqrt(d)) / (d + math.sqrt(d)),
                    rtol=0, atol=1e-15)
    m = make_manifold("flat", d)
    fp = framed_point(m, delta_u=1.0)
    family = {f.name: f for f in polynomial_family(m, fp)}
    assert family["poly-v1v2"].laplacian_at_base == 0.0
    ratios = [
        laplace_expectation_oracle(m, family["poly-v1v2"], fp, h)
        / laplace_expectation_oracle(m, family["poly-radsq"], fp, h)
        for h in (0.2, 0.1, 0.05)
    ]
    assert_allclose(ratios, [0.123441, 0.164435, 0.185972], rtol=0, atol=1e-6)
    assert all(x < y for x, y in zip(ratios, ratios[1:]))
    assert ratios[-1] < lams[d] / 2 == pytest.approx(0.2071068, abs=1e-7)


def polar_oracle_reference(m, fp, hbar, sigma, mix, a):
    """The oracles' integral by an adaptive product rule over radius and polar
    angle (d = 2 only): kernel(v) (a(exp v) - a(p)) times the volume density,
    with the kernel the anchor kernels exp(log C_d + sigma <v, s_j> / hbar)
    combined with the weights ``mix``.  It evaluates the test function itself,
    not its shell form."""
    assert m.d == 2
    anchors = star_anchors(m.d)[0]
    beta = 1.0 / hbar
    lcd = log_c_d(m.d, beta)
    base = float(a.evaluate(np.zeros(m.d)))

    def integrand(r, wr):
        x, wx = leggauss(r.size)
        phi = math.pi * (x + 1.0)
        wphi = math.pi * wx
        cs = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        v = r[:, None, None] * cs[None, :, :]
        da = a.evaluate(v) - base
        dens = vol_density(m, fp.point, v)
        proj = np.einsum("rpd,sd->rps", v, anchors)
        kern = np.exp(lcd + sigma * beta * proj) @ mix
        vals = kern * da * dens * r[:, None]
        return np.array([np.einsum("rp,r,p->", vals, wr, wphi)])

    return float(specfun._radial_integral(integrand, fp.delta_u, "polar reference")[0])


ORACLE_FUNCTIONS = (
    "linear-x1", "linear-x2", "squared-radius", "embedding-x1", "embedding-x2", "embedding-x3",
    "poly-v1sq", "poly-v1v2", "poly-radsq",
)


@pytest.mark.parametrize("kind", ["flat", "sphere"])
@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("delta_u", [None, 0.5])
def test_oracles_match_the_polar_reference(kind, sigma, delta_u):
    m = make_manifold(kind, 2)
    fp = framed_point(m, delta_u=delta_u)
    family = {f.name: f for f in polynomial_family(m, fp)}
    funcs = [
        family[name] if name in family else resolve_test_function(m, fp, "dirac", name)
        for name in ORACLE_FUNCTIONS
        if not (name == "embedding-x3" and kind == "flat")
    ]
    lams = star_anchors(m.d)[1]
    for n in (1e3, 1e4, 1e5):
        hbar = n ** -0.2
        for a in funcs:
            pairs = [
                (
                    dirac_expectation_oracle(m, a, fp, j, hbar, sigma),
                    polar_oracle_reference(m, fp, hbar, sigma, np.eye(m.d + 1)[j - 1], a) / hbar,
                )
                for j in (1, 2)
            ]
            pairs.append((
                laplace_expectation_oracle(m, a, fp, hbar, sigma),
                polar_oracle_reference(m, fp, hbar, sigma, lams, a) / hbar**2,
            ))
            for got, ref in pairs:
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (a.name, n, got, ref)


def flat_kernel_integral_terms(d, delta, hbar, s, g, hess):
    """The three terms of the integral of C_d(beta) exp(beta <v, s>)
    (g.v + v^T H v / 2) over the flat ball of radius delta, beta = 1/hbar, in
    closed form through scipy's exponentially scaled Bessel functions:

        J(s) = (g.s) P1 / beta + (tr H P1 / beta^2 + s^T H s P2 / beta) / 2,
        P_k = delta^(d/2+k) I_{d/2+k}(beta delta) / I_{d/2-1}(beta).

    The kernel's mass on the sphere |v| = r is r^(d/2) I_{d/2-1}(beta r) /
    I_{d/2-1}(beta), and int_0^delta r^(mu+1) I_mu(beta r) dr =
    delta^(mu+1) I_{mu+1}(beta delta) / beta closes each radial integral.
    """
    beta = 1.0 / hbar
    p1, p2 = (
        delta ** (d / 2 + k) * special.ive(d / 2 + k, beta * delta)
        / special.ive(d / 2 - 1, beta) * math.exp(beta * (delta - 1.0))
        for k in (1, 2)
    )
    return [
        float(g @ s) * p1 / beta,
        0.5 * float(np.trace(hess)) * p1 / beta**2,
        0.5 * float(s @ hess @ s) * p2 / beta,
    ]


def test_flat_oracles_match_the_bessel_closed_form():
    # The Dirac oracle is J(sigma e_j) / hbar and the Laplace oracle
    # sum_j lambda_j^p J(sigma s_j) / hbar^2, for every function with a shell
    # form: _shell's c0 + r g.u + r^2 u^T hess u is g.v + v^T H v / 2 with
    # H = 2 hess (and H = 2 I for squared radius, c0 = r^2). The error is
    # taken against the sum of the absolute terms, not the reference alone:
    # a Laplace reference of a linear function is exactly 0, since
    # sum_j lambda_j s_j = 0, and at delta_u < 1 every term carries
    # e^(beta (delta_u - 1)).
    checked = 0
    grid = [(d, delta_u, hbar) for d in (2, 3, 6) for delta_u in (1.0, 0.25) for hbar in (0.25, 0.03)]
    grid += [(4, 0.5, 0.1), (5, 0.5, 0.1)]
    for d, delta_u, hbar in grid:
        m = make_manifold("flat", d)
        fp = framed_point(m, delta_u=delta_u)
        anchors, lams = star_anchors(d)
        forms = [(squared_radius_function(m, fp), np.zeros(d), 2.0 * np.eye(d))]
        forms += [
            (linear_coordinate_function(m, fp, j), np.eye(d)[j - 1], np.zeros((d, d)))
            for j in (1, d)
        ]
        forms += [
            (f, f.frame_derivatives, 2.0 * f._shell(1.0)[2])
            for f in polynomial_family(m, fp)
            if f._shell is not None
        ]
        for (a, g, hess), sigma in itertools.product(forms, (1, -1)):
            terms = [
                flat_kernel_integral_terms(d, delta_u, hbar, sigma * s, g, hess) for s in anchors
            ]
            cases = [
                (dirac_expectation_oracle(m, a, fp, j, hbar, sigma),
                 [t / hbar for t in terms[j - 1]])
                for j in range(1, d + 1)
            ] + [
                (laplace_expectation_oracle(m, a, fp, hbar, sigma, power),
                 [lam**power * t / hbar**2 for lam, ts in zip(lams, terms) for t in ts])
                for power in (1, 2)
            ]
            for got, parts in cases:
                # A component that no term reaches must read exactly 0.
                size = sum(abs(t) for t in parts)
                assert abs(got - math.fsum(parts)) <= 1e-12 * size, (
                    d, delta_u, hbar, sigma, a.name, got, parts,
                )
                checked += 1
    assert checked == 1620


def test_oracle_of_a_cubic_function_is_refused():
    # The cubic family members have no shell form of degree <= 2.
    for d in (2, 3):
        m = make_manifold("flat", d)
        fp = framed_point(m)
        family = {f.name: f for f in polynomial_family(m, fp)}
        for name in ("poly-v1cube", "poly-v1sqv2", "poly-v1v2sq"):
            with pytest.raises(InvalidArgumentError):
                dirac_expectation_oracle(m, family[name], fp, 1, 0.5)
            with pytest.raises(InvalidArgumentError):
                laplace_expectation_oracle(m, family[name], fp, 0.5)


@pytest.mark.parametrize(
    "mode, kind", [("dirac", "flat"), ("dirac", "sphere"), ("laplace", "flat")]
)
def test_monte_carlo_means_sit_near_their_oracles_at_d3(mode, kind):
    report = convergence_run(
        RunConfig(mode=mode, manifold=kind, dim=3, n_grid=(1000, 10000), repeats=50)
    )
    assert len(report.rows) == (6 if mode == "dirac" else 2)
    for row in report.rows:
        assert math.isfinite(row["oracle"]) and math.isfinite(row["bias"])
        assert abs(row["z"]) <= 3.0, row


def test_run_config_validation():
    with pytest.raises(InvalidArgumentError):
        RunConfig(mode="estimate")
    with pytest.raises(InvalidArgumentError):
        RunConfig(n_grid=(100, 100))
    with pytest.raises(InvalidArgumentError):
        RunConfig(repeats=0)
    with pytest.raises(InvalidArgumentError):
        RunConfig(alpha=-0.1)
    with pytest.raises(InvalidArgumentError):
        RunConfig(threads=0)
    # bool is an int subclass; True would pass as 1 and be written as true.
    for field_name in ("repeats", "threads", "master_seed", "dim"):
        for flag in (True, False):
            with pytest.raises(InvalidArgumentError):
                RunConfig(**{field_name: flag})
    # Nor may a float stand for sigma or lambda_power, or a bool for a real
    # setting: each would reach the report's metadata as 1.0 or true.
    for field_name, value in (
        ("sigma", True), ("sigma", 1.0), ("lambda_power", True), ("lambda_power", 2.0),
        ("alpha", True), ("delta_u", True),
    ):
        with pytest.raises(InvalidArgumentError):
            RunConfig(**{field_name: value})
    RunConfig(n_grid=())


def test_run_config_stores_numpy_integers_as_ints():
    """A numpy integer setting is stored as an int, so the report's JSON
    metadata can hold it."""
    cfg = RunConfig(
        dim=np.int64(3), n_grid=(np.int32(50),), repeats=np.int64(2),
        master_seed=np.uint64(5), sigma=np.int8(-1), lambda_power=np.int16(2),
        threads=np.int64(1),
    )
    for name in ("dim", "repeats", "master_seed", "sigma", "lambda_power", "threads"):
        assert type(getattr(cfg, name)) is int, name
    assert type(cfg.n_grid[0]) is int


def test_run_config_stores_a_numpy_alpha_as_its_python_value():
    """A numpy scalar alpha is stored as its Python value, so the report's
    JSON can hold it; a plain int alpha stays an int and is written as 1."""
    for value, kind, text in (
        (np.float32(0.2), float, '"alpha": 0.20000000298023224'),
        (np.int64(1), int, '"alpha": 1,'),
        (1, int, '"alpha": 1,'),
    ):
        cfg = RunConfig(n_grid=(50,), repeats=2, alpha=value)
        assert type(cfg.alpha) is kind
        assert text in convergence_run(cfg).to_json_text()


def test_run_config_rejects_a_family_check_that_is_not_a_bool():
    """A truthy string would run the family and reach the report's metadata
    as written; a numpy bool is no bool either, and JSON cannot write it."""
    for value in ("no", 1, np.bool_(True)):
        with pytest.raises(InvalidArgumentError, match="family_check must be a bool"):
            RunConfig(n_grid=(50,), repeats=2, family_check=value)


def test_run_config_rejects_an_unknown_test_function_name():
    """The name's grammar is checked as the config is built, not when the
    run starts."""
    with pytest.raises(InvalidArgumentError, match="unknown test function 'linear-xfoo'"):
        RunConfig(n_grid=(50,), repeats=2, test_function="linear-xfoo")


def test_run_config_rejects_a_test_function_that_is_not_a_str():
    """A name that is no string would escape the run as an AttributeError."""
    for value in (3, None, ("linear-x1",)):
        with pytest.raises(InvalidArgumentError, match="test_function must be a str"):
            RunConfig(n_grid=(50,), repeats=2, test_function=value)


def small_config(**overrides):
    base = dict(
        mode="dirac",
        manifold="flat",
        n_grid=(50, 100),
        repeats=3,
        master_seed=424242,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_convergence_run_row_structure():
    report = convergence_run(small_config())
    assert len(report.rows) == 4
    for row in report.rows:
        assert row["mode"] == "dirac"
        assert row["hbar"] == pytest.approx(hbar_schedule(row["n"], 0.2))
        assert row["estimate_se"] >= 0.0
        assert math.isfinite(row["estimate_mean"])
        assert row["abs_err"] == abs(row["estimate_mean"] - row["target"])
        assert row["bias"] == row["oracle"] - row["target"]
        z = (row["estimate_mean"] - row["oracle"]) / row["estimate_se"]
        assert row["z"] == z
    assert report.wall_time_s is None or report.wall_time_s >= 0.0
    # z is NaN, never a division by zero, when the standard error is 0 (one
    # repeat); the oracle and bias are still numbers.
    for row in convergence_run(small_config(repeats=1)).rows:
        assert math.isnan(row["z"])
        assert math.isfinite(row["oracle"]) and math.isfinite(row["bias"])


def test_convergence_run_is_deterministic_and_thread_independent():
    base = convergence_run(small_config())
    again = convergence_run(small_config())
    threaded = convergence_run(small_config(threads=3))
    assert base.to_json_text() == again.to_json_text()
    assert base.to_json_text() == threaded.to_json_text()
    assert table_texts(CSV_COLUMNS, base.rows) == table_texts(CSV_COLUMNS, threaded.rows)


def test_report_serialization_shapes():
    report = convergence_run(small_config(n_grid=(50,), repeats=2))
    csv_text, dat_text = table_texts(CSV_COLUMNS, report.rows)
    lines = csv_text.splitlines()
    assert lines[0].startswith("mode,manifold,d,alpha,n,hbar,j,")
    assert len(lines) == 1 + len(report.rows)
    assert dat_text.startswith("# mode manifold")
    json_text = report.to_json_text()
    assert json_text.endswith("\n")
    assert "wall_time" not in json_text


def test_single_repeat_reports_zero_se():
    report = convergence_run(small_config(n_grid=(60,), repeats=1))
    for row in report.rows:
        assert row["estimate_se"] == 0.0


def test_family_check_produces_rows():
    for mode in ("dirac", "laplace"):
        report = convergence_run(small_config(mode=mode, family_check=True))
        assert len(report.family_rows) == 2
        for row in report.family_rows:
            assert row["family_size"] == 10
            assert row["sup_fluctuation_mean"] >= 0.0
            assert row["sup_fluctuation_max"] >= row["sup_fluctuation_mean"] - 1e-15
        # The family shares the weights but leaves the test function's rows alone.
        assert report.rows == convergence_run(small_config(mode=mode)).rows


@pytest.mark.parametrize(
    "mode, kind, power",
    [
        ("dirac", "flat", 1), ("dirac", "sphere", 1),
        ("laplace", "flat", 1), ("laplace", "sphere", 2),
    ],
)
def test_convergence_run_agrees_with_the_public_api(mode, kind, power):
    # With one repeat each row's mean is the public estimator on that
    # repeat's stars, and its oracle the public oracle, bit for bit.
    cfg = small_config(mode=mode, manifold=kind, lambda_power=power, repeats=1)
    m = make_manifold(kind, cfg.dim)
    fp = framed_point(m, delta_u=cfg.delta_u)
    a = resolve_test_function(m, fp, mode, cfg.test_function)
    expected = []
    for n_idx, n in enumerate(cfg.n_grid):
        hbar = hbar_schedule(n, cfg.alpha)
        v = _repeat_stars(cfg, m, fp, n_idx, 0)[0]
        if mode == "dirac":
            estimates = dirac_estimate(m, v, a, fp, hbar, cfg.sigma)
            oracles = [
                dirac_expectation_oracle(m, a, fp, j, hbar, cfg.sigma) for j in range(1, m.d + 1)
            ]
        else:
            estimates = [laplace_estimate(m, v, a, fp, hbar, cfg.sigma, power)]
            oracles = [laplace_expectation_oracle(m, a, fp, hbar, cfg.sigma, power)]
        expected += zip(estimates, oracles)
    rows = convergence_run(cfg).rows
    assert [(row["estimate_mean"], row["oracle"]) for row in rows] == expected


@pytest.mark.parametrize("kind", ["flat", "sphere"])
def test_laplace_mode_runs_with_zero_j_rows(kind):
    report = convergence_run(small_config(mode="laplace", manifold=kind))
    assert all(row["j"] == 0 for row in report.rows)
    assert all(row["target"] == 4.0 for row in report.rows)


def assert_close_to_sum(got, ref, terms, rel=1e-12):
    """|got - ref| <= rel * sum of |terms|: relative agreement on the scale
    at which the two summation orders round, which stays meaningful when the
    sum itself cancels to nearly zero."""
    assert np.all(np.abs(np.asarray(got) - ref) <= rel * np.asarray(terms))


@pytest.mark.parametrize("kind", ["flat", "sphere"])
def test_fused_route_matches_embedded_reference(kind):
    # Reference: embed the sampled log coordinates with exp_map, take them
    # back with log_coords, weight them with star_weights, and read the test
    # functions off the embedded points or the round-tripped coordinates.
    m = make_manifold(kind, 2)
    fp = framed_point(m)
    n, hbar, sigma = 3000, 0.3, 1
    v = star_samples(m, fp, n, seed=17)
    pts = exp_map(m, fp.point, v @ fp.frame)
    logc = log_coords(m, fp, pts)
    anchors, lams = star_anchors(m.d)
    w = star_weights(logc, anchors, fp, hbar, sigma)
    pre = neighbourhood_volume(m, fp) / (n * hbar)
    if kind == "sphere":
        a = embedding_coordinate_function(m, fp, 0)
        da = pts[..., 0] - fp.point[0]
    else:
        a = linear_coordinate_function(m, fp, 1)
        da = logc[..., 0]
    ref = pre * np.sum(w * da, axis=0)[:2]
    scale = pre * np.sum(np.abs(w * da), axis=0)[:2]
    assert_close_to_sum(dirac_estimate(m, v, a, fp, hbar, sigma), ref, scale)
    for j in (1, 2):
        assert_close_to_sum(s_jn(m, v[:, j - 1], a, fp, j, hbar, sigma), ref[j - 1], scale[j - 1])

    sq = squared_radius_function(m, fp)
    terms = w * np.sum(logc * logc, axis=-1) * lams
    got = laplace_estimate(m, v, sq, fp, hbar, sigma)
    assert_close_to_sum(got, pre / hbar * np.sum(terms), pre / hbar * np.sum(np.abs(terms)))

    # The family check: one weight computation shared by ten polynomials.
    family = polynomial_family(m, fp)
    rows = _estimate(m, v, family, fp, hbar, sigma, *_estimator("dirac", m.d))
    assert rows.shape == (10, 2)
    for f, row in zip(family, rows):
        fw = w * (f.evaluate(logc) - f.evaluate(np.zeros(2)))
        assert_close_to_sum(row, pre * np.sum(fw, axis=0)[:2], pre * np.sum(np.abs(fw), axis=0)[:2])


@pytest.mark.parametrize("kind", ["flat", "sphere"])
def test_estimators_reject_bad_samples(kind):
    m = make_manifold(kind, 2)
    fp = framed_point(m)
    a = linear_coordinate_function(m, fp, 1)
    v = star_samples(m, fp, 6, seed=3)
    estimators = (
        lambda x: dirac_estimate(m, x, a, fp, 0.5),
        lambda x: laplace_estimate(m, x, a, fp, 0.5),
        lambda x: s_jn(m, x[:, 0], a, fp, 1, 0.5),
    )
    nan = v.copy()
    nan[2, 0, 1] = np.nan
    outside = v.copy()
    outside[4, 0] = [0.0, fp.delta_u]
    # The same faults in the extra slot d + 1, which dirac_estimate checks
    # but does not weight.
    nan_extra = v.copy()
    nan_extra[1, m.d, 0] = np.nan
    outside_extra = v.copy()
    outside_extra[3, m.d] = [fp.delta_u, 0.0]
    for estimate in estimators[:2]:
        with pytest.raises(InvalidArgumentError):
            estimate(nan_extra)
        with pytest.raises(OutOfNeighbourhoodError):
            estimate(outside_extra)
    for estimate in estimators:
        estimate(v)
        with pytest.raises(InvalidArgumentError):
            estimate(nan)
        with pytest.raises(OutOfNeighbourhoodError):
            estimate(outside)
        for bad in (v[:0], v[..., :1], np.concatenate([v, v[..., :1]], axis=-1)):
            with pytest.raises(InvalidArgumentError):
                estimate(bad)
    with pytest.raises(InvalidArgumentError):
        dirac_estimate(m, v[:, :2], a, fp, 0.5)
    with pytest.raises(InvalidArgumentError):
        star_weights(nan, np.eye(2)[0], fp, 0.5, 1)


def whole_array_estimate(m, v, funcs, fp, hbar, sigma, mix, power):
    """An estimator in one pass over whole arrays: every sample checked at
    once, the weights of the slots the mix uses, and numpy's mean over the
    copy axis of each function's weighted, centred values."""
    anchors = star_anchors(m.d)[0]
    star_weights(v, anchors, fp, hbar, sigma)
    k = 1 + int(np.flatnonzero(mix.any(axis=0))[-1])
    w = star_weights(v[:, :k], anchors[:k], fp, hbar, sigma)
    scale = neighbourhood_volume(m, fp) / math.prod([hbar] * power)
    rows = []
    for f in funcs:
        terms = np.asarray(f.evaluate(v[:, :k]), dtype=float) - float(f.evaluate(np.zeros(m.d)))
        terms *= w
        means = terms.mean(axis=0)
        rows.append(sum(mix[:, i] * means[i] for i in range(k)) * scale)
    return np.array(rows)


# Copy counts around the estimator's block.
BLOCK_COPIES = (1, _COPIES - 1, _COPIES, _COPIES + 1, 3 * _COPIES + 5)


@pytest.mark.parametrize("kind", ["flat", "sphere"])
@pytest.mark.parametrize("d", [2, 3])
def test_blocked_reduction_matches_the_whole_array_mean(kind, d):
    m = make_manifold(kind, d)
    fp = framed_point(m)
    funcs = [
        resolve_test_function(m, fp, "dirac", "auto"),
        squared_radius_function(m, fp),
        *polynomial_family(m, fp),
    ]
    lams = star_anchors(d)[1]
    for seed, n in enumerate(BLOCK_COPIES):
        v = star_samples(m, fp, n, seed=seed)
        for hbar, sigma in ((0.3, 1), (0.15, -1)):
            ref = whole_array_estimate(m, v, funcs, fp, hbar, sigma, np.eye(d, d + 1), 1)
            got = _estimate(m, v, funcs, fp, hbar, sigma, *_estimator("dirac", m.d))
            assert np.array_equal(got, ref)
            for power in (1, 2):
                ref = whole_array_estimate(m, v, funcs, fp, hbar, sigma, lams[None] ** power, 2)
                got = [laplace_estimate(m, v, f, fp, hbar, sigma, power) for f in funcs]
                assert np.array_equal(got, ref[:, 0])


@pytest.mark.parametrize("kind", ["flat", "sphere"])
def test_blocked_check_rejects_what_a_whole_array_check_rejects(kind):
    m = make_manifold(kind, 2)
    fp = framed_point(m)
    a = linear_coordinate_function(m, fp, 1)
    v = star_samples(m, fp, 3 * _COPIES + 5, seed=5)
    estimators = (
        lambda x: dirac_estimate(m, x, a, fp, 0.5),
        lambda x: laplace_estimate(m, x, a, fp, 0.5),
    )
    # A fault only in the last copy's slot d + 1, which dirac_estimate checks
    # but does not weight.
    nan_last = v.copy()
    nan_last[-1, m.d, 1] = np.nan
    outside_last = v.copy()
    outside_last[-1, m.d] = [0.0, -fp.delta_u]
    # A point outside in the first block and a NaN in the last: one check over
    # all the samples reports the NaN.
    both = v.copy()
    both[0, 0] = [fp.delta_u, 0.0]
    both[-1, 1, 0] = np.nan
    for estimate in estimators:
        with pytest.raises(InvalidArgumentError, match="finite"):
            estimate(nan_last)
        with pytest.raises(OutOfNeighbourhoodError):
            estimate(outside_last)
        with pytest.raises(InvalidArgumentError, match="finite"):
            estimate(both)


def test_estimator_memory_does_not_grow_with_the_copies():
    """Beyond their input, dirac_estimate and laplace_estimate hold a few
    blocks of copies: the same peak (within 64 KiB) at 1e4 and 1e5 copies,
    and under 1 MiB."""
    for kind in ("flat", "sphere"):
        m = make_manifold(kind, 2)
        fp = framed_point(m)
        a = resolve_test_function(m, fp, "dirac", "auto")
        sq = squared_radius_function(m, fp)
        calls = (
            lambda x: dirac_estimate(m, x, a, fp, 0.2),
            lambda x: laplace_estimate(m, x, sq, fp, 0.2),
        )
        for estimate in calls:
            peaks = []
            for n in (10_000, 100_000):
                v = star_samples(m, fp, n, seed=6)
                estimate(v[:10])
                tracemalloc.start()
                try:
                    estimate(v)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] <= peaks[0] + 2**16
            assert peaks[1] < 2**20
