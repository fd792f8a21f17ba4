"""Unit tests for test functions, column estimators, and the run harness."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from diraclab import (
    InvalidArgumentError,
    OutOfNeighbourhoodError,
    RunConfig,
    TensorElement,
    anchor_rows,
    convergence_run,
    dirac_estimate,
    dirac_expectation_oracle,
    embedding_coordinate_function,
    exp_map,
    framed_point,
    hbar_schedule,
    hoeffding_bound,
    laplace_estimate,
    laplace_expectation_oracle,
    laplace_lambda,
    linear_coordinate_function,
    log_coords,
    make_manifold,
    neighbourhood_volume,
    polynomial_family,
    psi_map_to_clifford,
    resolve_test_function,
    s_jn,
    sample_log_coords,
    squared_radius_function,
    star_weights,
    validate_test_function,
)
from diraclab.estimators import CSV_COLUMNS, table_texts
from diraclab.liealg import MAT_Y


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


def test_hoeffding_bound_saturates_to_zero():
    # Large deviations at moderate n push the log-space exponent past the
    # overflow guard on both evaluation branches.
    assert hoeffding_bound(100, 0.1, 0.25, 3) == 0.0


def test_hoeffding_bound_decreases_with_n():
    vals = [hoeffding_bound(n, 0.05, 0.45, 2) for n in (10, 20, 40, 80)]
    assert all(v > 0.0 for v in vals[:1])
    assert all(vals[k + 1] <= vals[k] for k in range(len(vals) - 1))
    assert all(0.0 <= v <= 2.0 for v in vals)


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
    w = star_weights(samples, anchor_rows(fp, laplace_lambda(fp.frame)), fp, hbar, 1)
    coeff = (w * (a.evaluate(samples) - a.evaluate(np.zeros(2)))).mean(axis=0)
    terms = {((1, 2 + slot),): (1j / hbar) * coeff[slot] * MAT_Y for slot in range(3)}
    mv, factor = psi_map_to_clifford(TensorElement(2, terms), 2, hbar)
    assert factor == 1j / hbar
    assert mv.grade_part(1).approx_equal(mv)
    word = mv.scale(neighbourhood_volume(m, fp) / hbar)
    for j in (1, 2):
        col = s_jn(m, samples[:, j - 1, :], a, fp, j, hbar)
        assert est[j - 1] == pytest.approx(col, abs=1e-12)
        assert word.component(1 << (j - 1)) == pytest.approx(col, abs=1e-12)


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


def test_oracles_require_two_dimensions():
    m = make_manifold("flat", 3)
    fp = framed_point(m)
    a = linear_coordinate_function(m, fp, 1)
    with pytest.raises(InvalidArgumentError):
        dirac_expectation_oracle(m, a, fp, 1, 0.5)


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
    RunConfig(n_grid=())


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
    assert report.wall_time_s is None or report.wall_time_s >= 0.0


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
    report = convergence_run(small_config(family_check=True))
    assert len(report.family_rows) == 2
    for row in report.family_rows:
        assert row["sup_fluctuation_mean"] >= 0.0
        assert row["sup_fluctuation_max"] >= row["sup_fluctuation_mean"] - 1e-15


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
    lam = laplace_lambda(fp.frame)
    w = star_weights(logc, anchor_rows(fp, lam), fp, hbar, sigma)
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
    terms = w * np.sum(logc * logc, axis=-1) * lam.lams
    got = laplace_estimate(m, v, sq, fp, hbar, sigma)
    assert_close_to_sum(got, pre / hbar * np.sum(terms), pre / hbar * np.sum(np.abs(terms)))

    # The family check: one weight computation shared by ten polynomials.
    family = polynomial_family(m, fp)
    rows = dirac_estimate(m, v, family, fp, hbar, sigma)
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
