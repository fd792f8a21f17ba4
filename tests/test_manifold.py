"""Unit tests for the two model manifolds and their samplers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diraclab import (
    InvalidArgumentError,
    OutOfInjectivityError,
    SamplingFailureError,
    default_base_point,
    default_frame,
    exp_map,
    framed_point,
    jacobi_expansion_check,
    log_coords,
    log_map,
    make_manifold,
    exp_axis,
    neighbourhood_volume,
    sample_log_coords,
    sample_uniform,
    sample_uniform_batch,
    vol_density,
)


@pytest.fixture(params=["flat", "sphere"])
def manifold(request):
    return make_manifold(request.param, 2)


def tangent_at(m, rng, p):
    frame = default_frame(m, p)
    coeff = rng.normal(size=m.d)
    return coeff @ frame


def test_make_manifold_validation():
    with pytest.raises(InvalidArgumentError):
        make_manifold("torus", 2)
    with pytest.raises(InvalidArgumentError):
        make_manifold("flat", 0)


def test_embedding_dim_and_injectivity():
    flat = make_manifold("flat", 3)
    sphere = make_manifold("sphere", 3)
    assert flat.embedding_dim == 3
    assert sphere.embedding_dim == 4
    assert flat.injectivity_radius == math.inf
    assert sphere.injectivity_radius == math.pi


def test_default_frame_is_orthonormal_tangent(manifold):
    p = default_base_point(manifold)
    frame = default_frame(manifold, p)
    assert frame.shape == (manifold.d, manifold.embedding_dim)
    assert_allclose(frame @ frame.T, np.eye(manifold.d), atol=1e-12)
    if manifold.kind == "sphere":
        assert_allclose(frame @ p, np.zeros(manifold.d), atol=1e-12)


def test_sphere_frame_away_from_pole():
    m = make_manifold("sphere", 2)
    p = np.array([1.0, 0.0, 0.0])
    frame = default_frame(m, p)
    assert_allclose(frame @ frame.T, np.eye(2), atol=1e-12)
    assert_allclose(frame @ p, np.zeros(2), atol=1e-12)


def test_exp_log_round_trip(manifold):
    rng = np.random.default_rng(2)
    p = default_base_point(manifold)
    worst = 0.0
    for _ in range(50):
        v = tangent_at(manifold, rng, p)
        v *= rng.uniform(0.05, 0.95 * min(manifold.injectivity_radius, 3.0)) / np.linalg.norm(v)
        q = exp_map(manifold, p, v)
        back = log_map(manifold, p, q)
        worst = max(worst, float(np.max(np.abs(back - v))))
    assert worst <= 1e-10


def test_sphere_exp_stays_on_sphere():
    m = make_manifold("sphere", 2)
    rng = np.random.default_rng(3)
    p = default_base_point(m)
    for _ in range(20):
        v = tangent_at(m, rng, p)
        v *= rng.uniform(0.1, 3.0) / np.linalg.norm(v)
        q = exp_map(m, p, v)
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-12


def test_exp_rejects_radius_beyond_injectivity():
    m = make_manifold("sphere", 2)
    p = default_base_point(m)
    v = np.array([math.pi + 0.01, 0.0, 0.0])
    with pytest.raises(OutOfInjectivityError):
        exp_map(m, p, v)


def test_log_rejects_antipode():
    m = make_manifold("sphere", 2)
    p = default_base_point(m)
    with pytest.raises(OutOfInjectivityError):
        log_map(m, p, -p)


def test_log_rejects_off_sphere_point():
    m = make_manifold("sphere", 2)
    p = default_base_point(m)
    with pytest.raises(InvalidArgumentError):
        log_map(m, p, np.array([0.0, 0.0, 1.5]))


def test_vol_density_flat_is_one():
    m = make_manifold("flat", 2)
    p = default_base_point(m)
    v = np.array([0.3, -0.4])
    assert vol_density(m, p, v) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_vol_density_sphere_closed_form(d):
    m = make_manifold("sphere", d)
    p = default_base_point(m)
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = tangent_at(m, rng, p)
        r = rng.uniform(0.05, 3.0)
        v *= r / np.linalg.norm(v)
        ref = (math.sin(r) / r) ** (d - 1)
        assert vol_density(m, p, v) == pytest.approx(ref, rel=1e-10)


def test_framed_point_defaults(manifold):
    fp = framed_point(manifold)
    assert fp.d == manifold.d
    assert fp.delta_u == pytest.approx(1.0)
    assert_allclose(fp.frame @ fp.frame.T, np.eye(manifold.d), atol=1e-12)


def test_framed_point_validation():
    m = make_manifold("sphere", 2)
    p = default_base_point(m)
    frame = default_frame(m, p)
    with pytest.raises(InvalidArgumentError):
        framed_point(m, point=np.array([0.0, 0.0, 2.0]))
    with pytest.raises(InvalidArgumentError):
        framed_point(m, point=p, frame=2.0 * frame)
    with pytest.raises(InvalidArgumentError):
        framed_point(m, point=p, frame=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(InvalidArgumentError):
        framed_point(m, delta_u=4.0)
    with pytest.raises(InvalidArgumentError):
        framed_point(m, delta_u=0.0)


def test_log_coords_inverts_frame_coordinates(manifold):
    rng = np.random.default_rng(11)
    fp = framed_point(manifold)
    for _ in range(20):
        coords = rng.uniform(-0.5, 0.5, size=manifold.d)
        q = exp_map(manifold, fp.point, coords @ fp.frame)
        assert_allclose(log_coords(manifold, fp, q), coords, atol=1e-12)


def test_neighbourhood_volume_closed_forms():
    flat = make_manifold("flat", 2)
    assert neighbourhood_volume(flat, framed_point(flat)) == pytest.approx(math.pi, rel=1e-12)
    sphere = make_manifold("sphere", 2)
    ref = 2.0 * math.pi * (1.0 - math.cos(1.0))
    assert neighbourhood_volume(sphere, framed_point(sphere)) == pytest.approx(ref, rel=1e-10)


def test_neighbourhood_volume_sphere_quadrature_path():
    # d=3 has no two-dimensional shortcut; integral vs an independent
    # Simpson evaluation of the cap volume.
    m = make_manifold("sphere", 3)
    fp = framed_point(m)
    got = neighbourhood_volume(m, fp)
    r = np.linspace(0.0, fp.delta_u, 20001)
    shell = 4.0 * math.pi * np.sin(r) ** 2
    ref = float(np.trapezoid(shell, r))
    assert got == pytest.approx(ref, rel=1e-8)


def test_sample_batch_shape_and_support(manifold):
    rng = np.random.default_rng(13)
    fp = framed_point(manifold)
    pts = sample_uniform_batch(manifold, fp, rng, 500)
    assert pts.shape == (500, manifold.embedding_dim)
    radii = np.linalg.norm(
        np.stack([log_coords(manifold, fp, q) for q in pts]), axis=1
    )
    assert np.all(radii <= fp.delta_u + 1e-12)
    if manifold.kind == "sphere":
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-12


def test_sample_single_matches_batch_stream(manifold):
    fp = framed_point(manifold)
    one = sample_uniform(manifold, fp, np.random.default_rng(99))
    first = sample_uniform_batch(manifold, fp, np.random.default_rng(99), 1)[0]
    assert_allclose(one, first)


class OnesGenerator:
    """Generator stand-in whose uniform draws are all 1.0: every proposal lands
    on the neighbourhood boundary, where the sphere's acceptance test fails."""

    def __init__(self):
        self.uniform_draws = 0

    def standard_normal(self, shape):
        return np.ones(shape)

    def random(self, size):
        self.uniform_draws += 1
        return np.ones(size)


def test_sphere_sampler_exhaustion_raises():
    m = make_manifold("sphere", 2)
    rng = OnesGenerator()
    with pytest.raises(SamplingFailureError):
        sample_uniform_batch(m, framed_point(m), rng, 10)
    # Two uniform draws (radius, acceptance) per round, 512 rounds.
    assert rng.uniform_draws == 2 * 512
    rng = OnesGenerator()
    with pytest.raises(SamplingFailureError):
        sample_log_coords(m, framed_point(m), rng, 10)
    assert rng.uniform_draws == 2 * 512
    with pytest.raises(InvalidArgumentError):
        sample_log_coords(m, framed_point(m), np.random.default_rng(0), -1)


def reference_sample_uniform_batch(m, fp, rng, size):
    """The embedded-points sampler as it stood before sampling moved to log
    coordinates: normalize, scale and accept on every proposal, then map each
    point through exp_map (norms by np.sum).  It defines the stream."""
    d = m.d
    out = np.empty((size, d))
    filled = 0
    while filled < size:
        want = size - filled
        draw = max(2 * want, 64)
        dirs = rng.standard_normal((draw, d))
        dirs /= np.maximum(np.sqrt(np.sum(dirs * dirs, axis=-1)), 1e-300)[:, None]
        radii = fp.delta_u * rng.random(draw) ** (1.0 / d)
        v = radii[:, None] * dirs
        if m.kind == "flat":
            got = v[:want]
        else:
            accept = rng.random(draw) < np.sinc(radii / math.pi) ** (d - 1)
            got = v[accept][:want]
        out[filled : filled + got.shape[0]] = got
        filled += got.shape[0]
    tangent = out @ fp.frame
    if m.kind == "flat":
        return fp.point + tangent
    r = np.sqrt(np.sum(tangent * tangent, axis=-1))
    return np.cos(r)[..., None] * fp.point + np.sinc(r / math.pi)[..., None] * tangent


@pytest.mark.parametrize("kind", ["flat", "sphere"])
@pytest.mark.parametrize("d", [2, 3])
def test_log_coordinate_sampler_keeps_the_stream(kind, d):
    m = make_manifold(kind, d)
    fp = framed_point(m)
    for size, seed in ((1, 0), (65, 1), (3000, 2), (30001, 3)):
        ref_rng = np.random.default_rng(seed)
        ref = reference_sample_uniform_batch(m, fp, ref_rng, size)
        rng = np.random.default_rng(seed)
        v = sample_log_coords(m, fp, rng, size)
        assert v.shape == (size, d)
        assert np.all(np.linalg.norm(v, axis=1) < fp.delta_u)
        assert np.array_equal(exp_map(m, fp.point, v @ fp.frame), ref)
        # Both consumed the same number of draws.
        assert rng.random() == ref_rng.random()
    assert sample_log_coords(m, fp, np.random.default_rng(0), 0).shape == (0, d)


@pytest.mark.parametrize("kind", ["flat", "sphere"])
def test_exp_axis_is_a_column_of_exp_map(kind):
    m = make_manifold(kind, 2)
    fp = framed_point(m)
    v = sample_log_coords(m, fp, np.random.default_rng(8), 500).reshape(100, 5, 2)
    full = exp_map(m, fp.point, v @ fp.frame)
    for axis in range(m.embedding_dim):
        assert np.array_equal(exp_axis(m, fp, v, axis), full[..., axis])


def test_flat_sampler_second_moment():
    # Uniform on the unit disk has E r^2 = 1/2.
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    rng = np.random.default_rng(20260816)
    pts = sample_uniform_batch(m, fp, rng, 40000)
    r2 = np.sum(pts**2, axis=1)
    assert np.mean(r2) == pytest.approx(0.5, abs=0.01)


def test_sphere_sampler_prefers_outer_shells_less():
    # The sphere density (sin r / r) penalizes large radii relative to the
    # flat cone r dr, so the empirical mean radius drops below the flat one.
    flat = make_manifold("flat", 2)
    sphere = make_manifold("sphere", 2)
    rng_a = np.random.default_rng(1)
    rng_b = np.random.default_rng(1)
    r_flat = np.linalg.norm(
        sample_uniform_batch(flat, framed_point(flat), rng_a, 30000), axis=1
    )
    pts = sample_uniform_batch(sphere, framed_point(sphere), rng_b, 30000)
    r_sphere = np.arccos(np.clip(pts[:, -1], -1.0, 1.0))
    assert np.mean(r_sphere) < np.mean(r_flat) - 0.005


def test_jacobi_flat_residual_is_zero():
    m = make_manifold("flat", 2)
    p = default_base_point(m)
    report = jacobi_expansion_check(m, p, np.array([1.0, 0.0]), (0.4, 0.2, 0.1))
    for row in report.rows:
        assert abs(row["residual"]) <= 1e-10
    assert report.grad_density_norm <= 1e-9


def test_jacobi_sphere_residual_shrinks_quadratically():
    m = make_manifold("sphere", 2)
    p = default_base_point(m)
    w = np.array([1.0, 0.0, 0.0])
    report = jacobi_expansion_check(m, p, w, (0.4, 0.2, 0.1, 0.05))
    ratios = [row["residual_over_t2"] for row in report.rows]
    assert all(abs(r) > 0 for r in ratios)
    assert all(abs(ratios[k + 1]) < abs(ratios[k]) for k in range(len(ratios) - 1))
    assert report.grad_density_norm <= 1e-9


def test_jacobi_rejects_non_unit_direction():
    m = make_manifold("flat", 2)
    with pytest.raises(InvalidArgumentError):
        jacobi_expansion_check(m, default_base_point(m), np.array([2.0, 0.0]), (0.1,))
