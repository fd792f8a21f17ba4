"""Unit tests for the two model manifolds and their samplers."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diraclab import manifold as manifold_module
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


class OnesGenerator:
    """Generator stand-in whose draws are all 1.0: every proposal lands on the
    neighbourhood boundary, where the sphere's acceptance test fails.  It
    counts its uniform draws (calls)."""

    def __init__(self):
        self.uniform_draws = 0

    def standard_normal(self, size=None, out=None):
        return _ones(size, out)

    def random(self, size=None, out=None):
        self.uniform_draws += 1
        return _ones(size, out)


def _ones(size, out):
    if out is None:
        return np.ones(size)
    out[...] = 1.0
    return out


def test_sphere_sampler_exhaustion_raises():
    m = make_manifold("sphere", 2)
    rng = OnesGenerator()
    with pytest.raises(SamplingFailureError):
        sample_uniform_batch(m, framed_point(m), rng, 10)
    # Two uniform draws per round, 512 rounds: the radii, then the 20
    # acceptance uniforms, one block.
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


class CountingRng:
    """A generator that counts the normal and uniform values it serves, drawn
    whole or into a block buffer."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.normals = 0
        self.uniforms = 0

    def standard_normal(self, size=None, out=None):
        got = self.rng.standard_normal(size, out=out)
        self.normals += got.size
        return got

    def random(self, size=None, out=None):
        got = self.rng.random(size, out=out)
        self.uniforms += np.size(got)
        return got


def assert_sampler_keeps_the_stream(m, fp, size, seed):
    """Check the sampler against the reference stream; returns its rounds and
    the proposals it examined."""
    ref_rng = np.random.default_rng(seed)
    ref = reference_sample_uniform_batch(m, fp, ref_rng, size)
    rng = CountingRng(seed)
    v, rounds, proposals = manifold_module._sample_log_coords(m, fp, rng, size)
    assert v.shape == (size, m.d)
    assert np.all(np.linalg.norm(v, axis=1) < fp.delta_u)
    assert np.array_equal(exp_map(m, fp.point, v @ fp.frame), ref)
    # Both consumed the same number of draws: d normals and one radius
    # uniform per proposal, and on the sphere one acceptance uniform.
    assert rng.random() == ref_rng.random()
    per_proposal = 1 if m.kind == "flat" else 2
    assert (rng.uniforms - 1) * m.d == per_proposal * rng.normals
    if m.kind == "flat":
        assert (rounds, proposals) == (1, size)
    else:
        assert size <= proposals <= rng.normals // m.d
    return rounds, proposals


# Sizes around the sampler's block: flat works on size rows, the sphere on
# 2 * size proposals per round.
BLOCK = manifold_module._BLOCK
EDGE_SIZES = (BLOCK // 2 - 1, BLOCK // 2, BLOCK // 2 + 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)


@pytest.mark.parametrize("kind", ["flat", "sphere"])
@pytest.mark.parametrize("d", [2, 3])
def test_log_coordinate_sampler_keeps_the_stream(kind, d, monkeypatch):
    m = make_manifold(kind, d)
    fp = framed_point(m)
    sinc_calls = []
    real_sinc = manifold_module._sinc

    def counting_sinc(r):
        sinc_calls.append(np.size(r))
        return real_sinc(r)

    monkeypatch.setattr(manifold_module, "_sinc", counting_sinc)
    for seed, size in enumerate((1, 65, 3000, 30001, *EDGE_SIZES)):
        sinc_calls.clear()
        rounds, proposals = assert_sampler_keeps_the_stream(m, fp, size, seed)
        if kind == "sphere" and size >= 3000:
            # The squeeze test leaves the density to a band about r**4/120
            # wide (0.3% of the proposals at d = 2, 0.6% at d = 3); the last
            # call, on size values, is exp_map's in the check.
            assert sinc_calls[-1] == size
            assert sum(sinc_calls[:-1]) <= 0.02 * proposals
    assert sample_log_coords(m, fp, np.random.default_rng(0), 0).shape == (0, d)
    if kind == "flat":
        return
    # A wide neighbourhood: acceptance is low (about 0.58 at d = 2, 0.29 at
    # d = 3), so the density runs over several blocks and, at d = 3, rounds
    # exceed one.
    wide = framed_point(m, delta_u=2.5)
    for seed, size in enumerate((1, 65, 3000, 30001, *EDGE_SIZES), start=4):
        sinc_calls.clear()
        rounds, proposals = assert_sampler_keeps_the_stream(m, wide, size, seed)
        assert len(sinc_calls) > rounds
        if size >= 3000:
            assert abs(size / proposals - (0.58 if d == 2 else 0.29)) < 0.02
        if d == 3 and size > 1:
            assert rounds > 1
        if size > BLOCK:
            assert len(sinc_calls) - 1 > rounds


class NearDensityRng:
    """A generator whose acceptance uniforms sit 0 to 2 ulp either side of
    their proposal's density, so that no bound can decide them.

    Normals and radius uniforms are real draws.  Each value is fixed by its
    place in the round (a round starts at the first normal after a uniform):
    of the uniforms after the round's n normals, the first n / d are its
    radius uniforms and the next n / d its acceptance uniforms, the i-th
    derived from the i-th radius uniform and an offset drawn with it.  So the
    values do not depend on how the draws are split into calls, whole or into
    a block buffer, nor on which copy of the generator (``copy.deepcopy``)
    serves them."""

    def __init__(self, seed, m, fp):
        self.rng = np.random.default_rng(seed)
        self.offsets = np.random.default_rng([seed, 1])
        self.m, self.fp = m, fp
        self.normals = 0
        self.accept = []
        self.served = 0

    def standard_normal(self, size=None, out=None):
        if self.served:
            self.normals, self.accept, self.served = 0, [], 0
        got = self.rng.standard_normal(size, out=out)
        self.normals += got.size
        return got

    def random(self, size=None, out=None):
        d = self.m.d
        count = out.size if out is not None else size
        proposals = self.normals // d
        got = np.empty(count)
        fresh = min(count, max(0, proposals - self.served))
        u = self.rng.random(fresh)
        got[:fresh] = u
        dens = np.sinc(self.fp.delta_u * u ** (1.0 / d) / math.pi) ** (d - 1)
        up, down = np.nextafter(dens, 2.0), np.nextafter(dens, -1.0)
        near = np.stack([np.nextafter(down, -1.0), down, dens, up, np.nextafter(up, 2.0)])
        pick = self.offsets.integers(0, near.shape[0], fresh)
        self.accept.extend(near[pick, np.arange(fresh)])
        at = self.served + fresh - proposals
        got[fresh:] = self.accept[at : at + count - fresh]
        self.served += count
        if out is None:
            return got
        out[...] = got
        return out


@pytest.mark.parametrize("d", [2, 3])
def test_sampler_decides_near_ties_by_the_exact_density(d, monkeypatch):
    m = make_manifold("sphere", d)
    fp = framed_point(m)
    evaluated = []
    real_sinc = manifold_module._sinc

    def counting_sinc(r):
        evaluated.append(np.size(r))
        return real_sinc(r)

    for seed, size in enumerate((1, 65, 3000, BLOCK + 1)):
        ref = reference_sample_uniform_batch(m, fp, NearDensityRng(seed, m, fp), size)
        evaluated.clear()
        monkeypatch.setattr(manifold_module, "_sinc", counting_sinc)
        v, rounds, proposals = manifold_module._sample_log_coords(
            m, fp, NearDensityRng(seed, m, fp), size
        )
        monkeypatch.undo()
        assert np.array_equal(exp_map(m, fp.point, v @ fp.frame), ref)
        # Every proposal up to the last one kept reached the exact density.
        assert sum(evaluated) >= proposals


@pytest.mark.parametrize("d", [2, 3])
def test_sampler_memory_stays_near_its_output(d):
    """Both samplers hold their result and a few blocks, however many
    proposals they drop: the sphere draws each round's first directions into
    the result and redraws the rest, and its radius uniforms, a block at a
    time from copies of the generator.  The wide sphere neighbourhood takes
    several rounds at d = 3."""
    size = 300_000
    for kind, delta_u in (("flat", None), ("sphere", None), ("sphere", 2.5)):
        m = make_manifold(kind, d)
        fp = framed_point(m, delta_u=delta_u)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            out = sample_log_coords(m, fp, rng, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2**20


@pytest.mark.parametrize("kind", ["flat", "sphere"])
def test_exp_axis_is_a_column_of_exp_map(kind):
    m = make_manifold(kind, 2)
    fp = framed_point(m)
    v = sample_log_coords(m, fp, np.random.default_rng(8), 500).reshape(100, 5, 2)
    full = exp_map(m, fp.point, v @ fp.frame)
    for axis in range(m.embedding_dim):
        assert np.array_equal(exp_axis(m, fp, v, axis), full[..., axis])


def reference_exp_axis(m, fp, v, axis):
    """exp_axis as first written: the projection as one stacked matvec,
    norms by np.sum, sinc by np.sinc."""
    v = np.asarray(v, dtype=float)
    along = v @ fp.frame[:, axis]
    if m.kind == "flat":
        return fp.point[axis] + along
    r = np.sqrt(np.sum(v * v, axis=-1))
    return np.cos(r) * fp.point[axis] + np.sinc(r / math.pi) * along


@pytest.mark.parametrize("kind", ["flat", "sphere"])
@pytest.mark.parametrize("d", [2, 3])
def test_exp_axis_matches_its_stacked_matvec_form(kind, d):
    m = make_manifold(kind, d)
    fp = framed_point(m)
    v = sample_log_coords(m, fp, np.random.default_rng(11), 600 * (d + 1))
    v = v.reshape(600, d + 1, d)
    for axis in range(m.embedding_dim):
        for x in (v, v[:, :d], v[7, 1], np.zeros(d)):
            got = np.asarray(exp_axis(m, fp, x, axis))
            ref = np.asarray(reference_exp_axis(m, fp, x, axis))
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", ["flat", "sphere"])
@pytest.mark.parametrize("d", [2, 3])
def test_exp_axis_on_a_rotated_frame_is_a_column_of_exp_map(kind, d):
    # Off the default point and frame, exp_axis takes r = |v| where exp_map
    # takes the norm of the embedded tangent, so the two round differently.
    m = make_manifold(kind, d)
    rng = np.random.default_rng(12)
    p = rng.standard_normal(m.embedding_dim)
    if kind == "sphere":
        p /= np.linalg.norm(p)
    basis = default_frame(m, p)
    rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
    fp = framed_point(m, point=p, frame=rot @ basis)
    v = sample_log_coords(m, fp, rng, 2000 * (d + 1)).reshape(2000, d + 1, d)
    full = exp_map(m, fp.point, v @ fp.frame)
    scale = max(1.0, float(np.max(np.abs(full))))
    for axis in range(m.embedding_dim):
        err = np.max(np.abs(exp_axis(m, fp, v, axis) - full[..., axis]))
        assert err <= 1e-12 * scale


def test_sinc_helper_is_np_sinc_bit_for_bit():
    rng = np.random.default_rng(13)
    r = np.concatenate(
        [
            [0.0, -0.0, 5e-324, 1e-300, 1e-20, 1e-8, math.pi, -math.pi, 1e300],
            [math.inf, -math.inf, math.nan],
            rng.uniform(-10.0, 10.0, 20000),
            rng.uniform(0.0, 1e-6, 1000),
        ]
    )
    with np.errstate(invalid="ignore"):
        ref = np.sinc(r / math.pi)
        work = r.copy()
        got = manifold_module._sinc(work)
    assert got.tobytes() == ref.tobytes()
    assert work.tobytes() == r.tobytes()
    for x in (0.0, 0.5, np.float64(2.0)):
        assert np.asarray(manifold_module._sinc(x)).tobytes() == np.sinc(x / math.pi).tobytes()
    shaped = rng.uniform(0.0, 3.0, (4, 5))
    assert manifold_module._sinc(shaped).tobytes() == np.sinc(shaped / math.pi).tobytes()


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
