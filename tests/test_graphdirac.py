"""Unit tests for the star weights, the star operator and its bound report.

The dense operator is rebuilt here, from the MatrixMarket export, only to
serve as the independent reference for the closed-form commutator radius.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diraclab import (
    InvalidArgumentError,
    InvalidGraphError,
    NumericFailureError,
    OutOfNeighbourhoodError,
    WeightedGraphDirac,
    assemble_dirac,
    framed_point,
    linear_coordinate_function,
    log_c_d,
    log_coords,
    make_manifold,
    pf_bound_report,
    sample_log_coords,
    star_anchors,
    star_weights,
)


def make_samples(kind="flat", n_copies=5, seed=0):
    m = make_manifold(kind, 2)
    fp = framed_point(m)
    rng = np.random.default_rng(seed)
    slots = m.d + 1
    v = sample_log_coords(m, fp, rng, n_copies * slots)
    return m, fp, v.reshape(n_copies, slots, m.d)


def dense_operator(dirac, path):
    """The (2V, 2V) operator read back from its MatrixMarket export."""
    dirac.export_matrix_market(path)
    lines = path.read_text().splitlines()
    n2 = int(lines[1].split()[0])
    dense = np.zeros((n2, n2), dtype=complex)
    for line in lines[2:]:
        row, col, re, im = line.split()
        dense[int(row) - 1, int(col) - 1] = float(re) + 1j * float(im)
    return dense


def vertex_values(m, fp, samples):
    """Linear observable at the base point, then at every leaf by id."""
    a = linear_coordinate_function(m, fp, 1)
    return a.evaluate(np.vstack([np.zeros(m.d), samples.reshape(-1, m.d)]))


def test_star_graph_validation():
    m, fp, samples = make_samples(n_copies=2)
    for bad in (samples[0], samples[:0], samples[:, :, :1]):
        with pytest.raises(InvalidGraphError):
            assemble_dirac(bad, m, fp, hbar=0.5, sigma=-1)
    with pytest.raises(InvalidGraphError):
        assemble_dirac(np.full_like(samples, np.nan), m, fp, hbar=0.5, sigma=-1)


def test_star_graphs_id_scheme(tmp_path):
    m, fp, samples = make_samples(n_copies=3)
    hbar = 0.5
    dirac = assemble_dirac(samples, m, fp, hbar, sigma=-1)
    n = dirac.n_vertices
    assert n == 1 + 3 * (m.d + 1)
    dense = dense_operator(dirac, tmp_path / "op.mtx")
    anchors = star_anchors(m.d)[0]
    for k in range(3):
        for j in range(m.d + 1):
            gid = 1 + k * (m.d + 1) + j
            w = star_weights(samples[k, j], anchors[j], fp, hbar, -1)
            assert dense[0, n + gid] == 1j * float(w) / hbar


def frame_projected_star(frame):
    """Anchors and weights as first built from an embedding frame: the extra
    anchor is the unit vector opposing the frame-row sum u, projected onto the
    frame; the weights are 1/(d + |u|) and a final |u|/(d + |u|)."""
    d = frame.shape[0]
    u = frame.sum(axis=0)
    norm_u = np.linalg.norm(u)
    lams = np.full(d + 1, 1.0 / (d + norm_u))
    lams[d] = norm_u / (d + norm_u)
    return np.vstack([np.eye(d), frame @ (-u / norm_u)]), lams


def test_star_anchors_match_the_frame_projection():
    rng = np.random.default_rng(8)
    for d in range(1, 8):
        anchors, lams = star_anchors(d)
        for kind in ("flat", "sphere"):
            ref_anchors, ref_lams = frame_projected_star(framed_point(make_manifold(kind, d)).frame)
            assert anchors.tobytes() == ref_anchors.tobytes()
            assert lams.tobytes() == ref_lams.tobytes()
        # Any orthonormal frame gives the same anchors, up to rounding.
        for embedding_dim in (d, d + 1):
            q, _ = np.linalg.qr(rng.standard_normal((embedding_dim, d)))
            ref_anchors, _ = frame_projected_star(q.T)
            assert_allclose(anchors, ref_anchors, rtol=0.0, atol=1e-15)
        assert abs(float(np.sum(lams)) - 1.0) <= 1e-15


def test_vmf_weight_matches_log_normalizer_formula():
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    coords = log_coords(m, fp, np.array([0.3, -0.2]))
    hbar = 0.5
    for j in (1, 2):
        for sigma in (-1, 1):
            got = star_weights(coords, np.eye(2)[j - 1], fp, hbar, sigma)
            ref = math.exp(log_c_d(2, 1.0 / hbar) + sigma * coords[j - 1] / hbar)
            assert got == pytest.approx(ref, rel=1e-12)


def reference_star_weights(logc, anchors, fp, hbar, sigma):
    """star_weights as first written: the neighbourhood check on
    sqrt(einsum) norms."""
    if not np.all(np.sqrt(np.einsum("...d,...d->...", logc, logc)) < fp.delta_u):
        raise OutOfNeighbourhoodError("outside")
    proj = np.einsum("...d,...d->...", logc, anchors)
    return np.exp(log_c_d(fp.d, 1.0 / hbar) + sigma * proj / hbar)


@pytest.mark.parametrize("kind", ["flat", "sphere"])
@pytest.mark.parametrize("d", [2, 3])
def test_star_weights_match_their_former_expression(kind, d):
    m = make_manifold(kind, d)
    fp = framed_point(m)
    rng = np.random.default_rng(21)
    v = sample_log_coords(m, fp, rng, 3000 * (d + 1)).reshape(3000, d + 1, d)
    anchors = star_anchors(m.d)[0]
    for hbar in (1.0, 0.3, 0.02):
        for sigma in (1, -1):
            for x, s in ((v, anchors), (v[:, 0], anchors[0]), (v[5, 1], anchors[1])):
                got = star_weights(x, s, fp, hbar, sigma)
                ref = reference_star_weights(x, s, fp, hbar, sigma)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
    # Rows at and next to the boundary |v| = delta_u.  At d = 2 both checks
    # judge every row alike.  At d = 3 einsum sums the squares in another order
    # than the column-by-column norm, so the two may part only on rows whose
    # norm lies within a few ulps of delta_u.
    dirs = rng.standard_normal((400, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    steps = np.arange(400) % 4 * 2.0**-52 - (np.arange(400) % 5 == 0) * 2.0**-51
    rows = (np.nextafter(fp.delta_u, 0.0) - steps)[:, None] * dirs
    parted = 0
    for row in rows:
        try:
            ref = reference_star_weights(row, anchors[0], fp, 0.5, 1)
        except OutOfNeighbourhoodError:
            ref = None
        try:
            got = star_weights(row, anchors[0], fp, 0.5, 1)
        except OutOfNeighbourhoodError:
            got = None
        if (ref is None) != (got is None):
            parted += 1
            ref_norm = math.sqrt(float(np.einsum("d,d->", row, row)))
            assert abs(ref_norm - fp.delta_u) <= 4 * np.spacing(fp.delta_u)
        elif ref is not None:
            assert got == ref
    assert parted == 0 if d == 2 else parted < len(rows) // 4


def test_star_weights_take_lists_and_integer_arrays_as_floats():
    m = make_manifold("flat", 2)
    fp = framed_point(m, delta_u=4.0)
    coords = [[1, -2], [0, 3], [2, 2]]
    anchors = np.eye(2)[0]
    ref = star_weights(np.array(coords, dtype=float), anchors, fp, 0.5, 1)
    for x in (coords, np.array(coords), np.array(coords, dtype=np.int32)):
        got = star_weights(x, anchors, fp, 0.5, 1)
        assert got.dtype == np.float64
        assert got.tobytes() == ref.tobytes()
    with pytest.raises(OutOfNeighbourhoodError):
        star_weights([[4, 0]], anchors, fp, 0.5, 1)


def test_vmf_weight_extra_slot_uses_lambda_direction():
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    anchors = star_anchors(m.d)[0]
    assert_allclose(anchors[:2], np.eye(2), atol=0.0)
    coords = log_coords(m, fp, np.array([0.1, 0.4]))
    hbar = 0.7
    got = star_weights(coords, anchors[2], fp, hbar, -1)
    proj = -float(np.sum(coords)) / math.sqrt(2.0)
    ref = math.exp(log_c_d(2, 1.0 / hbar) - proj / hbar)
    assert got == pytest.approx(ref, rel=1e-12)


def test_vmf_weight_rejects_point_outside_neighbourhood():
    m, fp, samples = make_samples(n_copies=2)
    outside = log_coords(m, fp, np.array([1.5, 0.0]))
    with pytest.raises(OutOfNeighbourhoodError):
        star_weights(outside, np.eye(2)[0], fp, 0.5, 1)
    samples[1, 2] = [1.5, 0.0]
    with pytest.raises(OutOfNeighbourhoodError):
        assemble_dirac(samples, m, fp, hbar=0.5, sigma=-1)
    inside = log_coords(m, fp, np.array([0.1, 0.0]))
    for hbar, sigma in ((0.0, 1), (math.nan, 1), (0.5, 0)):
        with pytest.raises(InvalidArgumentError):
            star_weights(inside, np.eye(2)[0], fp, hbar, sigma)


def test_assembled_matrix_is_hermitian_and_graded(tmp_path):
    for kind in ("flat", "sphere"):
        m, fp, samples = make_samples(kind)
        dirac = assemble_dirac(samples, m, fp, hbar=0.5, sigma=-1)
        mat = dense_operator(dirac, tmp_path / f"{kind}.mtx")
        n = dirac.n_vertices
        assert mat.shape == (2 * n, 2 * n)
        assert_allclose(mat, mat.conj().T, atol=0.0)
        gamma = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
        assert_allclose(gamma @ mat + mat @ gamma, np.zeros_like(mat), atol=0.0)


def test_assemble_requires_consistent_copies():
    m, fp, samples = make_samples()
    with pytest.raises(InvalidGraphError):
        assemble_dirac(samples[:, :2], m, fp, hbar=0.5, sigma=-1)
    with pytest.raises(InvalidGraphError):
        assemble_dirac(samples.reshape(3, 5, 2), m, fp, hbar=0.5, sigma=-1)


def test_copy_matrix_matches_single_copy_assembly(tmp_path):
    m, fp, samples = make_samples(n_copies=4)
    hbar = 0.4
    union = dense_operator(assemble_dirac(samples, m, fp, hbar, sigma=-1), tmp_path / "all.mtx")
    single = dense_operator(
        assemble_dirac(samples[1:2], m, fp, hbar, sigma=-1), tmp_path / "one.mtx"
    )
    slots = m.d + 1
    n = union.shape[0] // 2
    keep = [0, *range(1 + slots, 1 + 2 * slots)]
    rows = keep + [n + v for v in keep]
    assert_allclose(union[np.ix_(rows, rows)], single, atol=0.0)


def test_matrix_market_round_trip(tmp_path):
    m, fp, samples = make_samples(n_copies=3)
    dirac = assemble_dirac(samples, m, fp, hbar=0.5, sigma=-1)
    path = tmp_path / "op.mtx"
    dense = dense_operator(dirac, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate complex general"
    n2, m2, nnz = (int(tok) for tok in lines[1].split())
    n = dirac.n_vertices
    assert n2 == m2 == 2 * n
    assert nnz == len(lines) - 2 == 2 * dirac.weights.size
    b = np.zeros((n, n))
    b[0, 1:] = dirac.weights
    z = np.zeros_like(b)
    ref = (1j / 0.5) * np.block([[z, b], [-b.T, z]])
    assert_allclose(dense, ref, atol=1e-15)


def former_matrix_market(dirac, path):
    """The writer as it stood before it formatted each value once: one repr
    per block entry, the lower block's from the negated float."""
    n = dirac.n_vertices
    vals = [float(w) / dirac.hbar for w in dirac.weights]
    lines = ["%%MatrixMarket matrix coordinate complex general"]
    lines.append(f"{2 * n} {2 * n} {2 * len(vals)}")
    lines.extend(f"1 {n + g} 0.0 {v!r}" for g, v in enumerate(vals, start=2))
    lines.extend(f"{n + g} 1 0.0 {-v!r}" for g, v in enumerate(vals, start=2))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def test_matrix_market_export_matches_the_former_writer(tmp_path):
    special = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]
    special += [-1.5, -2.2250738585072014e-308, 1.0, 0.1]
    drawn = np.random.default_rng(3).lognormal(0.0, 4.0, 500)
    weights = np.concatenate([special, drawn, -drawn[:50]])
    m, fp, samples = make_samples(n_copies=10_000, seed=7)
    cases = [WeightedGraphDirac(hbar=h, weights=weights) for h in (0.37, 1e-300, 3.0, -0.5)]
    cases.append(WeightedGraphDirac(hbar=1.0, weights=np.array([])))
    cases.append(assemble_dirac(samples, m, fp, 0.05))
    for k, dirac in enumerate(cases):
        got, want = tmp_path / f"new{k}.mtx", tmp_path / f"old{k}.mtx"
        dirac.export_matrix_market(got)
        former_matrix_market(dirac, want)
        assert got.read_bytes() == want.read_bytes()


def test_spectral_radius_pinned_values():
    dirac = WeightedGraphDirac(hbar=0.5, weights=np.array([3.0, 4.0]))
    assert pf_bound_report(dirac, [1.0, 2.0, 2.0], 1.0)["rho"] == 10.0
    assert pf_bound_report(dirac, [0.0, 1.0, -1.0], 1.0)["rho"] == 10.0
    assert pf_bound_report(dirac, [7.0, 7.0, 7.0], 1.0)["rho"] == 0.0


def test_spectral_radius_matches_dense_eigensolver(tmp_path):
    for kind in ("flat", "sphere"):
        m, fp, samples = make_samples(kind)
        vals = vertex_values(m, fp, samples)
        a_full = np.concatenate([vals, vals])
        for hbar in (1.0, 0.3, 0.05):
            dirac = assemble_dirac(samples, m, fp, hbar, sigma=1)
            mat = dense_operator(dirac, tmp_path / "op.mtx")
            comm = mat * a_full[None, :] - a_full[:, None] * mat
            # [D, a] is anti-Hermitian, so -i[D, a] is Hermitian.
            ref = float(np.max(np.abs(np.linalg.eigvalsh(-1j * comm))))
            assert pf_bound_report(dirac, vals, 1.0)["rho"] == pytest.approx(ref, rel=1e-12)


def test_spectral_radius_reports_failure_with_best():
    dirac = WeightedGraphDirac(hbar=1.0, weights=np.array([1e308, 1e308]))
    with np.errstate(over="ignore"), pytest.raises(NumericFailureError) as exc_info:
        pf_bound_report(dirac, [0.0, 10.0, 10.0], 1.0)
    assert exc_info.value.best == math.inf


def test_pf_bound_report_fields():
    m, fp, samples = make_samples()
    dirac = assemble_dirac(samples, m, fp, hbar=0.5, sigma=-1)
    a_values = np.linspace(-1.0, 1.0, dirac.n_vertices)
    report = pf_bound_report(dirac, a_values, grad_sup=2.0)
    assert set(report) == {"hbar", "rho", "grad_sup", "bound_ratio"}
    assert report["hbar"] == 0.5
    assert report["rho"] >= 0.0
    assert report["bound_ratio"] == pytest.approx(report["rho"] / 2.0)
    with pytest.raises(InvalidArgumentError):
        pf_bound_report(dirac, a_values, grad_sup=0.0)
    with pytest.raises(InvalidArgumentError):
        pf_bound_report(dirac, a_values[1:], grad_sup=1.0)
    with pytest.raises(InvalidArgumentError):
        pf_bound_report(dirac, a_values > 0.0, grad_sup=1.0)


def test_pf_commutator_vanishes_for_constant_observable():
    for kind in ("flat", "sphere"):
        m, fp, samples = make_samples(kind)
        dirac = assemble_dirac(samples, m, fp, hbar=0.5, sigma=-1)
        report = pf_bound_report(dirac, np.ones(dirac.n_vertices), grad_sup=1.0)
        assert report["rho"] == 0.0
