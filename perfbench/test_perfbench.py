"""Tests of the benchmark's own logic: self-time arithmetic and tracer hygiene."""

from __future__ import annotations

import numpy as np

import diraclab
import layers
import tracing
from diraclab import graphdirac, manifold
from diraclab.liealg import TensorElement


def test_self_times_subtract_direct_children_only():
    # root [0, 100) > a [10, 40) > a1 [15, 25); root > b [50, 90)
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    own = tracing.self_times(starts, ends, parents)
    assert own.tolist() == [30, 20, 10, 40]
    assert int(own.sum()) == 100


def test_layer_of_names_the_module():
    assert tracing.layer_of("liealg.TensorElement.mul") == "liealg"
    assert tracing.layer_of(tracing.ROOT) == "bench"


def _traced_calls(tracer):
    root = tracer.open(tracing.ROOT)
    m = manifold.make_manifold("sphere", 2)
    fp = manifold.framed_point(m)
    pts = manifold.sample_uniform_batch(m, fp, np.random.default_rng(0), 12)
    manifold.log_coords(m, fp, pts)
    el = TensorElement(1, {((1, 2),): np.eye(2)})
    el.mul(TensorElement(1, {(): np.eye(2)}))
    tracer.close(root)


def test_tracer_records_nested_spans_and_work_units():
    tracer = tracing.Tracer()
    with tracer:
        _traced_calls(tracer)
    names = tracer.names
    assert names[0] == tracing.ROOT
    log = names.index("manifold.log_coords")
    child = names.index("manifold.log_map", log)
    assert tracer.parents[child] == log
    sample = names.index("manifold.sample_uniform_batch")
    assert (tracer.units[sample], tracer.tags[sample]) == (12, "sphere")
    assert tracer.units[log] == 12
    assert "liealg.TensorElement.mul" in names


def test_per_layer_self_times_add_up_to_the_traced_pass():
    tracer = tracing.Tracer()
    with tracer:
        _traced_calls(tracer)
    passes = [(1.0, {})]
    metrics, sums_ok = layers.per_layer([tracer], passes, passes)
    assert sums_ok
    parts = ["cli.main.self_ms", "bench.self_ms"] + [f"{l}.self_ms" for l in layers.LAYER_SELF]
    total_ms = sum(metrics[p][0] for p in parts)
    assert abs(total_ms - 1e3 * metrics["trace.pass_s"][0]) < 1e-6
    assert metrics["manifold.points_sampled"][0] == 12
    assert metrics["liealg.mul.calls"][0] == 1
    assert metrics["graphdirac.pf_bound_report.ms_per_hbar"][0] == 0.0


def test_uninstall_leaves_no_wrapper_on_the_package():
    originals = (
        manifold.log_coords,
        graphdirac.log_coords,
        diraclab.log_coords,
        TensorElement.__dict__["mul"],
        diraclab.Multivector.__dict__["basis_vector"],
    )
    tracer = tracing.Tracer()
    with tracer:
        assert graphdirac.log_coords is manifold.log_coords
        assert diraclab.log_coords is manifold.log_coords
        assert manifold.log_coords is not originals[0]
        assert tracing.installed_wrappers()
    assert tracing.installed_wrappers() == []
    assert (
        manifold.log_coords,
        graphdirac.log_coords,
        diraclab.log_coords,
        TensorElement.__dict__["mul"],
        diraclab.Multivector.__dict__["basis_vector"],
    ) == originals
