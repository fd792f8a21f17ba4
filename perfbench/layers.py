"""Per-layer metrics derived from the spans of the traced passes.

Rates (``ns_per_point``, ``us_per_call``, ...) divide a function's inclusive
span time (its own work plus the calls it makes) by its calls or by the work
counted at its boundary.  ``self_ms`` metrics are self time (span minus the
spans it encloses) summed per pass; the layers' self times and the
benchmark's own (``bench.self_ms``) add up to ``trace.pass_s``.  Counts and
totals are per traced pass.  A function the workload never calls reports 0.
"""

from __future__ import annotations

import statistics
from collections import Counter

import numpy as np

import tracing

SAMPLE = "manifold.sample_uniform_batch"
ORACLES = ("estimators.dirac_expectation_oracle", "estimators.laplace_expectation_oracle")
QUADRATURE_USERS = ORACLES + ("specfun.lemma_abc", "specfun.vmf_moments")
RADIAL = "specfun.QuadratureRule.radial_nodes"
PROTOCOLS = ("dirac-flat", "dirac-sphere", "laplace-flat")

NS_PER = {"us": 1e3, "ms": 1e6}
# metric name -> (span names, unit) for inclusive time per call
PER_CALL = {
    "estimators.oracle.ms_per_call": (ORACLES, "ms"),
    "specfun.lemma_abc.ms_per_call": (("specfun.lemma_abc",), "ms"),
    "specfun.vmf_moments.ms_per_call": (("specfun.vmf_moments",), "ms"),
    "liealg.mul.us_per_call": (("liealg.TensorElement.mul",), "us"),
    "liealg.psi_reduce.us_per_call": (("liealg.psi_reduce",), "us"),
    "liealg.double_commutator_closed_form.us_per_call": (
        ("liealg.double_commutator_closed_form",), "us"),
    "liealg.commutator_closed_form.us_per_call": (("liealg.commutator_closed_form",), "us"),
    "liealg.laplacian_closed_form.us_per_call": (("liealg.laplacian_closed_form",), "us"),
    "liealg.build_w.us_per_call": (("liealg.build_w",), "us"),
    "liealg.dirac_from_w.us_per_call": (("liealg.dirac_from_w",), "us"),
    "liealg.realize_commutator_edges.us_per_call": (("liealg.realize_commutator_edges",), "us"),
    "liealg.commutator_concrete.us_per_call": (("liealg.commutator_concrete",), "us"),
    "clifford.mv_mul.us_per_call": (("clifford.mv_mul",), "us"),
    "graphdirac.assemble_dirac.ms_per_hbar": (("graphdirac.assemble_dirac",), "ms"),
    "graphdirac.pf_bound_report.ms_per_hbar": (("graphdirac.pf_bound_report",), "ms"),
    "graphdirac.spectral_radius.ms_per_hbar": (("graphdirac.spectral_radius",), "ms"),
    "graphdirac.matrix.ms_per_hbar": (("graphdirac.WeightedGraphDirac.matrix",), "ms"),
    "graphdirac.export_matrix_market.ms_per_file": (
        ("graphdirac.WeightedGraphDirac.export_matrix_market",), "ms"),
}
# metric name -> (span name, tag or None) for inclusive ns per unit of work
PER_UNIT = {
    "manifold.sample_uniform_batch.ns_per_point.flat": (SAMPLE, "flat"),
    "manifold.sample_uniform_batch.ns_per_point.sphere": (SAMPLE, "sphere"),
    "manifold.log_coords.ns_per_point": ("manifold.log_coords", None),
    "manifold.exp_map.ns_per_point": ("manifold.exp_map", None),
    "manifold.log_map.ns_per_point": ("manifold.log_map", None),
    "estimators.dirac_estimate.ns_per_copy": ("estimators.dirac_estimate", None),
    "estimators.laplace_estimate.ns_per_copy": ("estimators.laplace_estimate", None),
}
# metric name -> span names whose calls are counted per pass
CALLS = {
    "manifold.log_coords.calls": ("manifold.log_coords",),
    "estimators.oracle.calls": ORACLES,
    "specfun.log_c_d.calls": ("specfun.log_c_d",),
    "liealg.mul.calls": ("liealg.TensorElement.mul",),
    "liealg.psi_map_to_clifford.calls": ("liealg.psi_map_to_clifford",),
    "clifford.mv_mul.calls": ("clifford.mv_mul",),
}
LAYER_SELF = ("manifold", "estimators", "specfun", "liealg", "clifford", "graphdirac")


class Totals:
    """Call counts, inclusive and self nanoseconds and work units, by span name."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.own: Counter = Counter()
        self.units: Counter = Counter()
        self.layer_own: Counter = Counter()
        self.quadrature_levels = 0
        self.root_ns = 0
        self.passes = 0
        self.sums_ok = True

    def add(self, tr: "tracing.Tracer") -> None:
        dur = np.asarray(tr.ends, dtype=np.int64) - np.asarray(tr.starts, dtype=np.int64)
        own = tracing.self_times(tr.starts, tr.ends, tr.parents)
        roots = [i for i, p in enumerate(tr.parents) if p < 0]
        self.sums_ok &= roots == [0] and tr.names[0] == tracing.ROOT
        self.sums_ok &= int(own.sum()) == int(dur[0])
        for i, name in enumerate(tr.names):
            keys = (name, (name, tr.tags[i])) if tr.tags[i] else (name,)
            for key in keys:
                self.calls[key] += 1
                self.incl[key] += int(dur[i])
                self.own[key] += int(own[i])
                self.units[key] += tr.units[i]
            self.layer_own[tracing.layer_of(name)] += int(own[i])
            if name == RADIAL and tracing.ancestors_match(tr.parents, tr.names, i, QUADRATURE_USERS):
                self.quadrature_levels += 1
        self.root_ns += int(dur[0])
        self.passes += 1


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracers, untraced, traced) -> tuple[dict, bool]:
    """Metrics {name: (value, unit)} and whether every pass's self times add up.

    ``untraced`` and ``traced`` are (seconds, {step: seconds}) per pass.
    """
    t = Totals()
    for tr in tracers:
        t.add(tr)
    k = t.passes
    m = {}
    for name, (spans, unit) in PER_CALL.items():
        calls = sum(t.calls[s] for s in spans)
        m[name] = (_ratio(sum(t.incl[s] for s in spans), calls) / NS_PER[unit], unit)
    for name, (span, tag) in PER_UNIT.items():
        key = (span, tag) if tag else span
        m[name] = (_ratio(t.incl[key], t.units[key]), "ns")
    for name, spans in CALLS.items():
        m[name] = (sum(t.calls[s] for s in spans) / k, "count")
    m["manifold.points_sampled"] = (t.units[SAMPLE] / k, "count")
    m["specfun.quadrature.levels_per_call"] = (
        _ratio(t.quadrature_levels, sum(t.calls[s] for s in QUADRATURE_USERS)), "count")
    m["estimators.convergence_run.self_ms"] = (t.own["estimators.convergence_run"] / k / 1e6, "ms")
    m["graphdirac.star_graphs_from_samples.ms"] = (
        t.incl["graphdirac.star_graphs_from_samples"] / k / 1e6, "ms")
    m["graphdirac.export_matrix_market.bytes_per_file"] = (
        _ratio(t.units["graphdirac.WeightedGraphDirac.export_matrix_market"],
               t.calls["graphdirac.WeightedGraphDirac.export_matrix_market"]), "bytes")
    m["cli.main.self_ms"] = (t.layer_own["cli"] / k / 1e6, "ms")
    for layer in LAYER_SELF:
        m[f"{layer}.self_ms"] = (t.layer_own[layer] / k / 1e6, "ms")
    m["bench.self_ms"] = (t.layer_own["bench"] / k / 1e6, "ms")
    m["trace.pass_s"] = (t.root_ns / k / 1e9, "s")
    m["trace.overhead_s"] = (
        statistics.fmean(s for s, _ in traced) - statistics.fmean(s for s, _ in untraced), "s")
    for label in PROTOCOLS:
        times = [steps[label] for _, steps in untraced if label in steps]
        m[f"protocol_s.{label}"] = (statistics.median(times) if times else 0.0, "s")
    return m, t.sums_ok
