"""Time the Monte Carlo layers alone, one call at a time, at an MC-run size.

    python3 tools/layer_timings.py [--src DIR]

Imports the package from ``--src`` (default: the ``src`` directory of this
checkout), holds BLAS to one thread, and prints one JSON object of medians
and quartiles over 31 calls at 1e5 star copies, in ns per sample point (a
star copy holds d + 1 = 3 points at d = 2):

- ``sampler.{flat,sphere}``: ``sample_log_coords`` for copies * 3 points;
- ``weights_reduction.{flat,sphere}``: ``dirac_estimate`` on those points
  (star weights, test-function values, weighted mean) for the default test
  function of each manifold (``linear-x1`` flat, ``embedding-x1`` sphere);
- ``laplace.flat``: ``laplace_estimate`` on squared radius;
- ``export.matrix_market``: ``WeightedGraphDirac.export_matrix_market`` of a
  star of 1e4 flat copies (``assemble_dirac`` at hbar = 0.2), written into a
  temporary directory, in ns per written entry (two per leaf).

These rows carry their own unit:

- ``specfun.log_c_d``: ``log_c_d(2, 10.0)``, in us per scalar call (each
  sample times 1000 calls);
- ``estimators.oracle.{flat,sphere,flat_d3}``: ``dirac_expectation_oracle``
  of the manifold's default test function, component 1, at hbar = 1e4**-0.2
  (flat and sphere at d = 2, flat at d = 3), in ms per call;
- ``specfun.vmf_moments``: ``vmf_moments(3, e_3, 0.1)``, in ms per call;
- ``specfun.bessel_i_scaled``: ``bessel_i_scaled(0.5, x)`` on the 384
  Gauss-Legendre nodes (the radial ladder's level 3) scaled to [0, 10], in ns
  per value;
- ``liealg.psi_reduce``: ``psi_reduce`` on the 100 double commutators of a
  default ``algebra-check``, in us per call;
- ``liealg.double_commutator``: ``double_commutator_closed_form`` on those 100
  instances, in us per call.

The ``liealg.psi_reduce`` row also holds ``peak_bytes``, the largest peak of
one call over the 100 instances, and ``peak_over_coefficient_bytes``, that
peak over the coefficient bytes of the call's input.
``liealg.double_commutator`` also holds ``peak_over_result_coefficient_bytes``:
for the complete operators on 4, 8 and 12 pairs (every edge weighted), the
peak of ``double_commutator_closed_form`` over its result's coefficient bytes.
- ``import.diraclab_cli``: ``import diraclab.cli`` in a fresh interpreter, in
  ms, over 5 interpreters.

Each call gets a fresh generator with the same seed, so every repeat does the
same work; the first call of each kind is a warm-up and is not counted.

``peak_bytes_per_point`` holds, for each of those calls, the peak of the
memory it allocates (``tracemalloc``, one extra call, result included) over
the number of sample points (written entries for the export): the layer rows
of peak memory against n.  The rows above have no peak-memory row.  Two
rows there have no timing row: ``repeat.{flat,sphere}``, one Monte Carlo
repeat of a convergence run, ``sample_log_coords`` then ``dirac_estimate`` on
its result, as in the ``weights_reduction`` rows.  The result alone takes 16
bytes per point (two float64 coordinates).

``peak_bytes_per_point_against_copies`` holds the peak of those two repeat
rows at 1e4, 1e5 and 1e6 star copies, in bytes per point: the row of peak
memory against n.  A repeat that holds its result and a few fixed blocks
reads 16 plus a share that falls as 1/n.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIES = 100_000
PEAK_COPIES = (10_000, 100_000, 1_000_000)
EXPORT_COPIES = 10_000
REPEATS = 31
LOG_C_D_CALLS = 1000
IMPORT_RUNS = 5
COMPLETE_PAIRS = (4, 8, 12)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _summary(samples: list, points: int, scale: float = 1e9) -> dict:
    """Median and quartiles of seconds * scale / points."""
    values = sorted(s * scale / points for s in samples)
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": round(med, 1), "q1": round(q1, 1), "q3": round(q3, 1), "count": len(values)}


def _time(fn, repeats: int) -> list:
    fn()
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _import_seconds(src: str) -> list:
    """Seconds to import diraclab.cli, each in a fresh interpreter."""
    code = "import time\nt = time.perf_counter()\nimport diraclab.cli\nprint(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=src)
    return [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout)
        for _ in range(IMPORT_RUNS)
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding diraclab/")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    from numpy.polynomial.legendre import leggauss

    from diraclab.estimators import (
        dirac_estimate,
        dirac_expectation_oracle,
        embedding_coordinate_function,
        laplace_estimate,
        linear_coordinate_function,
        resolve_test_function,
        squared_radius_function,
    )
    from diraclab.cli import _random_instance
    from diraclab.estimators import DEFAULT_MASTER_SEED
    from diraclab.graphdirac import assemble_dirac
    from diraclab.liealg import (
        DiagonalObservable,
        build_w,
        dirac_from_w,
        double_commutator_closed_form,
        psi_reduce,
    )
    from diraclab.manifold import framed_point, make_manifold, sample_log_coords
    from diraclab.specfun import bessel_i_scaled, log_c_d, vmf_moments

    points = COPIES * 3
    calls = {}
    repeats = {}
    for kind in ("flat", "sphere"):
        m = make_manifold(kind, 2)
        fp = framed_point(m)
        a = (
            linear_coordinate_function(m, fp, 1)
            if kind == "flat"
            else embedding_coordinate_function(m, fp, 0)
        )
        v = sample_log_coords(m, fp, np.random.default_rng(1), points).reshape(COPIES, 3, 2)
        calls[f"sampler.{kind}"] = (
            lambda m=m, fp=fp: sample_log_coords(m, fp, np.random.default_rng(1), points)
        )
        calls[f"weights_reduction.{kind}"] = (
            lambda m=m, v=v, a=a, fp=fp: dirac_estimate(m, v, a, fp, 0.2, sigma=1)
        )
        repeats[f"repeat.{kind}"] = lambda copies, m=m, a=a, fp=fp: dirac_estimate(
            m,
            sample_log_coords(m, fp, np.random.default_rng(1), copies * 3).reshape(copies, 3, 2),
            a,
            fp,
            0.2,
            sigma=1,
        )
        if kind == "flat":
            sq = squared_radius_function(m, fp)
            calls["laplace.flat"] = (
                lambda m=m, v=v, sq=sq, fp=fp: laplace_estimate(m, v, sq, fp, 0.2, sigma=1)
            )
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    star = sample_log_coords(m, fp, np.random.default_rng(1), EXPORT_COPIES * 3)
    dirac = assemble_dirac(star.reshape(EXPORT_COPIES, 3, 2), m, fp, 0.2)
    work = tempfile.TemporaryDirectory(prefix="layer-timings-")
    path = os.path.join(work.name, "op.mtx")
    calls["export.matrix_market"] = lambda: dirac.export_matrix_market(path)
    counts = {name: points for name in calls}
    counts["export.matrix_market"] = 2 * dirac.weights.size
    result = {"copies": COPIES, "points": points, "unit": "ns per sample point"}
    result["export_entries"] = counts["export.matrix_market"]
    result["peak_bytes_per_point_against_copies"] = {}
    with work:
        for name, fn in calls.items():
            result[name] = _summary(_time(fn, REPEATS), counts[name])
        result["peak_bytes_per_point"] = {
            name: round(_peak_bytes(fn) / counts[name], 2) for name, fn in calls.items()
        }
        for name, fn in repeats.items():
            row = {
                copies: round(_peak_bytes(lambda: fn(copies)) / (copies * 3), 2)
                for copies in PEAK_COPIES
            }
            result["peak_bytes_per_point"][name] = row[COPIES]
            result["peak_bytes_per_point_against_copies"][name] = {str(c): b for c, b in row.items()}
    result["specfun.log_c_d"] = {
        **_summary(_time(lambda: [log_c_d(2, 10.0) for _ in range(LOG_C_D_CALLS)], REPEATS),
                   LOG_C_D_CALLS, 1e6),
        "unit": "us per call",
    }
    for name, kind, d in (("flat", "flat", 2), ("sphere", "sphere", 2), ("flat_d3", "flat", 3)):
        m = make_manifold(kind, d)
        fp = framed_point(m)
        a = resolve_test_function(m, fp, "dirac", "auto")
        result[f"estimators.oracle.{name}"] = {
            **_summary(_time(lambda m=m, a=a, fp=fp: dirac_expectation_oracle(
                m, a, fp, 1, 1e4 ** -0.2), REPEATS), 1, 1e3),
            "unit": "ms per call",
        }
    result["specfun.vmf_moments"] = {
        **_summary(_time(lambda: vmf_moments(3, [0.0, 0.0, 1.0], 0.1), REPEATS), 1, 1e3),
        "unit": "ms per call",
    }
    nodes = 5.0 * (leggauss(384)[0] + 1.0)
    result["specfun.bessel_i_scaled"] = {
        **_summary(_time(lambda: bessel_i_scaled(0.5, nodes), REPEATS), nodes.size),
        "unit": "ns per value",
    }
    # algebra-check draws 200 instances for its commutator check, then the
    # 100 whose double commutators it reduces.
    rng = np.random.default_rng(np.random.SeedSequence([DEFAULT_MASTER_SEED, 1]))
    instances = [_random_instance(rng) for _ in range(300)][200:]
    doubles = [double_commutator_closed_form(dirac, obs) for dirac, obs in instances]
    result["liealg.psi_reduce"] = {
        **_summary(_time(lambda: [psi_reduce(x) for x in doubles], REPEATS), len(doubles), 1e6),
        "unit": "us per call",
    }
    peak, k = max((_peak_bytes(lambda x=x: psi_reduce(x)), k) for k, x in enumerate(doubles))
    result["liealg.psi_reduce"]["peak_bytes"] = peak
    result["liealg.psi_reduce"]["peak_over_coefficient_bytes"] = round(
        peak / doubles[k]._coeffs.nbytes, 2
    )
    result["liealg.double_commutator"] = {
        **_summary(_time(lambda: [double_commutator_closed_form(dirac, obs)
                                  for dirac, obs in instances], REPEATS), len(instances), 1e6),
        "unit": "us per call",
    }
    ratios = result["liealg.double_commutator"]["peak_over_result_coefficient_bytes"] = {}
    for n_pairs in COMPLETE_PAIRS:
        grid = 2 * n_pairs
        weights = {(i, j): 1.0 + 0.01 * (i + j) for i in range(1, grid + 1) for j in range(i + 1, grid + 1)}
        dirac = dirac_from_w(build_w(weights, s=2, n_pairs=n_pairs), 0.5)
        # Increasing values: no two edge differences cancel, so the result
        # keeps all E^2 words.
        obs = DiagonalObservable(np.sqrt(np.arange(1.0, grid + 1.0)))
        nbytes = double_commutator_closed_form(dirac, obs)._coeffs.nbytes
        peak = _peak_bytes(lambda: double_commutator_closed_form(dirac, obs))
        ratios[str(n_pairs)] = round(peak / nbytes, 2)
    result["import.diraclab_cli"] = {
        **_summary(_import_seconds(os.path.abspath(args.src)), 1, 1e3),
        "unit": "ms",
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
