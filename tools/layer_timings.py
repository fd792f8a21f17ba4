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
- ``laplace.flat``: ``laplace_estimate`` on squared radius.

Each call gets a fresh generator with the same seed, so every repeat does the
same work; the first call of each kind is a warm-up and is not counted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIES = 100_000
REPEATS = 31
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _summary(samples: list, points: int) -> dict:
    ns = sorted(s * 1e9 / points for s in samples)
    q1, med, q3 = statistics.quantiles(ns, n=4)
    return {"median": round(med, 1), "q1": round(q1, 1), "q3": round(q3, 1), "count": len(ns)}


def _time(fn, repeats: int) -> list:
    fn()
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding diraclab/")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    from diraclab.estimators import (
        dirac_estimate,
        embedding_coordinate_function,
        laplace_estimate,
        linear_coordinate_function,
        squared_radius_function,
    )
    from diraclab.manifold import framed_point, make_manifold, sample_log_coords

    points = COPIES * 3
    result = {"copies": COPIES, "points": points, "unit": "ns per sample point"}
    for kind in ("flat", "sphere"):
        m = make_manifold(kind, 2)
        fp = framed_point(m)
        a = (
            linear_coordinate_function(m, fp, 1)
            if kind == "flat"
            else embedding_coordinate_function(m, fp, 0)
        )
        v = sample_log_coords(m, fp, np.random.default_rng(1), points).reshape(COPIES, 3, 2)
        result[f"sampler.{kind}"] = _summary(
            _time(lambda: sample_log_coords(m, fp, np.random.default_rng(1), points), REPEATS),
            points,
        )
        result[f"weights_reduction.{kind}"] = _summary(
            _time(lambda: dirac_estimate(m, v, a, fp, 0.2, sigma=1), REPEATS), points
        )
        if kind == "flat":
            sq = squared_radius_function(m, fp)
            result["laplace.flat"] = _summary(
                _time(lambda: laplace_estimate(m, v, sq, fp, 0.2, sigma=1), REPEATS), points
            )
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
