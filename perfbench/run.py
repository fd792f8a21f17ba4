"""diraclab benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Workloads (see perfbench/README.md): mc-converge,
exact-checks, bound-sweep.

With ``--trace 0`` the run times set-up in fresh interpreters, then repeats
untraced passes for ``--seconds`` (at least one) and reports the end-to-end
metrics.  With ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics derived from the spans.  Either way every pass's
outputs are checked against independent routes and the two contract checks
run once; the last line of standard output is the JSON result, the line
before it a ``record`` line with the run's context.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("mc-converge", "exact-checks", "bound-sweep")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("seed must lie in [0, 2^63)")
    return args


class Checks:
    """Named pass/fail outcomes; their failure share is the error rate."""

    def __init__(self) -> None:
        self.items: list[tuple[str, bool]] = []

    def extend(self, items) -> None:
        self.items.extend((str(name), bool(ok)) for name, ok in items)

    def guarded(self, name: str, fn, *args):
        """Run fn; an exception is reported and counted as a failed check."""
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.items.append((name, False))
            return None

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.items if not ok]


def quartiles(values) -> dict:
    vals = sorted(values)
    if len(vals) < 2:
        return {"q1": vals[0], "median": vals[0], "q3": vals[0], "n": len(vals)}
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"q1": q1, "median": med, "q3": q3, "n": len(vals)}


def time_setup(workload: str, seed: int, work: str, checks: Checks) -> list[float]:
    """Set-up time in fresh interpreters, SETUP_PROBES times."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed),
               os.path.join(work, f"setup{i}")]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            checks.extend([("setup:probe-timeout", False)])
            continue
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            checks.extend([("setup:probe", False)])
            continue
        times.append(float(lines[0]))
        checks.extend((label, status == "ok")
                      for status, label in (line.split(" ", 1) for line in lines[1:]))
    return times


def run(args, work: str):
    import numpy
    import scipy

    import tracing
    import workloads
    import layers

    checks = Checks()
    wl, seed = args.workload, args.seed
    setup = [] if args.trace else time_setup(wl, seed, work, checks)

    # Warm-up and the once-per-run contract checks, outside every timed pass.
    checks.extend(checks.guarded("setup:in-process", workloads.minimal, wl, seed,
                                 os.path.join(work, "warm")) or [])
    checks.extend(checks.guarded("contract", workloads.contract_checks, seed,
                                 os.path.join(work, "contract"), ROOT) or [])

    out = os.path.join(work, "pass")
    cache: dict = {}
    untraced, traced, tracers, z_scores = [], [], [], []

    def checked_pass(tracer=None):
        """One pass, its CLI calls in order, then its output checks.

        Returns the pass's wall seconds and the seconds of each call.
        """
        root = tracer.open(tracing.ROOT) if tracer is not None else None
        t0 = time.perf_counter()
        step_s = {}
        for label, argv in workloads.steps(wl, seed, out):
            s0 = time.perf_counter()
            try:
                rc = workloads.call(argv)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rc = None
            step_s[label] = time.perf_counter() - s0
            checks.extend([(f"exit:{label}", rc == 0)])
        total = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
        got = checks.guarded("output", workloads.check_pass, wl, seed, out, cache)
        if got is not None:
            checks.extend(got[0])
            z_scores[:] = got[1]
        return total, step_s

    t_start = time.perf_counter()
    while True:
        untraced.append(checked_pass())
        if args.trace:
            tracer = tracing.Tracer()
            with tracer:
                traced.append(checked_pass(tracer))
            tracers.append(tracer)
            checks.extend([("trace:no-wrapper-left", not tracing.installed_wrappers())])
        if time.perf_counter() - t_start >= args.seconds:
            break

    pass_s = [t for t, _ in untraced]
    if args.trace:
        metrics, sums_ok = layers.per_layer(tracers, untraced, traced)
        checks.extend([("trace:self-times-add-up", sums_ok)])
    else:
        metrics = {
            "pass_s": (statistics.median(pass_s), "s"),
            "setup_s": (statistics.median(setup) if setup else float("nan"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    labels = list(untraced[0][1])
    failed = checks.failed
    record = {
        "workload": wl,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pass_s": quartiles(pass_s),
        "traced_pass_s": quartiles([t for t, _ in traced]) if traced else None,
        "step_s": {k: quartiles([s[k] for _, s in untraced]) for k in labels},
        "setup_s": quartiles(setup) if setup else None,
        "mc_z_scores": z_scores,
        "checks_attempted": len(checks.items),
        "checks_failed": failed,
    }
    result = {
        "correct": not failed,
        "attempted": len(checks.items),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diraclab", "__init__.py")):
        print(f"no diraclab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 1
    # One process, one thread: BLAS pools would add a second core's noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    import diraclab

    if not os.path.abspath(diraclab.__file__).startswith(SRC + os.sep):
        print(f"diraclab imported from {diraclab.__file__}, not {SRC}", file=sys.stderr)
        return 1
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        result, record = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
