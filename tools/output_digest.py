"""Digest every CLI output file, for byte-identity checks between two trees.

    python3 tools/output_digest.py [--seeds default,1,2,3] [--src DIR] > digest.txt

Runs each subcommand on its defaults (plus a few non-default variants that
take other code paths) once per seed, in this process, with the package
imported from ``--src`` (default: the ``src`` directory of this checkout).
Each subcommand also runs once from a key=value ``--config`` file and once
``--from-manifest`` on the manifest its default case wrote at the same seed.
Prints one line per output file, ``<case>/<file> <sha256>``, sorted, with
``timing.json`` left out: it holds wall times and sits outside the byte
contract.  Each case's standard output is digested as ``<case>/<stdout>``,
its standard error (with the scratch directory's path spelled ``<work>``) as
``<case>/<stderr>``, and its exit code as ``<case>/<exit>``, or ``raised
<ExceptionType>`` when an exception escapes the command line's ``main`` (its
traceback goes to this tool's standard error, undigested), so one crashing
case does not abort the digest.  The seed ``default`` passes no
``--seed`` (and unsets DIRACLAB_SEED), so the built-in master seed is used;
a replay never passes ``--seed``, so the seed comes from the manifest.

Two trees give the same bytes when their digests are equal, e.g.

    python3 tools/output_digest.py --src OTHER/src > other.txt
    python3 tools/output_digest.py > this.txt
    diff other.txt this.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Key=value files for the --config cases, keyed by case name; every key is
# one the subcommand reads, and most differ from the defaults.
CONFIGS = {
    "algebra-check-config": "seed = 5\n",
    "specfun-config": "# kernel table\nt_grid = 0.3, 0.15\n\nsign = 1\ndim = 4\n",
    "geometry-check-config": "dim = 3\nseed = 12\n",
    "dirac-config": (
        "mode = dirac\nmanifold = sphere\nalpha = 0.25\nn_grid = 100, 1000\nrepeats = 4\n"
        "sign = -1\ntest_function = auto\ndelta_u = 0.9\nlambda_power = 1\n"
        "family_check = yes\nthreads = 2\n"
    ),
    "laplace-config": (
        "mode = laplace\ntest_function = squared-radius\nlambda_power = 2\n"
        "n_grid = 200,2000\nrepeats = 3\nsign = +1\n"
    ),
    "bound-config": (
        "manifold = sphere\ndim = 3\nsign = -1\nhbar_grid = 0.7, 0.2\nn_copies = 12\n"
        "grad_sup = 2.0\n"
    ),
    "specfun-bad-config": "t_grid = 0.2, 0\n",
    "dirac-bad-function-config": "test_function = linear-xfoo\n",
}

# (case name, argv); output and dump directories are appended per run.
# "{config}" is the case's CONFIGS file; "{manifest:NAME}" is the manifest
# case NAME wrote at the same seed.
CASES = (
    ("algebra-check", ["algebra-check"]),
    ("specfun", ["specfun"]),
    # At d = 40 the kernel moments sit where a cancelling form of the
    # parallel second moment would lose digits.
    ("specfun-dim40", ["specfun", "--dim", "40", "--t-grid", "0.3,0.1"]),
    # At d = 160 exp(-kappa) I_{d/2-1}(kappa) underflows at the innermost
    # radial nodes, where the log normalizer must come from the series.
    ("specfun-dim160", ["specfun", "--dim", "160", "--t-grid", "0.2,0.1"]),
    # At d = 400 exp(-beta) I_{d/2-1}(beta) itself underflows, so the kernel
    # mass and its Bessel ratios come from log differences.
    ("specfun-dim400", ["specfun", "--dim", "400", "--t-grid", "0.3,0.1"]),
    ("geometry-check", ["geometry-check"]),
    ("geometry-check-dim3", ["geometry-check", "--dim", "3"]),
    ("dirac-flat", ["dirac-converge", "--manifold", "flat"]),
    ("dirac-sphere", ["dirac-converge", "--manifold", "sphere"]),
    ("dirac-flat-family", ["dirac-converge", "--manifold", "flat", "--family", "1"]),
    ("dirac-sphere-family", ["dirac-converge", "--manifold", "sphere", "--family", "1"]),
    ("dirac-flat-sign-1", ["dirac-converge", "--manifold", "flat", "--sign", "-1"]),
    # A malformed test-function name is an error exit, not a crash.
    (
        "dirac-flat-bad-function",
        ["dirac-converge", "--manifold", "flat", "--test-function", "linear-xfoo"],
    ),
    ("dirac-flat-dim3", ["dirac-converge", "--manifold", "flat", "--dim", "3"]),
    ("dirac-sphere-dim3", ["dirac-converge", "--manifold", "sphere", "--dim", "3"]),
    ("laplace-flat", ["laplace-converge"]),
    ("laplace-flat-family", ["laplace-converge", "--family", "1"]),
    ("laplace-sphere", ["laplace-converge", "--manifold", "sphere"]),
    ("laplace-flat-dim3", ["laplace-converge", "--dim", "3"]),
    # Sphere embedding functions other than the default x1: x3 is the axis
    # of the base point, where p[axis] != 0.
    (
        "dirac-sphere-x3",
        ["dirac-converge", "--manifold", "sphere", "--test-function", "embedding-x3"],
    ),
    (
        "laplace-sphere-x1",
        ["laplace-converge", "--manifold", "sphere", "--test-function", "embedding-x1"],
    ),
    ("bound-flat", ["bound-report", "--manifold", "flat", "--dump-operators", "{dump}"]),
    ("bound-sphere", ["bound-report", "--manifold", "sphere", "--dump-operators", "{dump}"]),
    (
        "bound-sphere-sign-1",
        ["bound-report", "--manifold", "sphere", "--sign", "-1", "--n-copies", "400",
         "--dump-operators", "{dump}"],
    ),
    # delta_u = 2.5 on the 3-sphere accepts few proposals, so the sampler runs
    # several rounds per repeat.
    (
        "dirac-sphere-wide",
        ["dirac-converge", "--manifold", "sphere", "--dim", "3", "--delta-u", "2.5",
         "--n-grid", "100,1000", "--repeats", "4"],
    ),
    (
        "dirac-sphere-dump",
        ["dirac-converge", "--manifold", "sphere", "--n-grid", "100,1000", "--repeats", "2",
         "--dump-operators", "{dump}"],
    ),
    ("algebra-check-config", ["algebra-check", "--config", "{config}"]),
    ("specfun-config", ["specfun", "--config", "{config}"]),
    ("geometry-check-config", ["geometry-check", "--config", "{config}"]),
    ("dirac-config", ["dirac-converge", "--config", "{config}"]),
    ("laplace-config", ["laplace-converge", "--config", "{config}"]),
    ("bound-config", ["bound-report", "--config", "{config}"]),
    ("algebra-check-replay", ["algebra-check", "--from-manifest", "{manifest:algebra-check}"]),
    ("specfun-replay", ["specfun", "--from-manifest", "{manifest:specfun}"]),
    ("geometry-check-replay", ["geometry-check", "--from-manifest", "{manifest:geometry-check}"]),
    ("dirac-replay", ["dirac-converge", "--from-manifest", "{manifest:dirac-flat}"]),
    ("laplace-replay", ["laplace-converge", "--from-manifest", "{manifest:laplace-flat}"]),
    ("bound-replay", ["bound-report", "--from-manifest", "{manifest:bound-flat}"]),
    # Bad values are configuration errors that name their source: a flag and
    # a config-file line.
    ("bound-bad-grad-sup", ["bound-report", "--grad-sup", "0"]),
    ("specfun-bad-config", ["specfun", "--config", "{config}"]),
    # specfun's own bound on dim, and test-function indices below 1.
    ("specfun-dim2", ["specfun", "--dim", "2"]),
    (
        "dirac-flat-embedding-x0",
        ["dirac-converge", "--manifold", "flat", "--test-function", "embedding-x0"],
    ),
    ("dirac-bad-function-config", ["dirac-converge", "--config", "{config}"]),
)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _run_case(main, work: str, name: str, argv: list, seed: str) -> list:
    case = f"{name}@seed={seed}"
    out = os.path.join(work, case, "out")
    dump = os.path.join(work, case, "dump")
    config = os.path.join(work, case, "run.cfg")
    if name in CONFIGS:
        os.makedirs(os.path.dirname(config), exist_ok=True)
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(CONFIGS[name])

    def fill(arg: str) -> str:
        if arg.startswith("{manifest:"):
            source = f"{arg[len('{manifest:'):-1]}@seed={seed}"
            return os.path.join(work, source, "out", "manifest.json")
        return arg.replace("{dump}", dump).replace("{config}", config)

    args = [fill(a) for a in argv] + ["--out", out]
    if seed != "default" and "--from-manifest" not in argv:
        args += ["--seed", seed]
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except Exception as exc:
            traceback.print_exc(file=sys.__stderr__)
            code = f"raised {type(exc).__name__}"
    lines = [f"{case}/<exit> {code}"]
    streams = {"stdout": buf.getvalue(), "stderr": err.getvalue().replace(work, "<work>")}
    for stream, text in streams.items():
        lines.append(f"{case}/<{stream}> {hashlib.sha256(text.encode()).hexdigest()}")
    for sub in ("out", "dump"):
        base = os.path.join(work, case, sub)
        for dirpath, _dirs, files in os.walk(base):
            for fname in files:
                if fname == "timing.json":
                    continue
                path = os.path.join(dirpath, fname)
                rel = os.path.relpath(path, os.path.join(work, case))
                lines.append(f"{case}/{rel} {_sha256(path)}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="default,1,2,3", help="comma-separated; 'default' = no --seed")
    p.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding diraclab/")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    os.environ.pop("DIRACLAB_SEED", None)
    from diraclab.cli import main as cli_main

    lines = []
    with tempfile.TemporaryDirectory(prefix="output-digest-") as work:
        for seed in args.seeds.split(","):
            for name, case_argv in CASES:
                lines.extend(_run_case(cli_main, work, name, case_argv, seed.strip()))
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
