"""The benchmark's workloads: the CLI calls of one pass, the minimal set-up
calls, and the checks of each pass's outputs against independent routes.

Every call goes through ``diraclab.cli.main`` in this process, looked up on
the module at call time so that a tracer installed on the package sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from diraclab import cli
from diraclab.clifford import Multivector, mv_mul
from diraclab.estimators import DEFAULT_MASTER_SEED
from diraclab.liealg import (
    DiagonalObservable,
    build_w,
    commutator_closed_form,
    commutator_concrete,
    dirac_from_w,
    double_commutator_closed_form,
    laplacian_closed_form,
    psi_reduce,
    realize_commutator_edges,
)
from diraclab.manifold import framed_point, make_manifold, sample_uniform_batch

# Oracle column pins of criteria 7 and 8, copied from tests/test_acceptance.py:
# expectation values at hbar = n^-0.2 for n = 1e3, 1e4, 1e5.  They do not
# depend on the seed.
ORACLE_PINS = {
    "dirac-flat": (0.5665534564, 0.7093571552, 0.8102800348),
    "dirac-sphere": (0.4408640539, 0.5417794462, 0.6066706980),
    "laplace-flat": (2.301725468, 4.366635719, 7.865438190),
}
PIN_TOL = 1e-6

# bound-sweep: 170 copies of a 3-leaf star plus the shared base vertex give
# 511 vertices, the largest graph the dense realization accepts (512).
N_COPIES = 170
HBAR_GRID = tuple(float(h) for h in np.geomspace(2.0, 0.01, 16))
RHO_TOL = 1e-10
C_TOL = 1e-10


def call(argv) -> int:
    """Run one CLI command in this process; its printed table is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def steps(workload: str, seed: int, out: str) -> list:
    """The (label, argv) CLI calls of one pass, in order."""
    s = str(seed)
    if workload == "mc-converge":
        return [
            (label, [sub, "--manifold", kind, "--seed", s, "--threads", "1",
                     "--out", os.path.join(out, label)])
            for label, sub, kind in (
                ("dirac-flat", "dirac-converge", "flat"),
                ("dirac-sphere", "dirac-converge", "sphere"),
                ("laplace-flat", "laplace-converge", "flat"),
            )
        ]
    if workload == "exact-checks":
        # algebra-check's seed draws the instance sizes, and with them the
        # amount of work (4 to 7 s a pass over seeds 0 and 1 on a 2-vCPU VM),
        # so it runs on its default seed; the other two take the workload seed.
        algebra = ["--seed", str(DEFAULT_MASTER_SEED)]
        return [
            (sub, [sub, *(algebra if sub == "algebra-check" else ["--seed", s]),
                   "--out", os.path.join(out, sub)])
            for sub in ("algebra-check", "specfun", "geometry-check")
        ]
    if workload == "bound-sweep":
        grid = ",".join(repr(h) for h in HBAR_GRID)
        return [
            (f"bound-{kind}", ["bound-report", "--manifold", kind, "--n-copies", str(N_COPIES),
                               "--hbar-grid", grid, "--seed", s,
                               "--dump-operators", os.path.join(out, f"bound-{kind}", "mtx"),
                               "--out", os.path.join(out, f"bound-{kind}")])
            for kind in ("flat", "sphere")
        ]
    raise ValueError(f"unknown workload {workload!r}")


def minimal(workload: str, seed: int, out: str) -> list:
    """One small call of each entry point the workload uses: (label, ok) pairs.

    ``algebra-check`` has no size setting, so its entry points are exercised
    once each on a one-edge operator instead of through the CLI.
    """
    s = str(seed)
    results = []
    if workload == "mc-converge":
        for label, argv in steps(workload, seed, out):
            results.append((label, call(argv + ["--n-grid", "100", "--repeats", "2"]) == 0))
    elif workload == "exact-checks":
        results.append(("specfun", call(["specfun", "--t-grid", "0.2", "--out", out]) == 0))
        results.append(("geometry-check", call(["geometry-check", "--seed", s, "--out", out]) == 0))
        dirac = dirac_from_w(build_w({(1, 2): 1.0}, s=2, n_pairs=1), 0.5)
        obs = DiagonalObservable((0.3, -0.2))
        closed = realize_commutator_edges(commutator_closed_form(dirac, obs))
        brute = commutator_concrete(dirac.concrete, obs.realize())
        half = psi_reduce(double_commutator_closed_form(dirac, obs)).scale(0.5)
        e1 = Multivector.basis_vector(2, 1)
        ok = (
            float(np.max(np.abs(closed - brute))) <= 1e-12
            and half.max_abs_diff(laplacian_closed_form(dirac, obs)) == 0.0
            and mv_mul(e1, e1).component(0) == -1.0
        )
        results.append(("algebra-core", ok))
    elif workload == "bound-sweep":
        for kind in ("flat", "sphere"):
            argv = ["bound-report", "--manifold", kind, "--n-copies", "1", "--hbar-grid", "1.0",
                    "--seed", s, "--dump-operators", os.path.join(out, "mtx"), "--out", out]
            results.append((f"bound-{kind}", call(argv) == 0))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(f"setup:{label}", ok) for label, ok in results]


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- output checks -------------------------------------------------------


def check_mc(out: str) -> tuple[list, list]:
    """Oracle pins and finiteness per row; returns (checks, z-score records)."""
    checks, zs = [], []
    for label, pins in ORACLE_PINS.items():
        rows = _load(os.path.join(out, label, "report.json"))["rows"]
        tracked = [r for r in rows if r["j"] <= 1]
        checks.append((f"{label}:tracked-rows", len(tracked) == len(pins)))
        for row, pin in zip(tracked, pins):
            checks.append((f"{label}:oracle-pin:n={row['n']}", abs(row["oracle"] - pin) <= PIN_TOL))
        for row in rows:
            mean, se = row["estimate_mean"], row["estimate_se"]
            finite = math.isfinite(mean) and math.isfinite(se)
            checks.append((f"{label}:finite:n={row['n']}:j={row['j']}", finite))
            z = abs(mean - row["oracle"]) / se if finite and se > 0 else None
            zs.append({"protocol": label, "n": row["n"], "j": row["j"], "z": z})
    return checks, zs


def specfun_c_closed_form(t: float) -> float:
    """C(t) for d = 3 in elementary functions, with C_3(b) = b / (4 pi sinh b)."""
    beta = 1.0 / t
    c3 = beta / (4.0 * math.pi * math.sinh(beta))
    return 1.0 / math.tanh(beta) - t - (2.0 * math.pi) ** 1.5 * c3 / (3.0 * math.sqrt(math.pi))


def check_exact(out: str) -> list:
    """Every algebra and geometry row passes; specfun's C(t) meets its closed form."""
    checks = []
    for row in _load(os.path.join(out, "algebra-check", "algebra_check.json"))["rows"]:
        checks.append((f"algebra:{row['check']}", bool(row["passed"])))
        if row["check"] == "bicommutator-halved-vs-laplacian":
            checks.append(("algebra:half-reduction-exact", row["max_err"] == 0.0))
    for row in _load(os.path.join(out, "geometry-check", "geometry_check.json"))["rows"]:
        checks.append((f"geometry:{row['manifold']}:{row['check']}", bool(row["passed"])))
    for row in _load(os.path.join(out, "specfun", "specfun.json"))["rows"]:
        ref = specfun_c_closed_form(row["t"])
        checks.append((f"specfun:C:t={row['t']}", abs(row["C"] - ref) <= C_TOL * abs(ref)))
    return checks


def read_base_row(path: str) -> dict:
    """Entries (vertex id -> imaginary part) of the base vertex's row of a
    MatrixMarket operator dump, i.e. w_g / hbar for every leaf g."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    n = int(lines[1].split()[0]) // 2
    row = {}
    for line in lines[2:]:
        r, c, _re, im = line.split()
        if int(r) == 1:
            row[int(c) - n - 1] = float(im)
    return row


def leaf_first_log_coordinate(kind: str, seed: int) -> np.ndarray:
    """First frame coordinate of log_p at every leaf, by vertex id (id 0 is the base).

    The leaves are drawn as bound-report draws them; the logarithm is taken
    here with arctan2, apart from the package's arccos route.
    """
    m = make_manifold(kind, 2)
    fp = framed_point(m)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    q = sample_uniform_batch(m, fp, rng, N_COPIES * (m.d + 1))
    along = q @ fp.frame[0]
    if kind == "flat":
        a = along - fp.point @ fp.frame[0]
    else:
        cos_t = q @ fp.point
        sin_t = np.linalg.norm(q - cos_t[:, None] * fp.point, axis=1)
        theta = np.arctan2(sin_t, cos_t)
        a = np.where(sin_t > 0.0, theta / np.where(sin_t > 0.0, sin_t, 1.0), 1.0) * along
    return np.concatenate([[0.0], a])


def check_bound(out: str, seed: int, leaf_a: dict) -> list:
    """Every rho equals the rank-2 closed form ||w * (a_g - a_base)||_2 / hbar."""
    checks = []
    for kind in ("flat", "sphere"):
        base = os.path.join(out, f"bound-{kind}")
        rows = _load(os.path.join(base, "bound_report.json"))["rows"]
        checks.append((f"bound-{kind}:rows", len(rows) == len(HBAR_GRID)))
        if kind not in leaf_a:
            leaf_a[kind] = leaf_first_log_coordinate(kind, seed)
        a = leaf_a[kind]
        for idx, row in enumerate(rows):
            w_over_h = read_base_row(os.path.join(base, "mtx", f"dirac_hbar{idx}.mtx"))
            ids = np.array(sorted(w_over_h))
            vals = np.array([w_over_h[g] for g in ids])
            closed = float(np.linalg.norm(vals * (a[ids] - a[0])))
            ok = len(ids) == len(a) - 1 and abs(row["rho"] - closed) <= RHO_TOL * closed
            checks.append((f"bound-{kind}:rho:hbar={row['hbar']:.6g}", ok))
    return checks


def check_pass(workload: str, seed: int, out: str, cache: dict) -> tuple[list, list]:
    """Output checks of one pass: (checks, z-score records)."""
    if workload == "mc-converge":
        return check_mc(out)
    if workload == "exact-checks":
        return check_exact(out), []
    return check_bound(out, seed, cache), []


# -- contract checks, once per run ----------------------------------------


def _same_bytes(dirs, names) -> bool:
    def read(d, n):
        with open(os.path.join(d, n), "rb") as fh:
            return fh.read()

    return all(read(d, n) == read(dirs[0], n) for d in dirs[1:] for n in names)


def contract_checks(seed: int, out: str, root: str) -> list:
    """Criterion 10's reproducibility and criterion 9's baseline, as checks."""
    checks = []
    args = ["dirac-converge", "--n-grid", "200,2000", "--repeats", "6", "--seed", str(seed)]
    one, two, regen = (os.path.join(out, k) for k in ("threads1", "threads2", "regen"))
    rcs = [
        call(args + ["--threads", "1", "--out", one]),
        call(args + ["--threads", "2", "--out", two]),
        call(["dirac-converge", "--from-manifest", os.path.join(one, "manifest.json"),
              "--out", regen]),
    ]
    names = ("report.csv", "report.dat", "report.json", "manifest.json")
    checks.append(("contract:reproducible-bytes", rcs == [0, 0, 0] and _same_bytes([one, two, regen], names)))

    baseline = _load(os.path.join(root, "tests", "data", "pf_baseline.json"))
    bound = os.path.join(out, "baseline")
    ok = call(["bound-report", "--seed", str(baseline["config"]["seed"]), "--out", bound]) == 0
    if ok:
        fresh = _load(os.path.join(bound, "bound_report.json"))
        ok = fresh["config"] == baseline["config"] and len(fresh["rows"]) == len(baseline["rows"])
        for new, old in zip(fresh["rows"], baseline["rows"]):
            drift = abs(new["bound_ratio"] - old["bound_ratio"]) / old["bound_ratio"]
            ok = ok and math.isfinite(new["rho"]) and drift <= 0.05
    checks.append(("contract:bound-baseline", ok))
    return checks
