"""End-to-end tests of the command line interface."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy import stats

import diraclab
from diraclab import InvalidArgumentError, build_w, cli, dirac_from_w, specfun
from diraclab.cli import _chisquare_sf, _pearson_chisquare, _random_operator, main
from diraclab.estimators import ARTIFACT_VERSION, DEFAULT_MASTER_SEED, hbar_schedule
from diraclab.graphdirac import assemble_dirac
from diraclab.manifold import framed_point, make_manifold, sample_log_coords

SMALL = ["--n-grid", "60,120", "--repeats", "2"]


def run_cli(args):
    return main(list(args))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_no_arguments_is_a_usage_error(capsys):
    assert run_cli([]) == 2
    capsys.readouterr()


def reference_random_operator(rng, n_pairs, hbar):
    """algebra-check's instance generator as first written, with the edge
    sign drawn by rng.choice."""
    grid = 2 * n_pairs
    edges = [(i, j) for i in range(1, grid + 1) for j in range(i + 1, grid + 1)]
    count = int(rng.integers(1, len(edges) + 1))
    picked = rng.choice(len(edges), size=count, replace=False)
    weights = {}
    for idx in sorted(int(k) for k in picked):
        weights[edges[idx]] = float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0]))
    return dirac_from_w(build_w(weights, s=2, n_pairs=n_pairs), hbar)


def test_random_operator_keeps_the_stream():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        for n_pairs in (1, 2, 3, 4) * 5:
            got = _random_operator(rng, n_pairs, 0.7).concrete
            ref = reference_random_operator(ref_rng, n_pairs, 0.7).concrete
            assert got.tobytes() == ref.tobytes()
        assert rng.random() == ref_rng.random()


def test_algebra_check_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "a"
    assert run_cli(["algebra-check", "--seed", "3", "--out", str(out)]) == 0
    got = capsys.readouterr().out
    assert "commutator-closed-vs-concrete" in got
    for name in ("algebra_check.csv", "algebra_check.dat", "manifest.json", "timing.json"):
        assert (out / name).exists()
    rows = (out / "algebra_check.csv").read_text().splitlines()
    assert rows[0] == "check,instances,max_err,threshold,passed"
    assert all(line.endswith(",1") for line in rows[1:])


def test_algebra_check_timing_stages_and_counters(tmp_path, capsys):
    out = tmp_path / "a"
    assert run_cli(["algebra-check", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads((out / "algebra_check.json").read_text())["rows"]
    timing = json.loads((out / "timing.json").read_text())
    assert set(timing) == {"wall_time_s", "stages_s", "counters", "peak_rss_mb"}
    assert list(timing["stages_s"]) == sorted(row["check"] for row in rows)
    assert all(s >= 0.0 for s in timing["stages_s"].values())
    assert sum(timing["stages_s"].values()) <= timing["wall_time_s"]
    assert set(timing["counters"]) == {"instances", "word_products"}
    assert timing["counters"]["instances"] == sum(row["instances"] for row in rows)
    # 100 double commutators of 1 to 120 edges, two products per ordered
    # pair of edges.
    assert 200 <= timing["counters"]["word_products"] <= 100 * 2 * 120**2


def test_specfun_grid_artifacts(tmp_path, capsys):
    out = tmp_path / "s"
    assert run_cli(["specfun", "--out", str(out), "--t-grid", "0.2,0.1"]) == 0
    capsys.readouterr()
    payload = json.loads((out / "specfun.json").read_text())
    assert [row["t"] for row in payload["rows"]] == [0.2, 0.1]
    row = payload["rows"][1]
    assert row["A"] == pytest.approx(0.9999092042625951, abs=1e-9)
    assert row["C"] == pytest.approx(0.8997859868005306, abs=1e-9)


def test_geometry_check_passes_everywhere(tmp_path, capsys):
    out = tmp_path / "g"
    assert run_cli(["geometry-check", "--seed", "11", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads((out / "geometry_check.json").read_text())["rows"]
    assert {row["manifold"] for row in rows} == {"flat", "sphere"}
    assert all(row["passed"] for row in rows)


def test_cli_runs_load_no_scipy(tmp_path):
    # A fresh interpreter: this test module imports scipy itself.  All six
    # subcommands run in it, and none may load any scipy module.
    src = os.path.dirname(os.path.dirname(os.path.abspath(diraclab.__file__)))
    small = ["--n-grid", "60,120", "--repeats", "2"]
    runs = [
        ["algebra-check", "--seed", "3"],
        ["specfun", "--t-grid", "0.3"],
        ["geometry-check"],
        ["dirac-converge", *small],
        ["laplace-converge", *small],
        ["bound-report", "--n-copies", "8", "--hbar-grid", "1.0,0.5"],
    ]
    code = (
        "import json, sys\n"
        "import diraclab.cli\n"
        "out, runs = sys.argv[1], json.loads(sys.argv[2])\n"
        "for i, argv in enumerate(runs):\n"
        "    assert diraclab.cli.main([*argv, '--out', f'{out}/{i}']) == 0, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def _reference_sf(dof, x):
    """P(chi-square on dof degrees of freedom > x) to 50 digits, as mpmath's
    regularized upper incomplete gamma Q(dof/2, x/2)."""
    with mpmath.workdps(50):
        return mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)


def _assert_near_reference(dof, x):
    """_chisquare_sf(dof, x) against the 50-digit route.

    The bound is relative.  Below y = x/2 = 700 the terms are e^-y times
    running products of ratios: 2e-15 up to dof = 40 (max 9e-16 seen), and
    2e-15 max(5, y) above, where the rounding grows with the number of
    factors (4.9e-15 seen at dof = 1399).  From y = 700 on each term is
    formed in log space and its exponent rounds near ulp(y): 2e-15 y (up to
    8e-16 y seen).
    Each term may also round once in the subnormal range, so dof steps of
    2^-1074 are allowed on top; below that, p is 0.0.
    """
    y = x / 2
    p = _chisquare_sf(dof, x)
    ref = _reference_sf(dof, x)
    rel = 2e-15 if dof <= 40 and y < 700 else 2e-15 * max(5.0, y)
    assert abs(p - ref) <= rel * ref + dof * 2.0**-1074, (dof, x, p, ref)


def test_chisquare_sf_matches_50_digit_reference():
    rng = np.random.default_rng(2604)
    ys = np.concatenate([
        np.geomspace(1e-12, 1.0, 7),
        np.linspace(1.0, 50.0, 25),
        rng.uniform(0.0, 50.0, 10),
        np.linspace(50.0, 700.0, 6)[1:],
        # e^-y underflows from y = 745 on, while p stays above the smallest
        # double up to about y = 830 at dof = 40.
        [700.0, 720.0, 745.5, 760.0, 800.0, 850.0],
    ])
    for dof in range(1, 41):
        for y in ys:
            _assert_near_reference(dof, 2 * y)


@pytest.mark.parametrize("dof", [101, 1000, 5001])
def test_chisquare_sf_matches_reference_at_many_degrees_of_freedom(dof):
    # Across the bulk of the distribution: below y = 700 at 101, on both
    # sides of it at 1000, above it at 5001.
    half = dof / 2
    for y in half + np.linspace(-6.0, 10.0, 9) * math.sqrt(half):
        _assert_near_reference(dof, 2 * y)


def test_chisquare_sf_edge_values():
    for dof in (1, 2, 3, 19, 20, 40, 1001):
        for x in (0.0, -0.0, -1.0, 5e-324):
            assert float.hex(_chisquare_sf(dof, x)) == float.hex(1.0), (dof, x)
        for x in (1e300, math.inf):
            assert float.hex(_chisquare_sf(dof, x)) == float.hex(0.0), (dof, x)
        assert math.isnan(_chisquare_sf(dof, math.nan))


def _assert_matches_scipy_chisquare(counts, expected):
    """The statistic is scipy's bit for bit.  The p-value is held to the
    50-digit reference and to scipy's within 1e-14 relative, a bound that
    grows as y/50 from y = x/2 = 50 on because scipy's own error does (3.6e-14
    at y = 506 against the reference)."""
    ref = stats.chisquare(counts, expected)
    stat, p_val = _pearson_chisquare(counts, expected)
    assert float.hex(stat) == float.hex(float(ref.statistic))
    _assert_near_reference(len(counts) - 1, stat)
    assert p_val == pytest.approx(float(ref.pvalue), rel=1e-14 * max(1.0, stat / 100), abs=0.0)
    return p_val


def test_pearson_chisquare_matches_scipy_chisquare():
    rng = np.random.default_rng(20240)
    expected = np.full(20, 20000 / 20)
    for _ in range(200):
        counts = rng.multinomial(20000, rng.dirichlet(np.full(20, 50.0)))
        _assert_matches_scipy_chisquare(counts, expected)
    # Uniform draws, as the sampler check sees them when it passes.
    for _ in range(200):
        _assert_matches_scipy_chisquare(rng.multinomial(20000, np.full(20, 0.05)), expected)


def test_geometry_check_chisquare_p_matches_scipy_chisquare(tmp_path, capsys, monkeypatch):
    seen = []

    def recording(observed, expected):
        seen.append((np.array(observed), np.array(expected)))
        return _pearson_chisquare(observed, expected)

    monkeypatch.setattr(cli, "_pearson_chisquare", recording)
    out = tmp_path / "g"
    assert run_cli(["geometry-check", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads((out / "geometry_check.json").read_text())["rows"]
    p_rows = [row for row in rows if row["check"] == "sampler-radial-chisquare-p"]
    assert [row["manifold"] for row in p_rows] == ["flat", "sphere"]
    assert len(seen) == len(p_rows)
    for row, (counts, expected) in zip(p_rows, seen):
        assert counts.sum() == 20000 and counts.size == 20
        assert float.hex(row["value"]) == float.hex(_assert_matches_scipy_chisquare(counts, expected))


def test_pearson_chisquare_rejects_counts_that_miss_a_sample():
    counts = np.full(20, 1000)
    counts[7] -= 1  # one sample fell outside every bin
    expected = np.full(20, 20000 / 20)
    with pytest.raises(ValueError):
        stats.chisquare(counts, expected)
    with pytest.raises(InvalidArgumentError, match="differ"):
        _pearson_chisquare(counts, expected)


def test_converge_writes_report(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli(["dirac-converge", *SMALL, "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("report.csv", "report.dat", "report.json", "manifest.json", "timing.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "dirac-converge"
    assert "out" not in manifest["config"]
    assert "threads" not in manifest["config"]


def strict_json(text):
    """json.loads that refuses the NaN and Infinity tokens RFC 8259 lacks."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("args", [["--repeats", "1"], ["--dim", "3", "--repeats", "2"]])
def test_converge_json_is_strict_json(tmp_path, capsys, args):
    # One repeat leaves z without a standard error; it is written as null.
    # At d = 3 the oracle, bias and z columns hold numbers.
    out = tmp_path / "d"
    assert run_cli(["dirac-converge", "--n-grid", "60,120", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = strict_json((out / "report.json").read_text())["rows"]
    for name in ("manifest.json", "timing.json"):
        strict_json((out / name).read_text())
    for row in rows:
        assert all(isinstance(row[k], float) for k in ("oracle", "bias", "estimate_mean"))
        assert (row["z"] is None) == (args[1] == "1")


REGENERATED = (
    ("algebra-check", ["--seed", "4"]),
    ("specfun", ["--t-grid", "0.2,0.1", "--sign", "-1", "--dim", "4"]),
    ("geometry-check", ["--dim", "3"]),
    ("dirac-converge", [*SMALL, "--manifold", "sphere", "--family", "1"]),
    ("laplace-converge", [*SMALL, "--test-function", "squared-radius", "--lambda-power", "2"]),
)


def assert_manifest_regenerates(tmp_path, capsys, subcommand, args):
    first = tmp_path / subcommand / "one"
    second = tmp_path / subcommand / "two"
    assert run_cli([subcommand, *args, "--out", str(first)]) == 0
    printed = capsys.readouterr().out
    assert run_cli([
        subcommand, "--from-manifest", str(first / "manifest.json"), "--out", str(second),
    ]) == 0
    assert capsys.readouterr().out == printed
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    assert {"manifest.json", "timing.json"} < set(names)
    for name in names:
        if name != "timing.json":
            assert read(first / name) == read(second / name), (subcommand, name)


def test_manifest_regeneration_is_byte_identical(tmp_path, capsys):
    for subcommand, args in REGENERATED:
        assert_manifest_regenerates(tmp_path, capsys, subcommand, args)


def test_bound_report_manifest_regeneration(tmp_path, capsys):
    assert_manifest_regenerates(
        tmp_path, capsys, "bound-report",
        ["--hbar-grid", "1.0,0.5", "--n-copies", "8", "--sign", "-1"],
    )


def test_thread_count_does_not_change_bytes(tmp_path, capsys):
    one = tmp_path / "t1"
    four = tmp_path / "t4"
    assert run_cli(["laplace-converge", *SMALL, "--out", str(one)]) == 0
    assert run_cli(["laplace-converge", *SMALL, "--threads", "4", "--out", str(four)]) == 0
    capsys.readouterr()
    for name in ("report.csv", "report.dat", "report.json", "manifest.json"):
        assert read(one / name) == read(four / name)


def test_config_file_layering_and_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = dirac\nn_grid = 60,120\nrepeats = 2\nseed = 77\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(["dirac-converge", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert run_cli([
        "dirac-converge", "--config", str(cfg), "--seed", "78", "--out", str(out_b),
    ]) == 0
    capsys.readouterr()
    seed_a = json.loads((out_a / "manifest.json").read_text())["config"]["seed"]
    seed_b = json.loads((out_b / "manifest.json").read_text())["config"]["seed"]
    assert seed_a == 77
    assert seed_b == 78


def test_unknown_config_key_reports_line_number(tmp_path, capsys):
    # Unknown everywhere, or a setting of another subcommand: each subcommand
    # accepts only the keys it reads.
    cases = (
        ("dirac-converge", "mode = dirac\nmystery = 1\n", "mystery"),
        ("algebra-check", "seed = 3\ndim = 3\n", "dim"),
        ("specfun", "# table\nthreads = 2\n", "threads"),
        ("geometry-check", "dim = 2\nsign = -1\n", "sign"),
        ("bound-report", "n_copies = 8\nrepeats = 2\n", "repeats"),
        ("laplace-converge", "mode = laplace\nhbar_grid = 1.0\n", "hbar_grid"),
        ("dirac-converge", "mode = dirac\nhoeffding_eps = 0.1\n", "hoeffding_eps"),
    )
    for subcommand, text, key in cases:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run_cli([subcommand, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "bad.cfg:2" in err
        assert key in err
    # Flags follow the same declaration.
    assert run_cli(["algebra-check", "--threads", "2", "--out", str(tmp_path / "x")]) == 2
    assert "--threads" in capsys.readouterr().err
    assert run_cli(["dirac-converge", "--hoeffding-eps", "0.1", "--out", str(tmp_path / "x")]) == 2
    assert "--hoeffding-eps" in capsys.readouterr().err


def test_bad_config_value_reports_line_number(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = frog\n")
    assert run_cli(["dirac-converge", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:1" in err


def test_config_and_manifest_together_rejected(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(["dirac-converge", *SMALL, "--out", str(out)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("repeats = 2\n")
    code = run_cli([
        "dirac-converge", "--config", str(cfg),
        "--from-manifest", str(out / "manifest.json"), "--out", str(tmp_path / "y"),
    ])
    capsys.readouterr()
    assert code == 2


def test_manifest_subcommand_mismatch_rejected(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(["dirac-converge", *SMALL, "--out", str(out)]) == 0
    code = run_cli([
        "laplace-converge", "--from-manifest", str(out / "manifest.json"),
        "--out", str(tmp_path / "y"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "manifest" in err
    # A manifest of another artifact version, the one before d >= 3 reports
    # had oracles or the one before the Laplace reduction's order, is
    # rejected, naming both versions.
    manifest = json.loads((out / "manifest.json").read_text())
    for old in ("2", "3"):
        edited = tmp_path / f"v{old}.json"
        edited.write_text(json.dumps({**manifest, "artifact_version": old}))
        code = run_cli([
            "dirac-converge", "--from-manifest", str(edited), "--out", str(tmp_path / "z"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert repr(old) in err and repr(ARTIFACT_VERSION) in err
        assert not (tmp_path / "z").exists()


def test_manifest_values_go_through_the_setting_parsers(tmp_path, capsys):
    out = tmp_path / "s"
    assert run_cli(["specfun", "--t-grid", "0.2", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    for key, bad in (("dim", "3"), ("sign", 2), ("sign", "+1"), ("t_grid", ["0.2"]), ("seed", 1.5)):
        edited = tmp_path / f"{key}.json"
        edited.write_text(json.dumps({**manifest, "config": {**manifest["config"], key: bad}}))
        code = run_cli(["specfun", "--from-manifest", str(edited), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2, (key, bad)
        assert f"bad value for {key}" in err
    for config in ({**manifest["config"], "repeats": 2}, [1, 2]):
        edited = tmp_path / "other.json"
        edited.write_text(json.dumps({**manifest, "config": config}))
        code = run_cli(["specfun", "--from-manifest", str(edited), "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert code == 2
    # One sign parser: flag, config file and manifest agree on every spelling.
    cfg = tmp_path / "sign.cfg"
    cfg.write_text("sign = 1\nt_grid = 0.2\n")
    runs = {
        "flag": ["--sign", "1", "--t-grid", "0.2"],
        "flag-plus": ["--sign", "+1", "--t-grid", "0.2"],
        "config": ["--config", str(cfg)],
        "manifest": ["--from-manifest", str(out / "manifest.json")],
    }
    for name, args in runs.items():
        assert run_cli(["specfun", *args, "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        assert read(tmp_path / name / "manifest.json") == read(out / "manifest.json")
        assert read(tmp_path / name / "specfun.csv") == read(out / "specfun.csv")
    assert run_cli(["specfun", "--sign", "2", "--out", str(tmp_path / "x")]) == 2
    assert "sign must be +1 or -1" in capsys.readouterr().err


def test_failed_check_exits_1_and_prints_fail(tmp_path, capsys, monkeypatch):
    concrete = cli.commutator_concrete
    monkeypatch.setattr(cli, "commutator_concrete", lambda a, b: concrete(a, b) + 1e-9)
    assert run_cli(["algebra-check", "--out", str(tmp_path / "a")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL commutator-closed-vs-concrete: max err 1.000e-09")
    assert all(line.startswith("ok ") for line in lines[1:]) and len(lines) == 5
    rows = (tmp_path / "a" / "algebra_check.csv").read_text().splitlines()
    assert rows[1].endswith(",0") and all(row.endswith(",1") for row in rows[2:])

    monkeypatch.setattr(cli, "_pearson_chisquare", lambda observed, expected: (1e3, 0.0))
    assert run_cli(["geometry-check", "--out", str(tmp_path / "g")]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("ok ")]
    assert failed == [
        "FAIL flat/sampler-radial-chisquare-p: 0.000e+00",
        "FAIL sphere/sampler-radial-chisquare-p: 0.000e+00",
    ]
    rows = json.loads((tmp_path / "g" / "geometry_check.json").read_text())["rows"]
    assert [row["check"] for row in rows if not row["passed"]] == ["sampler-radial-chisquare-p"] * 2


def _status(row):
    return "ok" if row["passed"] else "FAIL"


# Each subcommand on a small input, the file its first table's rows are
# read back from, and the line it prints per row, as first formatted.
PRINTED = (
    (
        ["algebra-check", "--seed", "3"],
        "algebra_check.json",
        lambda row: f"{_status(row):4s} {row['check']}: max err {row['max_err']:.3e}",
    ),
    (
        ["specfun", "--t-grid", "0.3,0.1", "--dim", "4"],
        "specfun.json",
        lambda row: (
            f"t={row['t']}: A={row['A']:.12g} B={row['B']:.12g} C={row['C']:.12g} "
            f"m1par/t={row['m1_par_over_t']:.12g} |m2|/t={row['m2_norm_over_t']:.12g}"
        ),
    ),
    (
        ["geometry-check"],
        "geometry_check.json",
        lambda row: f"{_status(row):4s} {row['manifold']}/{row['check']}: {row['value']:.3e}",
    ),
    *(
        (
            [subcommand, *SMALL, "--manifold", "sphere"],
            "report.json",
            lambda row: (
                f"n={row['n']} hbar={row['hbar']:.6g} j={row['j']}: "
                f"mean={row['estimate_mean']:.6g} se={row['estimate_se']:.3g} "
                f"oracle={row['oracle']:.6g} target={row['target']:.6g} "
                f"abs_err={row['abs_err']:.6g}"
            ),
        )
        for subcommand in ("dirac-converge", "laplace-converge")
    ),
    (
        ["bound-report", "--n-copies", "8", "--hbar-grid", "1.0,0.5"],
        "bound_report.json",
        lambda row: f"hbar={row['hbar']}: rho={row['rho']:.6g} ratio={row['bound_ratio']:.6g}",
    ),
)


def test_printed_lines_format_the_first_table_rows(tmp_path, capsys):
    for idx, (args, table, line) in enumerate(PRINTED):
        out = tmp_path / str(idx)
        assert run_cli([*args, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        rows = strict_json((out / table).read_text())["rows"]
        assert len(rows) >= 2
        assert printed == [line(row) for row in rows], args[0]


def test_environment_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DIRACLAB_SEED", "91")
    out = tmp_path / "env"
    assert run_cli(["dirac-converge", *SMALL, "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 91
    over = tmp_path / "cli"
    assert run_cli(["dirac-converge", *SMALL, "--seed", "92", "--out", str(over)]) == 0
    capsys.readouterr()
    assert json.loads((over / "manifest.json").read_text())["config"]["seed"] == 92


def test_bad_environment_seed_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DIRACLAB_SEED", "not-a-seed")
    assert run_cli(["dirac-converge", *SMALL, "--out", str(tmp_path / "x")]) == 2
    assert "DIRACLAB_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("sub", [sub.name for sub in cli._SUBCOMMANDS])
def test_seed_out_of_range_is_a_config_error_for_every_subcommand(
    tmp_path, capsys, monkeypatch, sub
):
    # One seed parser reads the flag and the environment for every subcommand.
    out = tmp_path / "x"
    for seed, where in (("-1", "--seed"), ("-1", "DIRACLAB_SEED"), (str(2**64), "--seed")):
        if where == "--seed":
            monkeypatch.delenv("DIRACLAB_SEED", raising=False)
            args = [sub, "--seed", seed, "--out", str(out)]
        else:
            monkeypatch.setenv("DIRACLAB_SEED", seed)
            args = [sub, "--out", str(out)]
        assert run_cli(args) == 2, (sub, seed, where)
        assert capsys.readouterr().err == (
            f"config error: {where}: bad value for seed: "
            f"master seed must be an integer in [0, 2^64), got {seed}\n"
        )
        assert not out.exists()


def test_bad_grid_is_a_config_error(tmp_path, capsys):
    code = run_cli(["dirac-converge", "--n-grid", "50,20", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert "strictly increasing" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["geometry-check", "--dim", "1"],
            "--dim: bad value for dim: dim must be an integer >= 2, got 1",
        ),
        (
            ["geometry-check", "--dim", "0"],
            "--dim: bad value for dim: dim must be an integer >= 2, got 0",
        ),
        (
            ["bound-report", "--dim", "1"],
            "--dim: bad value for dim: dim must be an integer >= 2, got 1",
        ),
        (
            ["bound-report", "--grad-sup", "0"],
            "--grad-sup: bad value for grad_sup: grad_sup must be finite and > 0, got 0.0",
        ),
        (
            ["bound-report", "--grad-sup", "nan"],
            "--grad-sup: bad value for grad_sup: grad_sup must be finite and > 0, got nan",
        ),
        (
            ["bound-report", "--hbar-grid", "0"],
            "--hbar-grid: bad value for hbar_grid: hbar grid entry must be finite and > 0, got 0.0",
        ),
        (
            ["specfun", "--t-grid", "0"],
            "--t-grid: bad value for t_grid: t grid entry must be finite and > 0, got 0.0",
        ),
        (
            ["specfun", "--t-grid", "nan"],
            "--t-grid: bad value for t_grid: t grid entry must be finite and > 0, got nan",
        ),
        (
            ["bound-report", "--hbar-grid", ","],
            "--hbar-grid: bad value for hbar_grid: expected at least one value, got ','",
        ),
        (
            ["specfun", "--t-grid", ","],
            "--t-grid: bad value for t_grid: expected at least one value, got ','",
        ),
        (
            ["dirac-converge", "--n-grid", ","],
            "--n-grid: bad value for n_grid: expected at least one value, got ','",
        ),
    ],
)
def test_out_of_range_setting_is_a_config_error(tmp_path, capsys, args, message):
    out = tmp_path / "x"
    assert run_cli([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_bad_grid_from_a_config_file_or_manifest_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "x"
    cfg = tmp_path / "grid.cfg"
    manifest = tmp_path / "manifest.json"
    header = {"artifact_version": ARTIFACT_VERSION}
    for subcommand, key in (
        ("specfun", "t_grid"),
        ("bound-report", "hbar_grid"),
        ("dirac-converge", "n_grid"),
    ):
        cfg.write_text(f"{key} = ,\n")
        manifest.write_text(json.dumps({**header, "subcommand": subcommand, "config": {key: []}}))
        for source in (["--config", str(cfg)], ["--from-manifest", str(manifest)]):
            assert run_cli([subcommand, *source, "--out", str(out)]) == 2
            assert f"bad value for {key}: expected at least one value" in capsys.readouterr().err
    for subcommand, key in (("specfun", "t_grid"), ("bound-report", "hbar_grid")):
        cfg.write_text(f"{key} = 0.2, 0\n")
        manifest.write_text(json.dumps({**header, "subcommand": subcommand, "config": {key: [0.2, 0.0]}}))
        for source, where in (
            (["--config", str(cfg)], f"{cfg}:1"),
            (["--from-manifest", str(manifest)], f"manifest {manifest}"),
        ):
            assert run_cli([subcommand, *source, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            entry = key.replace("_", " ") + " entry"
            assert err == (
                f"config error: {where}: bad value for {key}: "
                f"{entry} must be finite and > 0, got 0.0\n"
            )
    assert not out.exists()


# Each setting with a rule: a subcommand that reads it, a bad value as a
# config-file line and as a manifest entry, and the rule's text for it.
BAD_SETTINGS = (
    ("dirac-converge", "dim", "1", 1, "dim must be an integer >= 2, got 1"),
    ("dirac-converge", "alpha", "0", 0.0, "alpha must be finite and > 0, got 0.0"),
    (
        "dirac-converge", "n_grid", "50, 20", [50, 20],
        "n grid must be strictly increasing, got (50, 20)",
    ),
    ("dirac-converge", "repeats", "0", 0, "repeats must be an integer >= 1, got 0"),
    ("dirac-converge", "delta_u", "-1", -1.0, "delta_u must be finite and > 0, got -1.0"),
    (
        "laplace-converge", "lambda_power", "3", 3,
        "lambda_power must be an integer in [1, 3), got 3",
    ),
    ("dirac-converge", "threads", "0", 0, "threads must be an integer >= 1, got 0"),
    (
        "bound-report", "manifold", "torus", "torus",
        "manifold must be one of ('flat', 'sphere'), got 'torus'",
    ),
    ("specfun", "t_grid", "0.2, 0", [0.2, 0.0], "t grid entry must be finite and > 0, got 0.0"),
    (
        "bound-report", "hbar_grid", "1.0, -0.5", [1.0, -0.5],
        "hbar grid entry must be finite and > 0, got -0.5",
    ),
    ("bound-report", "n_copies", "0", 0, "n_copies must be an integer >= 1, got 0"),
    ("bound-report", "grad_sup", "0", 0.0, "grad_sup must be finite and > 0, got 0.0"),
)


@pytest.mark.parametrize(
    "subcommand, key, text, value, rule", BAD_SETTINGS, ids=[case[1] for case in BAD_SETTINGS]
)
def test_bad_value_names_its_config_line_or_manifest(
    tmp_path, capsys, subcommand, key, text, value, rule
):
    out = tmp_path / "x"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "artifact_version": ARTIFACT_VERSION, "subcommand": subcommand, "config": {key: value},
    }))
    for source, where in (
        (["--config", str(cfg)], f"{cfg}:1"),
        (["--from-manifest", str(manifest)], f"manifest {manifest}"),
    ):
        assert run_cli([subcommand, *source, "--out", str(out)]) == 2, where
        assert capsys.readouterr().err == f"config error: {where}: bad value for {key}: {rule}\n"
        assert not out.exists()


def test_dump_operators_writes_matrix_market(tmp_path, capsys):
    for manifold in ("flat", "sphere"):
        dump = tmp_path / manifold
        assert run_cli([
            "dirac-converge", "--manifold", manifold, "--n-grid", "60", "--repeats", "2",
            "--dump-operators", str(dump), "--out", str(tmp_path / "o"),
        ]) == 0
        capsys.readouterr()
        text = (dump / "dirac_n60.mtx").read_text().splitlines()
        assert text[0] == "%%MatrixMarket matrix coordinate complex general"
        dims = text[1].split()
        assert int(dims[2]) == len(text) - 2
        # The dump holds the first four stars of the run's first repeat: the
        # sampler's output depends on the size it is asked for, so a draw of
        # four stars alone would give others.
        m = make_manifold(manifold, 2)
        fp = framed_point(m)
        rng = np.random.default_rng(np.random.SeedSequence([DEFAULT_MASTER_SEED, 0, 0]))
        stars = sample_log_coords(m, fp, rng, 60 * 3).reshape(60, 3, 2)[:4]
        ref = tmp_path / f"{manifold}.mtx"
        assemble_dirac(stars, m, fp, hbar_schedule(60, 0.2)).export_matrix_market(ref)
        assert read(dump / "dirac_n60.mtx") == read(ref)


def test_bound_report_artifacts(tmp_path, capsys):
    out = tmp_path / "b"
    assert run_cli([
        "bound-report", "--hbar-grid", "1.0,0.5", "--n-copies", "10", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    payload = json.loads((out / "bound_report.json").read_text())
    assert [row["hbar"] for row in payload["rows"]] == [1.0, 0.5]
    assert all(row["rho"] >= 0.0 for row in payload["rows"])
    assert (out / "bound_report.csv").exists()
    assert (out / "bound_report.dat").exists()


def test_bound_report_scales_past_a_thousand_copies(tmp_path, capsys):
    out = tmp_path / "big"
    assert run_cli(["bound-report", "--n-copies", "1000", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads((out / "bound_report.json").read_text())["rows"]
    assert len(rows) == 4
    assert all(math.isfinite(row["rho"]) and math.isfinite(row["bound_ratio"]) for row in rows)


def test_unknown_test_function_is_a_config_error(tmp_path, capsys):
    code = run_cli([
        "dirac-converge", *SMALL, "--test-function", "nope", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: --test-function: bad value for test_function: "
        "unknown test function 'nope'\n"
    )


@pytest.mark.parametrize("name", ["linear-xfoo", "embedding-x", "linear-x", "linear-x1.0"])
def test_malformed_test_function_name_exits_with_one_line(tmp_path, capsys, name):
    args = ["--test-function", name, "--out", str(tmp_path / "x")]
    assert run_cli(["dirac-converge", *SMALL, *args]) == 2
    assert capsys.readouterr().err == (
        f"config error: --test-function: bad value for test_function: "
        f"unknown test function {name!r}\n"
    )


# Bad values that only a setting's parser rejects: a subcommand, the
# setting, the value as text and as a manifest entry, and the rule's text.
PARSER_ONLY_SETTINGS = (
    *(
        (
            "dirac-converge", "test_function", name, name,
            f"unknown test function {name!r}",
        )
        for name in ("linear-xfoo", "linear-x0", "embedding-x0", "linear-x1.0")
    ),
    ("specfun", "dim", "2", 2, "dim must be an integer >= 3, got 2"),
)


@pytest.mark.parametrize(
    "subcommand, key, text, value, rule",
    PARSER_ONLY_SETTINGS,
    ids=[f"{case[1]}={case[2]}" for case in PARSER_ONLY_SETTINGS],
)
def test_bad_value_from_every_source_is_a_located_config_error(
    tmp_path, capsys, subcommand, key, text, value, rule
):
    out = tmp_path / "x"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "artifact_version": ARTIFACT_VERSION, "subcommand": subcommand, "config": {key: value},
    }))
    flag = "--" + key.replace("_", "-")
    for source, where in (
        ([flag, text], flag),
        (["--config", str(cfg)], f"{cfg}:1"),
        (["--from-manifest", str(manifest)], f"manifest {manifest}"),
    ):
        assert run_cli([subcommand, *source, "--out", str(out)]) == 2, where
        assert capsys.readouterr().err == f"config error: {where}: bad value for {key}: {rule}\n"
        assert not out.exists()


def test_specfun_quadrature_failures_exit_1(tmp_path, capsys, monkeypatch):
    # t = 1e-5 does not converge on the default ladder.  No specfun input is
    # known to give a non-finite kernel mass, so a NaN mass stands in for one;
    # it fails at the first level.
    assert run_cli(["specfun", "--t-grid", "1e-5", "--out", str(tmp_path / "a")]) == 1
    assert "did not converge to 1e-10 after 6 refinements" in capsys.readouterr().err
    shell_moments = specfun._shell_moments

    def nan_mass(d, beta, r, sigma):
        mass, *moments = shell_moments(d, beta, r, sigma)
        return (np.full_like(mass, math.nan), *moments)

    monkeypatch.setattr(specfun, "_shell_moments", nan_mass)
    assert run_cli(["specfun", "--t-grid", "0.3", "--out", str(tmp_path / "b")]) == 1
    assert "not finite at refinement level 0" in capsys.readouterr().err


def test_specfun_overflow_exits_1_with_one_line(tmp_path, capsys):
    out = tmp_path / "big"
    assert run_cli(["specfun", "--dim", "2040", "--t-grid", "0.3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "numeric failure: lemma_abc: the constant term of C overflows at d = 2040, t = 0.3\n"
    )
    assert not out.exists()


def test_laplace_converge_family_writes_family_rows(tmp_path, capsys):
    args = ["laplace-converge", "--n-grid", "100,1000", "--repeats", "3"]
    plain, family = tmp_path / "plain", tmp_path / "family"
    assert run_cli([*args, "--out", str(plain)]) == 0
    assert run_cli([*args, "--family", "1", "--out", str(family)]) == 0
    capsys.readouterr()
    report = json.loads((family / "report.json").read_text())
    assert report["metadata"]["family_check"] is True
    assert [(r["n"], r["family_size"]) for r in report["family"]] == [(100, 10), (1000, 10)]
    # The test function's rows do not depend on the flag.
    for name in ("report.csv", "report.dat"):
        assert read(family / name) == read(plain / name)
    assert report["rows"] == json.loads((plain / "report.json").read_text())["rows"]


@pytest.mark.parametrize("mode", ["dirac", "laplace"])
def test_converge_timing_stages_and_thread_independent_bytes(tmp_path, capsys, mode):
    for manifold in ("flat", "sphere"):
        one = tmp_path / manifold / "t1"
        two = tmp_path / manifold / "t2"
        args = [f"{mode}-converge", *SMALL, "--manifold", manifold]
        assert run_cli([*args, "--out", str(one)]) == 0
        assert run_cli([*args, "--threads", "2", "--out", str(two)]) == 0
        capsys.readouterr()
        for name in ("report.csv", "report.dat", "report.json", "manifest.json"):
            assert read(one / name) == read(two / name)
        counters = []
        for out in (one, two):
            timing = json.loads((out / "timing.json").read_text())
            assert set(timing) == {"wall_time_s", "stages_s", "counters", "peak_rss_mb"}
            assert isinstance(timing["peak_rss_mb"], float) and timing["peak_rss_mb"] > 0.0
            assert set(timing["stages_s"]) == {"sampling", "estimation", "oracles"}
            assert all(s >= 0.0 for s in timing["stages_s"].values())
            assert timing["wall_time_s"] >= timing["stages_s"]["oracles"]
            # n grid 60, 120 with d + 1 = 3 slots, 2 repeats each; d = 2 oracles
            # per grid point for the frame derivative, one for the Laplacian.
            # Each repeat's sampler fills its batch in one round: flat keeps
            # every proposal it examines, the sphere at d = 2, delta_u = 1
            # about 92% of them.
            samples = (60 + 120) * 3 * 2
            got = dict(timing["counters"])
            proposals = got.pop("proposals_evaluated")
            assert got == {
                "samples_drawn": samples,
                "sampler_rounds": 4,
                "repeats": 4,
                "oracle_calls": 4 if mode == "dirac" else 2,
            }
            if manifold == "flat":
                assert proposals == samples
            else:
                assert 0.88 < samples / proposals < 0.96
            counters.append(timing["counters"])
        assert counters[0] == counters[1]
