"""End-to-end tests of the command line interface."""

from __future__ import annotations

import json
import math
import os

import pytest

from diraclab.cli import main

SMALL = ["--n-grid", "60,120", "--repeats", "2"]


def run_cli(args):
    return main(list(args))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_no_arguments_is_a_usage_error(capsys):
    assert run_cli([]) == 2
    capsys.readouterr()


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


def test_manifest_regeneration_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "one"
    second = tmp_path / "two"
    assert run_cli(["dirac-converge", *SMALL, "--out", str(first)]) == 0
    assert run_cli([
        "dirac-converge", "--from-manifest", str(first / "manifest.json"),
        "--out", str(second),
    ]) == 0
    capsys.readouterr()
    for name in ("report.csv", "report.dat", "report.json", "manifest.json"):
        assert read(first / name) == read(second / name)


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
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = dirac\nmystery = 1\n")
    assert run_cli(["dirac-converge", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err
    assert "mystery" in err


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


def test_bad_grid_is_a_config_error(tmp_path, capsys):
    code = run_cli(["dirac-converge", "--n-grid", "50,20", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert "strictly increasing" in err


def test_dump_operators_writes_matrix_market(tmp_path, capsys):
    out = tmp_path / "o"
    dump = tmp_path / "ops"
    assert run_cli([
        "dirac-converge", "--n-grid", "60", "--repeats", "2",
        "--dump-operators", str(dump), "--out", str(out),
    ]) == 0
    capsys.readouterr()
    text = (dump / "dirac_n60.mtx").read_text().splitlines()
    assert text[0] == "%%MatrixMarket matrix coordinate complex general"
    dims = text[1].split()
    assert int(dims[2]) == len(text) - 2


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


def test_bound_report_manifest_regeneration(tmp_path, capsys):
    first = tmp_path / "one"
    second = tmp_path / "two"
    args = ["bound-report", "--hbar-grid", "1.0,0.5", "--n-copies", "8"]
    assert run_cli([*args, "--out", str(first)]) == 0
    assert run_cli([
        "bound-report", "--from-manifest", str(first / "manifest.json"),
        "--out", str(second),
    ]) == 0
    capsys.readouterr()
    for name in ("bound_report.csv", "bound_report.json", "manifest.json"):
        assert read(first / name) == read(second / name)


def test_bound_report_scales_past_a_thousand_copies(tmp_path, capsys):
    out = tmp_path / "big"
    assert run_cli(["bound-report", "--n-copies", "1000", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads((out / "bound_report.json").read_text())["rows"]
    assert len(rows) == 4
    assert all(math.isfinite(row["rho"]) and math.isfinite(row["bound_ratio"]) for row in rows)


def test_unknown_test_function_exits_with_runtime_failure(tmp_path, capsys):
    code = run_cli([
        "dirac-converge", *SMALL, "--test-function", "nope", "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "unknown test function" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["dirac", "laplace"])
def test_converge_timing_stages_and_thread_independent_bytes(tmp_path, capsys, mode):
    one = tmp_path / "t1"
    two = tmp_path / "t2"
    assert run_cli([f"{mode}-converge", *SMALL, "--out", str(one)]) == 0
    assert run_cli([f"{mode}-converge", *SMALL, "--threads", "2", "--out", str(two)]) == 0
    capsys.readouterr()
    for name in ("report.csv", "report.dat", "report.json", "manifest.json"):
        assert read(one / name) == read(two / name)
    for out in (one, two):
        timing = json.loads((out / "timing.json").read_text())
        assert set(timing) == {"wall_time_s", "stages_s", "counters"}
        assert set(timing["stages_s"]) == {"sampling", "estimation", "oracles"}
        assert all(s >= 0.0 for s in timing["stages_s"].values())
        assert timing["wall_time_s"] >= timing["stages_s"]["oracles"]
        # n grid 60, 120 with d + 1 = 3 slots, 2 repeats each; d = 2 oracles per
        # grid point for the frame derivative, one for the Laplacian.
        assert timing["counters"] == {
            "samples_drawn": (60 + 120) * 3 * 2,
            "repeats": 4,
            "oracle_calls": 4 if mode == "dirac" else 2,
        }
