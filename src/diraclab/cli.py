"""Command-line interface: checks, tables, convergence runs, and bound reports.

Every subcommand resolves each setting it reads from (highest precedence
first) its command-line flag, a key=value config file or a previously
written manifest, the DIRACLAB_SEED environment variable (seed only), and its
built-in default.  One parser per setting reads the flag, the config-file
line and the manifest entry alike and is the setting's one check, by
``RunConfig``'s rule for a convergence-run setting, else by an ``errors``
rule: ``dim`` >= 2 (>= 3 for specfun, whose declaration carries that
parser); ``repeats``, ``threads`` and ``n_copies`` >= 1; ``alpha``,
``delta_u``, ``grad_sup`` and each ``t_grid`` and ``hbar_grid`` entry finite
and > 0; ``lambda_power`` 1 or 2; ``n_grid`` strictly increasing; ``seed``
in [0, 2^64); ``sign`` +1 or -1; ``test_function`` ``auto``,
``squared-radius``, ``linear-x<k>`` or ``embedding-x<k>`` with k a decimal
index >= 1.  A subcommand accepts exactly the settings it reads, and no
handler checks a setting.  The resolved configuration is echoed to
``manifest.json``; re-running from a manifest reproduces every output byte
for byte.  Wall time and the process's peak resident set size (for the
convergence runs and algebra-check also per-stage seconds and counters) go
to a separate ``timing.json``, which is informational and excluded from that
contract, as are the execution-only settings (output directory, thread
count).

Exit codes: 0 success, 1 failed checks or runtime failure, 2 configuration
errors.  A value its parser rejects is reported with its source: its
``--flag``, its config file and line (``path:line``), its ``manifest <path>``
or DIRACLAB_SEED.  A bound that joins two settings is a runtime failure: a
test-function index past the manifold's coordinates, or a ``delta_u`` the
sphere cannot hold.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import sys
import time
from typing import Callable

import numpy as np

from .clifford import Multivector, mv_mul
from .errors import (
    ConfigError,
    DiracLabError,
    InvalidArgumentError,
    NumericFailureError,
    _integer,
    _positive,
)
from .estimators import (
    ARTIFACT_VERSION,
    CSV_COLUMNS,
    DEFAULT_MASTER_SEED,
    RunConfig,
    _json_text,
    _repeat_stars,
    convergence_run,
    dirac_estimate,
    hbar_schedule,
    linear_coordinate_function,
    s_jn,
    table_texts,
)
from .graphdirac import assemble_dirac, pf_bound_report, star_anchors, star_weights
from .liealg import (
    DiagonalObservable,
    TensorElement,
    MAT_J,
    MAT_Y,
    build_w,
    commutator_closed_form,
    commutator_concrete,
    dirac_from_w,
    double_commutator_closed_form,
    laplacian_closed_form,
    psi_map_to_clifford,
    psi_reduce,
    realize_commutator_edges,
)
from .manifold import (
    _KINDS,
    _radial_density,
    exp_map,
    framed_point,
    jacobi_expansion_check,
    log_map,
    make_manifold,
    neighbourhood_volume,
    sample_log_coords,
    vol_density,
)
from .specfun import lemma_abc, vmf_moments

__all__ = ["main"]


# ---------------------------------------------------------------------------
# settings


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _csv_of(parse):
    """A parser of a non-empty comma-separated list of ``parse`` values."""

    def parse_csv(text: str) -> tuple:
        values = tuple(parse(part) for part in map(str.strip, text.split(",")) if part)
        if not values:
            raise ValueError(f"expected at least one value, got {text!r}")
        return values

    return parse_csv


# The text parser of each RunConfig field but mode, by field name.
_RUN_BASE = {
    "manifold": str,
    "dim": int,
    "alpha": float,
    "n_grid": _csv_of(int),
    "repeats": int,
    "master_seed": int,
    "sigma": int,
    "test_function": str,
    "delta_u": float,
    "lambda_power": int,
    "family_check": _parse_bool,
    "threads": int,
}
# Each RunConfig field but mode, and the setting it is read from.
_RUN_SETTING = {
    f.name: {"master_seed": "seed", "sigma": "sign"}.get(f.name, f.name)
    for f in dataclasses.fields(RunConfig)
    if f.name != "mode"
}


def _run_parser(field: str):
    """``field``'s text parser, then RunConfig's check of the value (every
    other field at its default); the value as RunConfig stores it."""
    base = _RUN_BASE[field]
    return lambda text: getattr(RunConfig(**{field: base(text)}), field)


# The one parser, and so the one check, of each setting unless a subcommand
# declares its own: it reads the setting's flag, config-file line, manifest
# entry and (seed only) environment variable; ``_parse`` names the source of
# a value it rejects.
_PARSERS = {
    "out": str,
    **{key: _run_parser(field) for field, key in _RUN_SETTING.items()},
    "t_grid": _csv_of(lambda text: _positive("t grid entry", float(text))),
    "hbar_grid": _csv_of(lambda text: _positive("hbar grid entry", float(text))),
    "n_copies": lambda text: _integer("n_copies", int(text), 1),
    "grad_sup": lambda text: _positive("grad_sup", float(text)),
}
# Settings that change where a run writes or how fast it goes, never its
# bytes; the manifest leaves them out.
_EXECUTION_ONLY = ("out", "threads")


def _settings(**defaults) -> dict:
    """Setting -> default for a subcommand: ``out`` and ``seed``, then its own."""
    return {"out": "out", "seed": DEFAULT_MASTER_SEED, **defaults}


# The convergence runs read those settings, with RunConfig's defaults.
_RUN_DEFAULTS = _settings(**{key: getattr(RunConfig, name) for name, key in _RUN_SETTING.items()})


@dataclasses.dataclass(frozen=True)
class _Subcommand:
    """One subcommand, declared once: the settings it reads with their
    defaults drive its flags, its config-file keys, its manifest echo and the
    manifest reload.  ``fixed`` entries are echoed to the manifest with one
    value that a config file or manifest may repeat but not change;
    ``parsers`` replace the ``_PARSERS`` entry of a setting whose bound is
    this subcommand's own.  The handler computes the run's ``_Outputs``;
    ``line`` formats a printed row."""

    name: str
    help: str
    handler: Callable
    line: str
    defaults: dict
    fixed: dict = dataclasses.field(default_factory=dict)
    parsers: dict = dataclasses.field(default_factory=dict)
    dumps_operators: bool = False


@dataclasses.dataclass(frozen=True)
class _Outputs:
    """What a handler computed.  ``tables`` maps a file stem to (columns,
    rows), each written as .csv and .dat; the first stem names the structured
    .json, which holds ``json_text`` or, by default, the config, the first
    table's rows under "rows" and every other table's rows under its stem.
    ``timing`` joins the wall time, ``resolved`` (settings whose default the
    run resolved) the manifest; ``operators`` maps a dump file to its operator."""

    tables: dict
    timing: dict = dataclasses.field(default_factory=dict)
    json_text: str | None = None
    resolved: dict = dataclasses.field(default_factory=dict)
    operators: dict = dataclasses.field(default_factory=dict)


def _flag(key: str) -> str:
    return "--family" if key == "family_check" else "--" + key.replace("_", "-")


def _parse(sub: _Subcommand, key: str, text: str, where: str):
    try:
        return sub.parsers.get(key, _PARSERS[key])(text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


def _layer_entry(sub: _Subcommand, key: str, text: str, where: str) -> dict:
    """One config-file or manifest entry as {key: value}; a fixed entry must
    hold its value and adds nothing."""
    fixed = sub.fixed.get(key)
    if fixed is not None:
        if text != fixed:
            raise ConfigError(f"{where}: {key} is {fixed!r} for {sub.name}, got {text!r}")
        return {}
    if key not in sub.defaults:
        raise ConfigError(f"{where}: unknown key {key!r} for {sub.name}")
    return {key: _parse(sub, key, text, where)}


def parse_config_file(path: str, sub: _Subcommand) -> dict:
    """Parse a key=value config file.  Keys the subcommand does not read and
    bad values are hard, line-numbered errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out.update(_layer_entry(sub, key.strip(), value.strip(), f"{path}:{lineno}"))
    return out


def _manifest_text(value) -> str:
    """A manifest value in config-file spelling: a list comma-joined, a scalar
    as JSON writes it (floats round-trip exactly)."""
    if isinstance(value, list):
        return ",".join(map(_manifest_text, value))
    return json.dumps(value)


def _load_manifest(path: str, sub: _Subcommand) -> dict:
    """The settings of a manifest written by ``sub`` at this artifact
    version, each through its parser; a string stands only for a string
    setting."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ConfigError(f"manifest {path} holds no config object")
    if manifest.get("artifact_version") != ARTIFACT_VERSION:
        raise ConfigError(
            f"manifest {path} has artifact version {manifest.get('artifact_version')!r}, "
            f"this diraclab writes version {ARTIFACT_VERSION!r}"
        )
    if manifest.get("subcommand") != sub.name:
        raise ConfigError(
            f"manifest {path} was written by {manifest.get('subcommand')!r}, "
            f"not {sub.name!r}"
        )
    out = {}
    for key, value in manifest["config"].items():
        text = value if isinstance(value, str) else _manifest_text(value)
        entry = _layer_entry(sub, key, text, f"manifest {path}")
        if entry and isinstance(entry[key], str) != isinstance(value, str):
            raise ConfigError(f"manifest {path}: bad value for {key}: {value!r}")
        out.update(entry)
    return out


def _resolve(args, sub: _Subcommand) -> dict:
    """Every setting ``sub`` reads, from the first of: its flag, the config
    file or manifest, DIRACLAB_SEED (seed only), its default."""
    if args.config and args.from_manifest:
        raise ConfigError("--config and --from-manifest cannot be combined")
    if args.config:
        layer = parse_config_file(args.config, sub)
    elif args.from_manifest:
        layer = _load_manifest(args.from_manifest, sub)
    else:
        layer = {}
    values = {}
    for key, default in sub.defaults.items():
        flag = getattr(args, key)
        if flag is not None:
            values[key] = _parse(sub, key, flag, _flag(key))
        elif key in layer:
            values[key] = layer[key]
        elif key == "seed" and "DIRACLAB_SEED" in os.environ:
            values[key] = _parse(sub, key, os.environ["DIRACLAB_SEED"], "DIRACLAB_SEED")
        else:
            values[key] = default
    return values


# ---------------------------------------------------------------------------
# output


def _write_text(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _run(sub: _Subcommand, values: dict, dump_dir: str | None) -> int:
    """Time ``sub``'s handler on the resolved ``values`` and put out its
    ``_Outputs``: ``manifest.json`` (the settings less the execution-only
    ones, with the fixed and the resolved ones), the tables, ``timing.json``
    and the operator dumps.  Each row of the first table is printed through
    ``sub.line``, with status ok or FAIL from its "passed" entry; the exit
    code is 1 exactly when one of those rows has not passed, else 0."""
    t0 = time.perf_counter()
    outputs = sub.handler(sub, values, bool(dump_dir))
    timing = {**outputs.timing, "wall_time_s": time.perf_counter() - t0}
    timing["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    config = {k: v for k, v in values.items() if k not in _EXECUTION_ONLY}
    config.update(sub.fixed, **outputs.resolved)
    out_dir = values["out"]
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"artifact_version": ARTIFACT_VERSION, "subcommand": sub.name, "config": config}
    _write_text(out_dir, "manifest.json", _json_text(manifest))
    payload = {"config": config}
    for idx, (stem, (columns, rows)) in enumerate(outputs.tables.items()):
        csv_text, dat_text = table_texts(columns, rows)
        _write_text(out_dir, stem + ".csv", csv_text)
        _write_text(out_dir, stem + ".dat", dat_text)
        payload["rows" if idx == 0 else stem] = rows
    first, (_, rows) = next(iter(outputs.tables.items()))
    _write_text(out_dir, first + ".json", outputs.json_text or _json_text(payload))
    _write_text(out_dir, "timing.json", _json_text(timing))
    for name, dirac in outputs.operators.items():
        os.makedirs(dump_dir, exist_ok=True)
        dirac.export_matrix_market(os.path.join(dump_dir, name))
    for row in rows:
        print(sub.line.format(status="ok" if row.get("passed", True) else "FAIL", **row))
    return 0 if all(row.get("passed", True) for row in rows) else 1


def _check_row(check: str, value, threshold: float, passed=None, column="value", **labels) -> dict:
    """One row of a check table: ``value``, under ``column``, against
    ``threshold``; the row passes when value <= threshold unless ``passed``
    says otherwise."""
    return {
        **labels,
        "check": check,
        column: value,
        "threshold": threshold,
        "passed": value <= threshold if passed is None else passed,
    }


# ---------------------------------------------------------------------------
# algebra-check


def _random_operator(rng, n_pairs: int, hbar: float):
    grid = 2 * n_pairs
    edges = [(i, j) for i in range(1, grid + 1) for j in range(i + 1, grid + 1)]
    count = int(rng.integers(1, len(edges) + 1))
    picked = rng.choice(len(edges), size=count, replace=False)
    weights = {}
    for idx in sorted(int(k) for k in picked):
        w = float(rng.uniform(0.2, 2.0)) * (-1.0, 1.0)[rng.integers(0, 2)]
        weights[edges[idx]] = w
    w_op = build_w(weights, s=2, n_pairs=n_pairs)
    return dirac_from_w(w_op, hbar)


def _random_instance(rng):
    """A random Dirac operator on 1 to 8 pairs and a diagonal observable."""
    n_pairs = int(rng.integers(1, 9))
    hbar = float(rng.uniform(0.1, 2.0))
    dirac = _random_operator(rng, n_pairs, hbar)
    return dirac, DiagonalObservable(tuple(rng.uniform(-3.0, 3.0, size=2 * n_pairs)))


def _word_path_components(m, fp, a, v, hbar: float) -> list:
    """Frame-derivative estimate through the word calculus: the averaged
    commutator element of the star samples ``v`` (log coordinates, shape
    (n, d+1, d)), reduced to a grade-1 multivector and rescaled by Vol/hbar."""
    w = star_weights(v, star_anchors(m.d)[0], fp, hbar, 1)
    coeff = (w * (a.evaluate(v) - a.evaluate(np.zeros(m.d)))).mean(axis=0)
    terms = {((1, 2 + slot),): (1j / hbar) * coeff[slot] * MAT_Y for slot in range(m.d + 1)}
    mv, _factor = psi_map_to_clifford(TensorElement((m.d + 3) // 2, terms), m.d, hbar)
    scaled = mv.scale(neighbourhood_volume(m, fp) / hbar)
    return [scaled.component(1 << k) for k in range(m.d)]


def _cmd_algebra_check(sub, values, dump) -> _Outputs:
    """The algebra-check rows, and their timing: seconds per check row in
    ``stages_s`` and, in ``counters``, the instances checked and the word
    products the free product formed (two per ordered pair of edges per
    double commutator)."""
    seed = values["seed"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    checks = []  # (check, instances, max error, threshold, seconds)
    products = 0

    t0 = time.perf_counter()
    err = 0.0
    for _ in range(200):
        dirac, obs = _random_instance(rng)
        lhs = realize_commutator_edges(commutator_closed_form(dirac, obs))
        rhs = commutator_concrete(dirac.concrete, obs.realize())
        err = max(err, float(np.max(np.abs(lhs - rhs))))
    checks.append(("commutator-closed-vs-concrete", 200, err, 1e-12, time.perf_counter() - t0))

    t_exact = 0.0
    t_formula = 0.0
    err_exact = 0.0
    err_formula = 0.0
    for _ in range(100):
        t0 = time.perf_counter()
        dirac, obs = _random_instance(rng)
        lap = laplacian_closed_form(dirac, obs)
        reduced = psi_reduce(double_commutator_closed_form(dirac, obs)).scale(0.5)
        err_exact = max(err_exact, reduced.max_abs_diff(lap))
        products += 2 * len(dirac.weights) ** 2
        t1 = time.perf_counter()
        t_exact += t1 - t0
        coeff = -sum(
            w * w * obs.alpha(i, j) for (i, j), w in sorted(dirac.weights.items())
        ) / (dirac.hbar * dirac.hbar)
        direct = TensorElement(dirac.n_pairs, {(): coeff * MAT_J})
        # Relative scale: the two paths sum the same products in different
        # orders, so only agreement up to roundoff on |coeff| is meaningful.
        scale = max(1.0, abs(coeff))
        err_formula = max(err_formula, lap.max_abs_diff(direct) / scale)
        t_formula += time.perf_counter() - t1
    checks.append(("bicommutator-halved-vs-laplacian", 100, err_exact, 0.0, t_exact))
    checks.append(("laplacian-coefficient-formula", 100, err_formula, 1e-12, t_formula))

    t0 = time.perf_counter()
    err = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        mvs = []
        for _k in range(3):
            coeffs = {}
            for mask in rng.integers(0, 1 << d, size=4):
                coeffs[int(mask)] = float(rng.uniform(-2.0, 2.0))
            mvs.append(Multivector(d, coeffs))
        x, y, z = mvs
        lhs = mv_mul(mv_mul(x, y), z)
        rhs = mv_mul(x, mv_mul(y, z))
        diff = lhs - rhs
        err = max(err, max((abs(c) for c in diff.coeffs.values()), default=0.0))
    checks.append(("clifford-associativity", 100, err, 1e-12, time.perf_counter() - t0))

    t0 = time.perf_counter()
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    a = linear_coordinate_function(m, fp, 1)
    rng2 = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    v = sample_log_coords(m, fp, rng2, 64 * 3).reshape(64, 3, 2)
    hbar = 0.25
    word = _word_path_components(m, fp, a, v, hbar)
    est = dirac_estimate(m, v, a, fp, hbar)
    err = 0.0
    for j in (1, 2):
        direct = s_jn(m, v[:, j - 1, :], a, fp, j, hbar)
        err = max(err, abs(word[j - 1] - direct), abs(word[j - 1] - float(est[j - 1])))
    checks.append(("estimator-word-path-vs-direct", 64, err, 1e-12, time.perf_counter() - t0))

    rows = [
        _check_row(check, err, threshold, column="max_err", instances=n)
        for check, n, err, threshold, _ in checks
    ]
    columns = ("check", "instances", "max_err", "threshold", "passed")
    counters = {"instances": sum(n for _, n, *_ in checks), "word_products": products}
    return _Outputs(
        {"algebra_check": (columns, rows)},
        {"stages_s": {c[0]: c[-1] for c in checks}, "counters": counters},
    )


# ---------------------------------------------------------------------------
# specfun table


def _cmd_specfun(sub, values, dump) -> _Outputs:
    dim = values["dim"]
    direction = np.zeros(dim)
    direction[0] = 1.0
    rows = []
    for t in values["t_grid"]:
        a_val, b_val, c_val = lemma_abc(dim, t)
        m1, m2 = vmf_moments(dim, direction, t, sigma=values["sign"])
        m2_norm = float(np.max(np.abs(np.linalg.eigvalsh(m2))))
        rows.append(
            {
                "t": t,
                "A": a_val,
                "B": b_val,
                "C": c_val,
                "m1_par_over_t": float(m1[0]) / t,
                "m2_norm_over_t": m2_norm / t,
            }
        )
    columns = ("t", "A", "B", "C", "m1_par_over_t", "m2_norm_over_t")
    return _Outputs({"specfun": (columns, rows)})


# ---------------------------------------------------------------------------
# geometry-check


def _radial_cdf_grid(m, fp, n_grid: int = 4096):
    """Radial CDF of the uniform law on the neighbourhood, tabulated on a grid."""
    r = np.linspace(0.0, fp.delta_u, n_grid)
    integrand = r ** (m.d - 1) * _radial_density(m, r)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(r))])
    cdf /= cdf[-1]
    return r, cdf


def _cmd_geometry_check(sub, values, dump) -> _Outputs:
    seed, dim = values["seed"], values["dim"]
    rows = []
    jacobi_rows = []
    for kind_idx, kind in enumerate(_KINDS):
        m = make_manifold(kind, dim)
        fp = framed_point(m)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 10 + kind_idx]))
        radius = 1.5 if kind == "flat" else 0.95 * math.pi
        dirs = rng.standard_normal((1000, dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = radius * rng.random(1000) ** (1.0 / dim)
        tangents = (radii[:, None] * dirs) @ fp.frame
        points = exp_map(m, fp.point, tangents)
        back = log_map(m, fp.point, points)
        err = float(np.max(np.abs(back - tangents)))
        rows.append(_check_row("roundtrip-log-exp", err, 1e-10, manifold=kind))
        again = exp_map(m, fp.point, back)
        err = float(np.max(np.abs(again - points)))
        rows.append(_check_row("roundtrip-exp-log", err, 1e-10, manifold=kind))

        dens = vol_density(m, fp.point, tangents)
        r = np.linalg.norm(tangents, axis=1)
        if kind == "flat":
            closed = np.ones_like(r)
        else:
            closed = np.array([(math.sin(x) / x) ** (dim - 1) if x > 0 else 1.0 for x in r])
        err = float(np.max(np.abs(dens - closed)))
        rows.append(_check_row("vol-density-closed-form", err, 1e-10, manifold=kind))

        # Independent density check: Gram determinant of finite-difference
        # pushforwards sqrt(det J^T J) must reproduce the density.
        h = 1e-5
        err = 0.0
        for v in tangents[:50]:
            cols = []
            for k in range(dim):
                step = h * fp.frame[k]
                cols.append((exp_map(m, fp.point, v + step) - exp_map(m, fp.point, v - step)) / (2 * h))
            jac = np.stack(cols, axis=1)
            gram = jac.T @ jac
            fd_dens = math.sqrt(max(float(np.linalg.det(gram)), 0.0))
            ref = float(vol_density(m, fp.point, v[None, :])[0])
            err = max(err, abs(fd_dens - ref) / max(1.0, abs(ref)))
        rows.append(_check_row("vol-density-jacobian-fd", err, 1e-6, manifold=kind))

        w = fp.frame[0]
        report = jacobi_expansion_check(m, fp.point, w, (0.4, 0.2, 0.1, 0.05))
        grad = report.grad_density_norm
        rows.append(_check_row("grad-density-at-origin", grad, 1e-6, manifold=kind))
        ratios = [abs(row["residual"]) / row["t"] ** 2 for row in report.rows]
        monotone = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
        check = "jacobi-residual-over-t2-decreasing"
        rows.append(_check_row(check, max(ratios), 0.0, monotone, manifold=kind))
        jacobi_rows += [{"manifold": kind, **row} for row in report.rows]

        n_samples = 20000
        sample_r = np.linalg.norm(sample_log_coords(m, fp, rng, n_samples), axis=1)
        grid_r, grid_cdf = _radial_cdf_grid(m, fp)
        n_bins = 20
        edges = np.interp(np.linspace(0.0, 1.0, n_bins + 1), grid_cdf, grid_r)
        counts, _ = np.histogram(sample_r, bins=edges)
        expected = np.full(n_bins, n_samples / n_bins)
        p_val = _pearson_chisquare(counts, expected)[1]
        check = "sampler-radial-chisquare-p"
        rows.append(_check_row(check, p_val, 0.001, p_val > 0.001, manifold=kind))
    return _Outputs({
        "geometry_check": (("manifold", "check", "value", "threshold", "passed"), rows),
        "jacobi": (("manifold", "t", "pairing", "residual", "residual_over_t2"), jacobi_rows),
    })


def _pearson_chisquare(observed, expected) -> tuple[float, float]:
    """Pearson's chi-square statistic of ``observed`` against ``expected``
    counts and its upper-tail p-value on k - 1 degrees of freedom.

    The statistic is the arithmetic of ``scipy.stats.chisquare`` (float64
    terms (f - e)^2 / e, summed), bit for bit, with its check that both
    totals agree to a relative sqrt(eps): counts that miss a sample raise
    ``InvalidArgumentError``.  The p-value is ``_chisquare_sf``.
    """
    f_obs = np.asarray(observed, dtype=np.float64)
    f_exp = np.asarray(expected, dtype=np.float64)
    obs_sum, exp_sum = np.sum(f_obs), np.sum(f_exp)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_diff = abs(obs_sum - exp_sum) / min(obs_sum, exp_sum)
    if rel_diff > np.finfo(np.float64).eps ** 0.5:
        raise InvalidArgumentError(
            f"observed total {obs_sum} and expected total {exp_sum} differ "
            f"by a relative {rel_diff:.3e}"
        )
    stat = float(np.sum((f_obs - f_exp) ** 2 / f_exp))
    return stat, _chisquare_sf(f_obs.size - 1, stat)


_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _chisquare_sf(dof: int, x: float) -> float:
    """P(X > x) for X chi-square on ``dof`` >= 1 degrees of freedom.

    With y = x/2 and h = 0 (even dof) or 1/2 (odd dof), the closed forms of
    Abramowitz & Stegun 26.4.4-26.4.5 read p = sum of t_i over i < dof // 2,
    plus erfc(sqrt y) for odd dof, with t_i = e^-y y^(i+h) / Gamma(i+h+1).
    Below y = 700 the terms are e^-y times a running product of the ratios
    y/(i+h), so the only rounding in the exponent is that of exp(-y) itself:
    relative error about 1e-15.  From y = 700 on, e^-y nears the end of the
    normal range, and each term is formed in log space instead, so the sum
    underflows only where p does; each exponent then carries a rounding of
    about ulp(y).
    """
    if math.isnan(x):
        return x
    if x == math.inf:
        return 0.0
    y = 0.5 * x
    if y <= 0.0:
        return 1.0
    n, h = dof // 2, 0.5 * (dof % 2)
    p = 0.0
    if h:
        # sqrt(y) rounds to z, and erfc's relative slope near 2z turns that
        # into up to 2y ulp of error in erfc(z) (1e-14 at y = 50).  So erfc is
        # moved back to the exact root to first order: its derivative is
        # -(2/sqrt(pi)) e^-u^2, and sqrt(y) - z = (y - z^2) / 2z, with
        # y - z^2 taken exactly on the integer ratios of y and z.
        z = math.sqrt(y)
        (ny, dy), (nz, dz) = y.as_integer_ratio(), z.as_integer_ratio()
        root_error = (ny * dz * dz - nz * nz * dy) / (dy * dz * dz) / (2.0 * z)
        p = math.erfc(z) - _TWO_OVER_SQRT_PI * math.exp(-y) * root_error
    if y < 700.0:
        ratio = total = 1.0 if n else 0.0
        for i in range(1, n):
            ratio *= y / (i + h)
            total += ratio
        first = _TWO_OVER_SQRT_PI * z if h else 1.0
        return p + math.exp(-y) * first * total
    log_y = math.log(y)
    return p + math.fsum(math.exp((i + h) * log_y - y - math.lgamma(i + h + 1.0)) for i in range(n))


# ---------------------------------------------------------------------------
# convergence runs


def _dump_operators(cfg: RunConfig) -> dict:
    """Per grid point, the operator of the first (at most four) stars of its first repeat."""
    m = make_manifold(cfg.manifold, cfg.dim)
    fp = framed_point(m, delta_u=cfg.delta_u)
    operators = {}
    for n_idx, n in enumerate(cfg.n_grid):
        hbar = hbar_schedule(n, cfg.alpha)
        v = _repeat_stars(cfg, m, fp, n_idx, 0)[0][:4]
        operators[f"dirac_n{n}.mtx"] = assemble_dirac(v, m, fp, hbar, sigma=cfg.sigma)
    return operators


def _cmd_converge(sub, values, dump) -> _Outputs:
    fields = {name: values[key] for name, key in _RUN_SETTING.items()}
    cfg = RunConfig(mode=sub.fixed["mode"], **fields)
    report = convergence_run(cfg)
    return _Outputs(
        {"report": (CSV_COLUMNS, report.rows)},
        report.timing,
        report.to_json_text(),
        {key: report.metadata[key] for key in ("test_function", "delta_u")},
        _dump_operators(cfg) if dump else {},
    )


# ---------------------------------------------------------------------------
# bound-report


def _cmd_bound_report(sub, values, dump) -> _Outputs:
    m = make_manifold(values["manifold"], values["dim"])
    fp = framed_point(m)
    a = linear_coordinate_function(m, fp, 1)
    rng = np.random.default_rng(np.random.SeedSequence([values["seed"], 0]))
    slots = m.d + 1
    v = sample_log_coords(m, fp, rng, values["n_copies"] * slots)
    # One value per vertex id: the base point, then the leaves in sampling order.
    a_values = a.evaluate(np.vstack([np.zeros(m.d), v]))
    stars = v.reshape(values["n_copies"], slots, m.d)
    operators = {
        f"dirac_hbar{idx}.mtx": assemble_dirac(stars, m, fp, hbar, sigma=values["sign"])
        for idx, hbar in enumerate(values["hbar_grid"])
    }
    rows = [pf_bound_report(dirac, a_values, values["grad_sup"]) for dirac in operators.values()]
    columns = ("hbar", "rho", "grad_sup", "bound_ratio")
    return _Outputs({"bound_report": (columns, rows)}, operators=operators if dump else {})


# ---------------------------------------------------------------------------
# subcommands and parser


_CONVERGE_LINE = (
    "n={n} hbar={hbar:.6g} j={j}: mean={estimate_mean:.6g} se={estimate_se:.3g} "
    "oracle={oracle:.6g} target={target:.6g} abs_err={abs_err:.6g}"
)

_SUBCOMMANDS = (
    _Subcommand(
        "algebra-check",
        "symbolic-vs-matrix identities",
        _cmd_algebra_check,
        "{status:4s} {check}: max err {max_err:.3e}",
        _settings(),
    ),
    _Subcommand(
        "specfun",
        "coefficient and moment table",
        _cmd_specfun,
        "t={t}: A={A:.12g} B={B:.12g} C={C:.12g} "
        "m1par/t={m1_par_over_t:.12g} |m2|/t={m2_norm_over_t:.12g}",
        _settings(t_grid=(0.2, 0.1, 0.05, 0.02), sign=1, dim=3),
        parsers={"dim": lambda text: _integer("dim", int(text), 3)},
    ),
    _Subcommand(
        "geometry-check",
        "manifold map validations",
        _cmd_geometry_check,
        "{status:4s} {manifold}/{check}: {value:.3e}",
        _settings(dim=2),
    ),
    _Subcommand(
        "dirac-converge",
        "frame-derivative convergence run",
        _cmd_converge,
        _CONVERGE_LINE,
        _RUN_DEFAULTS,
        {"mode": "dirac"},
        dumps_operators=True,
    ),
    _Subcommand(
        "laplace-converge",
        "Laplacian convergence run",
        _cmd_converge,
        _CONVERGE_LINE,
        _RUN_DEFAULTS,
        {"mode": "laplace"},
        dumps_operators=True,
    ),
    _Subcommand(
        "bound-report",
        "commutator bound sweep",
        _cmd_bound_report,
        "hbar={hbar}: rho={rho:.6g} ratio={bound_ratio:.6g}",
        _settings(
            manifold="flat",
            dim=2,
            sign=1,
            hbar_grid=(1.0, 0.5, 0.1, 0.05),
            n_copies=30,
            grad_sup=1.0,
        ),
        {"test_function": "linear-x1"},
        dumps_operators=True,
    ),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diraclab",
        description="Estimator experiments for frame derivatives and Laplacians "
        "from weighted star graphs.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for sub in _SUBCOMMANDS:
        p = subparsers.add_parser(sub.name, help=sub.help)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--from-manifest", help="re-run from a manifest.json")
        for key, default in sub.defaults.items():
            p.add_argument(_flag(key), dest=key, help=f"default: {default}")
        if sub.dumps_operators:
            p.add_argument("--dump-operators", help="directory for MatrixMarket operator dumps")
        p.set_defaults(sub=sub, dump_operators=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _run(args.sub, _resolve(args, args.sub), args.dump_operators)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except DiracLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
