"""Command-line interface: checks, tables, convergence runs, and bound reports.

Every subcommand resolves its configuration from (highest precedence first)
command-line flags, a key=value config file or a previously written manifest,
the DIRACLAB_SEED environment variable (seed only), and built-in defaults.
The resolved configuration is echoed to ``manifest.json``; re-running from a
manifest reproduces every output byte for byte.  Wall time (for the
convergence runs also per-stage seconds and counters) goes to a separate
``timing.json``, which is informational and excluded from that contract, as
are the execution-only settings (output directory, thread count).

Exit codes: 0 success, 1 failed checks or runtime failure, 2 configuration
errors (config-file problems are reported with their line number).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np
from scipy import stats

from .clifford import Multivector, mv_mul
from .errors import ConfigError, DiracLabError, InvalidArgumentError, NumericFailureError
from .estimators import (
    ARTIFACT_VERSION,
    CSV_COLUMNS,
    DEFAULT_MASTER_SEED,
    RunConfig,
    convergence_run,
    dirac_estimate,
    hbar_schedule,
    linear_coordinate_function,
    s_jn,
    table_texts,
)
from .graphdirac import anchor_rows, assemble_dirac, laplace_lambda, pf_bound_report, star_weights
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
# configuration plumbing


def _parse_sign(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise ValueError(f"sign must be +1 or -1, got {text!r}")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_csv_ints(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    return tuple(int(p) for p in parts if p)


def _parse_csv_floats(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    return tuple(float(p) for p in parts if p)


_KEY_PARSERS = {
    "mode": str,
    "manifold": str,
    "dim": int,
    "alpha": float,
    "n_grid": _parse_csv_ints,
    "repeats": int,
    "seed": int,
    "sign": _parse_sign,
    "test_function": str,
    "delta_u": float,
    "lambda_power": int,
    "family_check": _parse_bool,
    "threads": int,
    "hoeffding_eps": float,
    "t_grid": _parse_csv_floats,
    "hbar_grid": _parse_csv_floats,
    "n_copies": int,
    "grad_sup": float,
    "out": str,
}


def parse_config_file(path: str) -> dict:
    """Parse a key=value config file.  Unknown keys and bad values are hard,
    line-numbered errors."""
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
        key = key.strip()
        value = value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _KEY_PARSERS[key](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def _load_manifest_config(path: str, subcommand: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
    if manifest.get("subcommand") != subcommand:
        raise ConfigError(
            f"manifest {path} was written by {manifest.get('subcommand')!r}, "
            f"not {subcommand!r}"
        )
    cfg = manifest.get("config", {})
    if "n_grid" in cfg:
        cfg["n_grid"] = tuple(int(n) for n in cfg["n_grid"])
    if "t_grid" in cfg:
        cfg["t_grid"] = tuple(float(t) for t in cfg["t_grid"])
    if "hbar_grid" in cfg:
        cfg["hbar_grid"] = tuple(float(h) for h in cfg["hbar_grid"])
    return cfg


def _file_layer(args, subcommand: str) -> dict:
    if getattr(args, "config", None) and getattr(args, "from_manifest", None):
        raise ConfigError("--config and --from-manifest cannot be combined")
    if getattr(args, "config", None):
        return parse_config_file(args.config)
    if getattr(args, "from_manifest", None):
        return _load_manifest_config(args.from_manifest, subcommand)
    return {}


def _env_seed() -> int | None:
    raw = os.environ.get("DIRACLAB_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"DIRACLAB_SEED must be an integer, got {raw!r}") from exc


def _resolve(args, layer: dict, key: str, default):
    cli = getattr(args, key, None)
    if cli is not None:
        return cli
    if key in layer:
        return layer[key]
    return default


def _resolve_seed(args, layer: dict) -> int:
    cli = getattr(args, "seed", None)
    if cli is not None:
        return cli
    if "seed" in layer:
        return layer["seed"]
    env = _env_seed()
    if env is not None:
        return env
    return DEFAULT_MASTER_SEED


def _resolve_sign(args, layer: dict) -> int:
    cli = getattr(args, "sign", None)
    if cli is not None:
        return _parse_sign(cli)
    return layer.get("sign", 1)


def _resolve_out(args, layer: dict) -> str:
    return _resolve(args, layer, "out", "out")


# ---------------------------------------------------------------------------
# output helpers


def _ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def _write_text(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(out_dir: str, name: str, obj) -> None:
    _write_text(out_dir, name, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_table(out_dir: str, stem: str, columns, rows) -> None:
    csv_text, dat_text = table_texts(columns, rows)
    _write_text(out_dir, stem + ".csv", csv_text)
    _write_text(out_dir, stem + ".dat", dat_text)


def _write_manifest(out_dir: str, subcommand: str, config: dict) -> None:
    _write_json(
        out_dir,
        "manifest.json",
        {
            "artifact_version": ARTIFACT_VERSION,
            "subcommand": subcommand,
            "config": config,
        },
    )


def _write_timing(out_dir: str, seconds: float) -> None:
    _write_json(out_dir, "timing.json", {"wall_time_s": seconds})


# ---------------------------------------------------------------------------
# algebra-check


def _random_operator(rng, n_pairs: int, hbar: float):
    grid = 2 * n_pairs
    edges = [(i, j) for i in range(1, grid + 1) for j in range(i + 1, grid + 1)]
    count = int(rng.integers(1, len(edges) + 1))
    picked = rng.choice(len(edges), size=count, replace=False)
    weights = {}
    for idx in sorted(int(k) for k in picked):
        w = float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0]))
        weights[edges[idx]] = w
    w_op = build_w(weights, s=2, n_pairs=n_pairs)
    return dirac_from_w(w_op, hbar)


def _word_path_components(m, fp, a, v, hbar: float) -> list:
    """Frame-derivative estimate through the word calculus: the averaged
    commutator element of the star samples ``v`` (log coordinates, shape
    (n, d+1, d)), reduced to a grade-1 multivector and rescaled by Vol/hbar."""
    w = star_weights(v, anchor_rows(fp, laplace_lambda(fp.frame)), fp, hbar, 1)
    coeff = (w * (a.evaluate(v) - a.evaluate(np.zeros(m.d)))).mean(axis=0)
    terms = {((1, 2 + slot),): (1j / hbar) * coeff[slot] * MAT_Y for slot in range(m.d + 1)}
    mv, _factor = psi_map_to_clifford(TensorElement((m.d + 3) // 2, terms), m.d, hbar)
    scaled = mv.scale(neighbourhood_volume(m, fp) / hbar)
    return [scaled.component(1 << k) for k in range(m.d)]


def _algebra_rows(seed: int) -> list:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    rows = []

    err = 0.0
    for _ in range(200):
        n_pairs = int(rng.integers(1, 9))
        hbar = float(rng.uniform(0.1, 2.0))
        dirac = _random_operator(rng, n_pairs, hbar)
        obs = DiagonalObservable(tuple(rng.uniform(-3.0, 3.0, size=2 * n_pairs)))
        closed = commutator_closed_form(dirac, obs)
        lhs = realize_commutator_edges(closed)
        rhs = commutator_concrete(dirac.concrete, obs.realize())
        err = max(err, float(np.max(np.abs(lhs - rhs))))
    rows.append(
        {
            "check": "commutator-closed-vs-concrete",
            "instances": 200,
            "max_err": err,
            "threshold": 1e-12,
            "passed": err <= 1e-12,
        }
    )

    err_exact = 0.0
    err_formula = 0.0
    for _ in range(100):
        n_pairs = int(rng.integers(1, 9))
        hbar = float(rng.uniform(0.1, 2.0))
        dirac = _random_operator(rng, n_pairs, hbar)
        obs = DiagonalObservable(tuple(rng.uniform(-3.0, 3.0, size=2 * n_pairs)))
        lap = laplacian_closed_form(dirac, obs)
        reduced = psi_reduce(double_commutator_closed_form(dirac, obs)).scale(0.5)
        err_exact = max(err_exact, reduced.max_abs_diff(lap))
        coeff = -sum(
            w * w * obs.alpha(i, j) for (i, j), w in sorted(dirac.weights.items())
        ) / (hbar * hbar)
        direct = TensorElement(n_pairs, {(): coeff * MAT_J})
        # Relative scale: the two paths sum the same products in different
        # orders, so only agreement up to roundoff on |coeff| is meaningful.
        scale = max(1.0, abs(coeff))
        err_formula = max(err_formula, lap.max_abs_diff(direct) / scale)
    rows.append(
        {
            "check": "bicommutator-halved-vs-laplacian",
            "instances": 100,
            "max_err": err_exact,
            "threshold": 0.0,
            "passed": err_exact <= 0.0,
        }
    )
    rows.append(
        {
            "check": "laplacian-coefficient-formula",
            "instances": 100,
            "max_err": err_formula,
            "threshold": 1e-12,
            "passed": err_formula <= 1e-12,
        }
    )

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
    rows.append(
        {
            "check": "clifford-associativity",
            "instances": 100,
            "max_err": err,
            "threshold": 1e-12,
            "passed": err <= 1e-12,
        }
    )

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
    rows.append(
        {
            "check": "estimator-word-path-vs-direct",
            "instances": 64,
            "max_err": err,
            "threshold": 1e-12,
            "passed": err <= 1e-12,
        }
    )
    return rows


def _cmd_algebra_check(args) -> int:
    layer = _file_layer(args, "algebra-check")
    seed = _resolve_seed(args, layer)
    out_dir = _resolve_out(args, layer)
    t0 = time.perf_counter()
    rows = _algebra_rows(seed)
    _ensure_dir(out_dir)
    config = {"seed": seed}
    _write_manifest(out_dir, "algebra-check", config)
    columns = ("check", "instances", "max_err", "threshold", "passed")
    _write_table(out_dir, "algebra_check", columns, rows)
    _write_json(out_dir, "algebra_check.json", {"config": config, "rows": rows})
    _write_timing(out_dir, time.perf_counter() - t0)
    failed = [r["check"] for r in rows if not r["passed"]]
    for row in rows:
        status = "ok" if row["passed"] else "FAIL"
        print(f"{status:4s} {row['check']}: max err {row['max_err']:.3e}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# specfun table


def _cmd_specfun(args) -> int:
    layer = _file_layer(args, "specfun")
    seed = _resolve_seed(args, layer)
    out_dir = _resolve_out(args, layer)
    t_grid = _resolve(args, layer, "t_grid", (0.2, 0.1, 0.05, 0.02))
    sigma = _resolve_sign(args, layer)
    dim = _resolve(args, layer, "dim", 3)
    if dim < 3:
        raise ConfigError(f"specfun table needs dim >= 3, got {dim}")
    t0 = time.perf_counter()
    direction = np.zeros(dim)
    direction[0] = 1.0
    rows = []
    for t in t_grid:
        a_val, b_val, c_val = lemma_abc(dim, float(t))
        m1, m2 = vmf_moments(dim, direction, float(t), sigma=sigma)
        m2_norm = float(np.max(np.abs(np.linalg.eigvalsh(m2))))
        rows.append(
            {
                "t": float(t),
                "A": a_val,
                "B": b_val,
                "C": c_val,
                "m1_par_over_t": float(m1[0]) / float(t),
                "m2_norm_over_t": m2_norm / float(t),
            }
        )
    _ensure_dir(out_dir)
    config = {"t_grid": list(float(t) for t in t_grid), "sign": sigma, "dim": dim, "seed": seed}
    _write_manifest(out_dir, "specfun", config)
    columns = ("t", "A", "B", "C", "m1_par_over_t", "m2_norm_over_t")
    _write_table(out_dir, "specfun", columns, rows)
    _write_json(out_dir, "specfun.json", {"config": config, "rows": rows})
    _write_timing(out_dir, time.perf_counter() - t0)
    for row in rows:
        print(
            f"t={row['t']}: A={row['A']:.12g} B={row['B']:.12g} C={row['C']:.12g} "
            f"m1par/t={row['m1_par_over_t']:.12g} |m2|/t={row['m2_norm_over_t']:.12g}"
        )
    return 0


# ---------------------------------------------------------------------------
# geometry-check


def _radial_cdf_grid(m, fp, n_grid: int = 4096):
    """Radial CDF of the uniform law on the neighbourhood, tabulated on a grid."""
    r = np.linspace(0.0, fp.delta_u, n_grid)
    dens = np.ones_like(r) if m.kind == "flat" else np.sinc(r / math.pi) ** (m.d - 1)
    integrand = r ** (m.d - 1) * dens
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(r))])
    cdf /= cdf[-1]
    return r, cdf


def _geometry_rows(seed: int, dim: int):
    rows = []
    jacobi_rows = []
    for kind_idx, kind in enumerate(("flat", "sphere")):
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
        rows.append(
            {
                "manifold": kind,
                "check": "roundtrip-log-exp",
                "value": err,
                "threshold": 1e-10,
                "passed": err <= 1e-10,
            }
        )
        again = exp_map(m, fp.point, back)
        err = float(np.max(np.abs(again - points)))
        rows.append(
            {
                "manifold": kind,
                "check": "roundtrip-exp-log",
                "value": err,
                "threshold": 1e-10,
                "passed": err <= 1e-10,
            }
        )

        dens = vol_density(m, fp.point, tangents)
        r = np.linalg.norm(tangents, axis=1)
        if kind == "flat":
            closed = np.ones_like(r)
        else:
            closed = np.array([(math.sin(x) / x) ** (dim - 1) if x > 0 else 1.0 for x in r])
        err = float(np.max(np.abs(dens - closed)))
        rows.append(
            {
                "manifold": kind,
                "check": "vol-density-closed-form",
                "value": err,
                "threshold": 1e-10,
                "passed": err <= 1e-10,
            }
        )

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
        rows.append(
            {
                "manifold": kind,
                "check": "vol-density-jacobian-fd",
                "value": err,
                "threshold": 1e-6,
                "passed": err <= 1e-6,
            }
        )

        w = fp.frame[0]
        report = jacobi_expansion_check(m, fp.point, w, (0.4, 0.2, 0.1, 0.05))
        rows.append(
            {
                "manifold": kind,
                "check": "grad-density-at-origin",
                "value": report.grad_density_norm,
                "threshold": 1e-6,
                "passed": report.grad_density_norm <= 1e-6,
            }
        )
        ratios = [abs(row["residual"]) / row["t"] ** 2 for row in report.rows]
        monotone = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
        rows.append(
            {
                "manifold": kind,
                "check": "jacobi-residual-over-t2-decreasing",
                "value": max(ratios),
                "threshold": 0.0,
                "passed": monotone,
            }
        )
        for row in report.rows:
            jacobi_rows.append(
                {
                    "manifold": kind,
                    "t": row["t"],
                    "pairing": row["pairing"],
                    "residual": row["residual"],
                    "residual_over_t2": row["residual_over_t2"],
                }
            )

        n_samples = 20000
        sample_r = np.linalg.norm(sample_log_coords(m, fp, rng, n_samples), axis=1)
        grid_r, grid_cdf = _radial_cdf_grid(m, fp)
        n_bins = 20
        edges = np.interp(np.linspace(0.0, 1.0, n_bins + 1), grid_cdf, grid_r)
        counts, _ = np.histogram(sample_r, bins=edges)
        expected = np.full(n_bins, n_samples / n_bins)
        chi2 = stats.chisquare(counts, expected)
        p_val = float(chi2.pvalue)
        rows.append(
            {
                "manifold": kind,
                "check": "sampler-radial-chisquare-p",
                "value": p_val,
                "threshold": 0.001,
                "passed": p_val > 0.001,
            }
        )
    return rows, jacobi_rows


def _cmd_geometry_check(args) -> int:
    layer = _file_layer(args, "geometry-check")
    seed = _resolve_seed(args, layer)
    out_dir = _resolve_out(args, layer)
    dim = _resolve(args, layer, "dim", 2)
    t0 = time.perf_counter()
    rows, jacobi_rows = _geometry_rows(seed, dim)
    _ensure_dir(out_dir)
    config = {"seed": seed, "dim": dim}
    _write_manifest(out_dir, "geometry-check", config)
    columns = ("manifold", "check", "value", "threshold", "passed")
    _write_table(out_dir, "geometry_check", columns, rows)
    jac_columns = ("manifold", "t", "pairing", "residual", "residual_over_t2")
    _write_table(out_dir, "jacobi", jac_columns, jacobi_rows)
    _write_json(
        out_dir,
        "geometry_check.json",
        {"config": config, "rows": rows, "jacobi": jacobi_rows},
    )
    _write_timing(out_dir, time.perf_counter() - t0)
    failed = [f"{r['manifold']}:{r['check']}" for r in rows if not r["passed"]]
    for row in rows:
        status = "ok" if row["passed"] else "FAIL"
        print(f"{status:4s} {row['manifold']}/{row['check']}: {row['value']:.3e}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# convergence runs


def _resolve_run_config(args, layer: dict, mode: str) -> RunConfig:
    if layer.get("mode") not in (None, mode):
        raise ConfigError(f"config mode {layer['mode']!r} does not match subcommand {mode!r}")
    family = getattr(args, "family", None)
    if family is None:
        family_check = layer.get("family_check", False)
    else:
        family_check = bool(family)
    try:
        return RunConfig(
            mode=mode,
            manifold=_resolve(args, layer, "manifold", "flat"),
            dim=_resolve(args, layer, "dim", 2),
            alpha=_resolve(args, layer, "alpha", 0.2),
            n_grid=tuple(_resolve(args, layer, "n_grid", (1000, 10000, 100000))),
            repeats=_resolve(args, layer, "repeats", 50),
            master_seed=_resolve_seed(args, layer),
            sigma=_resolve_sign(args, layer),
            test_function=_resolve(args, layer, "test_function", "auto"),
            delta_u=_resolve(args, layer, "delta_u", None),
            lambda_power=_resolve(args, layer, "lambda_power", 1),
            family_check=family_check,
            threads=_resolve(args, layer, "threads", 1),
            hoeffding_eps=_resolve(args, layer, "hoeffding_eps", 0.1),
        )
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc


def _dump_operators(args, cfg: RunConfig, dump_dir: str) -> None:
    _ensure_dir(dump_dir)
    m = make_manifold(cfg.manifold, cfg.dim)
    fp = framed_point(m, delta_u=cfg.delta_u)
    slots = m.d + 1
    for n_idx, n in enumerate(cfg.n_grid):
        hbar = hbar_schedule(n, cfg.alpha)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, n_idx, 0]))
        copies = min(4, n)
        v = sample_log_coords(m, fp, rng, copies * slots).reshape(copies, slots, m.d)
        dirac = assemble_dirac(v, m, fp, hbar, sigma=cfg.sigma)
        dirac.export_matrix_market(os.path.join(dump_dir, f"dirac_n{n}.mtx"))


def _cmd_converge(args, mode: str) -> int:
    layer = _file_layer(args, f"{mode}-converge")
    out_dir = _resolve_out(args, layer)
    cfg = _resolve_run_config(args, layer, mode)
    report = convergence_run(cfg)
    _ensure_dir(out_dir)
    config = {
        "mode": mode,
        "manifold": cfg.manifold,
        "dim": cfg.dim,
        "alpha": cfg.alpha,
        "n_grid": list(cfg.n_grid),
        "repeats": cfg.repeats,
        "seed": cfg.master_seed,
        "sign": cfg.sigma,
        "test_function": report.metadata["test_function"],
        "delta_u": report.metadata["delta_u"],
        "lambda_power": cfg.lambda_power,
        "family_check": cfg.family_check,
        "hoeffding_eps": cfg.hoeffding_eps,
    }
    _write_manifest(out_dir, f"{mode}-converge", config)
    _write_table(out_dir, "report", CSV_COLUMNS, report.rows)
    _write_text(out_dir, "report.json", report.to_json_text())
    _write_json(out_dir, "timing.json", report.timing)
    if getattr(args, "dump_operators", None):
        _dump_operators(args, cfg, args.dump_operators)
    for row in report.rows:
        print(
            f"n={row['n']} hbar={row['hbar']:.6g} j={row['j']}: "
            f"mean={row['estimate_mean']:.6g} se={row['estimate_se']:.3g} "
            f"oracle={row['oracle']:.6g} target={row['target']:.6g} "
            f"abs_err={row['abs_err']:.6g}"
        )
    return 0


# ---------------------------------------------------------------------------
# bound-report


def _cmd_bound_report(args) -> int:
    layer = _file_layer(args, "bound-report")
    out_dir = _resolve_out(args, layer)
    seed = _resolve_seed(args, layer)
    manifold = _resolve(args, layer, "manifold", "flat")
    dim = _resolve(args, layer, "dim", 2)
    hbar_grid = tuple(_resolve(args, layer, "hbar_grid", (1.0, 0.5, 0.1, 0.05)))
    n_copies = _resolve(args, layer, "n_copies", 30)
    grad_sup = _resolve(args, layer, "grad_sup", 1.0)
    sigma = _resolve_sign(args, layer)
    if n_copies < 1:
        raise ConfigError(f"n_copies must be >= 1, got {n_copies}")
    t0 = time.perf_counter()
    m = make_manifold(manifold, dim)
    fp = framed_point(m)
    a = linear_coordinate_function(m, fp, 1)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    slots = m.d + 1
    v = sample_log_coords(m, fp, rng, n_copies * slots)
    # One value per vertex id: the base point, then the leaves in sampling order.
    a_values = a.evaluate(np.vstack([np.zeros(m.d), v]))
    stars = v.reshape(n_copies, slots, m.d)
    rows = []
    for idx, hbar in enumerate(hbar_grid):
        dirac = assemble_dirac(stars, m, fp, float(hbar), sigma=sigma)
        report = pf_bound_report(dirac, a_values, grad_sup)
        rows.append(
            {
                "hbar": float(hbar),
                "rho": report["rho"],
                "grad_sup": report["grad_sup"],
                "bound_ratio": report["bound_ratio"],
            }
        )
        if getattr(args, "dump_operators", None):
            _ensure_dir(args.dump_operators)
            dirac.export_matrix_market(
                os.path.join(args.dump_operators, f"dirac_hbar{idx}.mtx")
            )
    _ensure_dir(out_dir)
    config = {
        "manifold": manifold,
        "dim": dim,
        "seed": seed,
        "sign": sigma,
        "hbar_grid": list(float(h) for h in hbar_grid),
        "n_copies": n_copies,
        "grad_sup": float(grad_sup),
        "test_function": "linear-x1",
    }
    _write_manifest(out_dir, "bound-report", config)
    columns = ("hbar", "rho", "grad_sup", "bound_ratio")
    _write_table(out_dir, "bound_report", columns, rows)
    _write_json(out_dir, "bound_report.json", {"config": config, "rows": rows})
    _write_timing(out_dir, time.perf_counter() - t0)
    for row in rows:
        print(
            f"hbar={row['hbar']}: rho={row['rho']:.6g} ratio={row['bound_ratio']:.6g}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--from-manifest", help="re-run from a manifest.json")
    common.add_argument("--out", help="output directory (default: out)")
    common.add_argument("--seed", type=int, help="master seed (fallback: DIRACLAB_SEED)")
    common.add_argument("--threads", type=int, help="worker thread count")
    common.add_argument("--dump-operators", help="directory for MatrixMarket operator dumps")

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--manifold", choices=("flat", "sphere"))
    run.add_argument("--dim", type=int)
    run.add_argument("--alpha", type=float)
    run.add_argument("--n-grid", dest="n_grid", type=_parse_csv_ints)
    run.add_argument("--repeats", type=int)
    run.add_argument("--sign", choices=("+1", "-1"))
    run.add_argument("--test-function", dest="test_function")
    run.add_argument("--delta-u", dest="delta_u", type=float)
    run.add_argument("--lambda-power", dest="lambda_power", type=int, choices=(1, 2))
    run.add_argument("--family", type=int, choices=(0, 1))
    run.add_argument("--hoeffding-eps", dest="hoeffding_eps", type=float)

    parser = argparse.ArgumentParser(
        prog="diraclab",
        description="Estimator experiments for frame derivatives and Laplacians "
        "from weighted star graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("algebra-check", parents=[common], help="symbolic-vs-matrix identities")
    p.set_defaults(handler=_cmd_algebra_check)

    p = sub.add_parser("specfun", parents=[common], help="coefficient and moment table")
    p.add_argument("--t-grid", dest="t_grid", type=_parse_csv_floats)
    p.add_argument("--sign", choices=("+1", "-1"))
    p.add_argument("--dim", type=int)
    p.set_defaults(handler=_cmd_specfun)

    p = sub.add_parser("geometry-check", parents=[common], help="manifold map validations")
    p.add_argument("--dim", type=int)
    p.set_defaults(handler=_cmd_geometry_check)

    p = sub.add_parser(
        "dirac-converge", parents=[common, run], help="frame-derivative convergence run"
    )
    p.set_defaults(handler=lambda a: _cmd_converge(a, "dirac"))

    p = sub.add_parser(
        "laplace-converge", parents=[common, run], help="Laplacian convergence run"
    )
    p.set_defaults(handler=lambda a: _cmd_converge(a, "laplace"))

    p = sub.add_parser("bound-report", parents=[common], help="commutator bound sweep")
    p.add_argument("--manifold", choices=("flat", "sphere"))
    p.add_argument("--dim", type=int)
    p.add_argument("--sign", choices=("+1", "-1"))
    p.add_argument("--hbar-grid", dest="hbar_grid", type=_parse_csv_floats)
    p.add_argument("--n-copies", dest="n_copies", type=int)
    p.add_argument("--grad-sup", dest="grad_sup", type=float)
    p.set_defaults(handler=_cmd_bound_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
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
