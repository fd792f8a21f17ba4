"""One sign convention: every public ``sigma`` default is +1; and one rule per
argument kind: every public sign, scale and integer argument is checked."""

from __future__ import annotations

import importlib
import inspect
import math

import numpy as np
import pytest

from diraclab import InvalidArgumentError
from diraclab.clifford import Multivector
from diraclab.estimators import (
    RunConfig,
    dirac_estimate,
    dirac_expectation_oracle,
    embedding_coordinate_function,
    laplace_estimate,
    laplace_expectation_oracle,
    linear_coordinate_function,
    s_jn,
    squared_radius_function,
)
from diraclab.graphdirac import assemble_dirac, star_anchors, star_weights
from diraclab.liealg import (
    MAT_Y,
    TensorElement,
    build_w,
    dirac_from_w,
    psi_map_to_clifford,
    root_block,
)
from diraclab.manifold import exp_axis, framed_point, make_manifold, sample_log_coords
from diraclab.specfun import lemma_abc, log_c_d, vmf_moments

LAYERS = ("clifford", "liealg", "specfun", "manifold", "graphdirac", "estimators", "cli")


def public_callables():
    for layer in LAYERS:
        mod = importlib.import_module(f"diraclab.{layer}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                yield f"{layer}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{layer}.{name}", obj
                for attr, raw in vars(obj).items():
                    fn = getattr(raw, "__func__", raw)
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield f"{layer}.{name}.{attr}", fn


def test_every_public_sigma_default_is_plus_one():
    defaults = {}
    for name, fn in public_callables():
        param = inspect.signature(fn).parameters.get("sigma")
        if param is not None and param.default is not inspect.Parameter.empty:
            defaults[name] = param.default
    # The walk must see the functions that carried the other sign before.
    for name in ("specfun.vmf_moments", "graphdirac.assemble_dirac", "estimators.RunConfig"):
        assert name in defaults
    assert {name: d for name, d in defaults.items() if d != 1} == {}


# Plain records, built by the checked constructors assemble_dirac and
# dirac_from_w; the MatrixMarket writer is tested on any hbar, negative too.
RECORDS = {"graphdirac.WeightedGraphDirac", "liealg.DiracOperator"}

# Values that break each rule: a bool, a float sign, 0 and 5; a bool scale,
# 0, a negative scale and NaN.
BAD = {"sigma": (True, 1.0, 0, 5), "hbar": (True, 0.0, -0.5, math.nan)}


def valid_calls() -> dict:
    """One call that passes per public callable with a sigma or hbar
    parameter; keyword overrides replace its sigma or hbar."""
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    stars = sample_log_coords(m, fp, np.random.default_rng(0), 20 * 3).reshape(20, 3, 2)
    a = linear_coordinate_function(m, fp, 1)
    r2 = squared_radius_function(m, fp)
    w_op = build_w({(1, 2): 1.0}, s=2, n_pairs=1)
    base_row = TensorElement(2, {((1, 2 + k),): (2j * (k + 1)) * MAT_Y for k in range(3)})
    s = np.array([1.0, 0.0])

    def call(fn, *args, **fixed):
        return lambda **kw: fn(*args, **{**fixed, **kw})

    return {
        "liealg.dirac_from_w": call(dirac_from_w, w_op, hbar=0.5),
        "liealg.psi_map_to_clifford": call(psi_map_to_clifford, base_row, 2, hbar=0.5),
        "specfun.vmf_moments": call(vmf_moments, 2, s, 0.3, sigma=1),
        "graphdirac.star_weights": call(
            star_weights, stars, star_anchors(2)[0], fp, hbar=0.5, sigma=1
        ),
        "graphdirac.assemble_dirac": call(assemble_dirac, stars, m, fp, hbar=0.5, sigma=1),
        "estimators.s_jn": call(s_jn, m, stars[:, 0], a, fp, 1, hbar=0.5, sigma=1),
        "estimators.dirac_estimate": call(dirac_estimate, m, stars, a, fp, hbar=0.5, sigma=1),
        "estimators.laplace_estimate": call(
            laplace_estimate, m, stars, r2, fp, hbar=0.5, sigma=1
        ),
        "estimators.dirac_expectation_oracle": call(
            dirac_expectation_oracle, m, a, fp, 1, hbar=0.5, sigma=1
        ),
        "estimators.laplace_expectation_oracle": call(
            laplace_expectation_oracle, m, r2, fp, hbar=0.5, sigma=1
        ),
        "estimators.RunConfig": call(RunConfig, sigma=1),
    }


def test_every_public_sign_and_scale_argument_is_checked():
    found = {}
    for name, fn in public_callables():
        params = {"sigma", "hbar"} & set(inspect.signature(fn).parameters)
        if params:
            found[name] = params
    calls = valid_calls()
    # A new public function with a sign or scale joins the table.
    assert set(calls) == set(found) - RECORDS
    for name, call in calls.items():
        call()
        for param in sorted(found[name]):
            for bad in BAD[param]:
                with pytest.raises(InvalidArgumentError):
                    call(**{param: bad})
                    pytest.fail(f"{name} accepted {param}={bad!r}")


def _coercions():
    m = make_manifold("flat", 2)
    fp = framed_point(m)
    rng = np.random.default_rng(0)
    a = linear_coordinate_function(m, fp, 1)
    v = sample_log_coords(m, fp, rng, 10)
    w_op = build_w({(1, 2): 1.0}, s=2, n_pairs=1)
    s = np.array([1.0, 0.0])
    return {
        "make_manifold-float-dim": lambda: make_manifold("flat", 2.9),
        "make_manifold-bool-dim": lambda: make_manifold("flat", True),
        "sample_log_coords-float-size": lambda: sample_log_coords(m, fp, rng, 2.5),
        "sample_log_coords-bool-size": lambda: sample_log_coords(m, fp, rng, True),
        "linear_coordinate_function-bool-index": lambda: linear_coordinate_function(m, fp, True),
        "exp_axis-negative-axis": lambda: exp_axis(m, fp, v, -1),
        "embedding_coordinate_function-bool-axis": (
            lambda: embedding_coordinate_function(m, fp, True)
        ),
        "dirac_expectation_oracle-bool-index": (
            lambda: dirac_expectation_oracle(m, a, fp, True, 0.5)
        ),
        "s_jn-float-index": lambda: s_jn(m, v, a, fp, 1.0, 0.5),
        "framed_point-bool-radius": lambda: framed_point(m, delta_u=True),
        "lemma_abc-bool-scale": lambda: lemma_abc(3, True),
        "vmf_moments-bool-scale": lambda: vmf_moments(2, s, True),
        "log_c_d-bool-concentration": lambda: log_c_d(2, True),
        "dirac_from_w-bool-hbar": lambda: dirac_from_w(w_op, True),
        "RunConfig-float-n": lambda: RunConfig(n_grid=(1000.0, 10000)),
        "Multivector-float-mask": lambda: Multivector(2, {1.0: 1.0}),
        "root_block-float-index": lambda: root_block(1.0),
    }


@pytest.mark.parametrize("case", sorted(_coercions()))
def test_no_integer_or_scale_argument_is_coerced(case):
    with pytest.raises(InvalidArgumentError):
        _coercions()[case]()
