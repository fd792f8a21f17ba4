"""One sign convention: every public ``sigma`` default is +1."""

from __future__ import annotations

import importlib
import inspect

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
