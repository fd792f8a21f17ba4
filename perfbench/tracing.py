"""In-memory span tracer for the diraclab layers, installed from outside.

``Tracer.install()`` replaces every public function and public method of the
traced modules with a wrapper that records one span per call: name, start,
end (``perf_counter_ns``) and the index of the enclosing span.  A function is
replaced where it is defined and under every name another diraclab module
imported it as, so calls between modules are seen too.  ``uninstall()`` puts
every original object back.  Spans stay in memory until the caller reads
them; nothing is written while a pass runs.

The tracer keeps one span stack, so traced code must run on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("clifford", "liealg", "specfun", "manifold", "graphdirac", "estimators", "cli")
PACKAGE = "diraclab"
ROOT = "bench.pass"


def _points(arr) -> int:
    a = np.asarray(arr)
    return a.size // a.shape[-1] if a.ndim else 1


# Work counted at a span boundary, from the call's arguments: the number of
# points, star copies or bytes the call handled.  Each returns (units, tag).
_UNITS_BEFORE = {
    "manifold.sample_uniform_batch": lambda a, k: (int(a[3]), a[0].kind),
    "manifold.exp_map": lambda a, k: (_points(a[2]), a[0].kind),
    "manifold.log_map": lambda a, k: (_points(a[2]), a[0].kind),
    "manifold.log_coords": lambda a, k: (_points(a[2]), a[0].kind),
    "estimators.dirac_estimate": lambda a, k: (len(a[1]), a[0].kind),
    "estimators.laplace_estimate": lambda a, k: (len(a[1]), a[0].kind),
}
_UNITS_AFTER = {
    "graphdirac.WeightedGraphDirac.export_matrix_market": lambda a, k: (
        os.path.getsize(a[1]),
        "",
    ),
}


class Tracer:
    """Records spans of calls into the diraclab layers while installed."""

    def __init__(self) -> None:
        # Parallel lists: one entry per span.
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.units: list[int] = []
        self.tags: list[str] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.units.append(0)
        self.tags.append("")
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        before = _UNITS_BEFORE.get(name)
        after = _UNITS_AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if before is not None:
                    tracer.units[idx], tracer.tags[idx] = before(args, kwargs)
                elif after is not None:
                    tracer.units[idx], tracer.tags[idx] = after(args, kwargs)

        traced.__traced_original__ = fn
        return traced

    # -- install / uninstall -------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of the traced layers."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        # Import every layer before patching any, so that no module binds a
        # wrapper at import time that uninstall() would not know to undo.
        mods = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        replaced = {}
        for layer, mod in zip(LAYERS, mods):
            for public in getattr(mod, "__all__", ()):
                obj = getattr(mod, public)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{public}")
                    replaced[id(obj)] = wrapped
                    self._set(mod, public, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{public}")
        # Re-point every other module-level name bound to a replaced function.
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and vars(mod)[attr] is not wrapped:
                    self._set(mod, attr, wrapped)

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, f"{prefix}.{attr}"))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, f"{prefix}.{attr}")
            else:
                continue
            self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        """Put back every original object, in reverse order of replacement."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _package_modules():
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    prefix = PACKAGE + "."
    for name, mod in list(sys.modules.items()):
        if name.startswith(prefix) and mod is not None:
            mods.append(mod)
    return mods


def installed_wrappers() -> list[str]:
    """Names in the diraclab package that are still bound to a tracing wrapper."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "__traced_original__"):
                found.append(f"{mod.__name__}.{attr}")
            elif inspect.isclass(value) and value.__module__.startswith(PACKAGE):
                for mattr, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if hasattr(fn, "__traced_original__"):
                        found.append(f"{mod.__name__}.{attr}.{mattr}")
    return found


# -- analysis ------------------------------------------------------------


def self_times(starts, ends, parents) -> np.ndarray:
    """Per-span self time: its duration minus the durations of its children."""
    dur = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    own = dur.copy()
    par = np.asarray(parents, dtype=np.int64)
    has = par >= 0
    np.subtract.at(own, par[has], dur[has])
    return own


def layer_of(name: str) -> str:
    """Layer a span belongs to: its module name, or ``bench`` for the root."""
    return "bench" if name == ROOT else name.split(".", 1)[0]


def ancestors_match(parents, names, idx: int, wanted) -> bool:
    """Whether any enclosing span of ``idx`` has a name in ``wanted``."""
    p = parents[idx]
    while p >= 0:
        if names[p] in wanted:
            return True
        p = parents[p]
    return False
