"""Call counters and self-time spans around peakalg's public functions.

The benchmark's traced run installs these wrappers from outside the
library: nothing under src/ knows about them.  A wrapper replaces the
function on its defining module and on every other peakalg module that
bound it by name (``from .perms import compose`` in algebra, hopf, words,
...), so calls through those aliases are seen too.  Cheap hot functions
are only counted; the others are timed, and a span's self time excludes
the time of the timed spans it encloses.  The benchmark runs verify with
--jobs 1, so every counter is in the one process that installed them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "perms",
    "algebra",
    "bases",
    "peak",
    "mr",
    "commutative",
    "maps",
    "hopf",
    "words",
    "reporting",
    "verify",
    "cli",
)

# (module, function) -> metric key.  Counted only: called millions of times.
COUNTED = {
    ("perms", "compose"): "perms.compose",
    ("hopf", "coproduct_split"): "hopf.coproduct_split",
}

# (module, function) -> metric key, timed.  Several functions may share a key.
TIMED = {
    ("algebra", "internal_product"): "algebra.internal_product",
    ("bases", "descent_coordinates"): "bases.descent_coordinates",
    ("peak", "peak_coordinates"): "peak.peak_coordinates",
    ("peak", "interior_peak_coordinates"): "peak.interior_peak_coordinates",
    ("mr", "tclass_coordinates"): "mr.tclass_coordinates",
    ("commutative", "descent_number_coordinates"): "commutative.coarsen",
    ("commutative", "i0_number_coordinates"): "commutative.coarsen",
    ("commutative", "peak_number_coordinates"): "commutative.coarsen",
    ("commutative", "interior_number_coordinates"): "commutative.coarsen",
    ("bases", "structure_cube"): "bases.structure_cube",
    ("bases", "structure_constants"): "bases.structure_constants",
    ("maps", "theta"): "maps.theta",
    ("maps", "theta_pm"): "maps.theta_pm",
    ("hopf", "coproduct"): "hopf.coproduct",
    ("hopf", "external_product"): "hopf.external_product",
}

# SpanSolver's public entry points; elimination happens inside both.
SOLVER_METHODS = ("__init__", "coords")


def _term_pairs(a, b):
    return len(a.terms) * len(b.terms)


TERM_PAIRS = {"algebra.internal_product", "hopf.external_product"}


class Recorder:
    """Counters of one process, written to trace_dir by dump()."""

    def __init__(self, trace_dir: Path, caches):
        self.dir = Path(trace_dir)
        self.caches = caches
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.max_s = defaultdict(float)
        self.failed = defaultdict(int)
        self.stack = []

    def counted(self, key, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, key, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            if work is not None:
                self.work[key] += work(*args, **kwargs)
            stack = self.stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.self_s[key] += dt - stack.pop()
                self.total_s[key] += dt
                if dt > self.max_s[key]:
                    self.max_s[key] = dt
                if stack:
                    stack[-1] += dt

        return wrapper

    def enumerated(self, key, cached):
        """Counts the elements a cached enumeration builds on a miss."""

        @functools.wraps(cached)
        def wrapper(*args, **kwargs):
            misses = cached.cache_info().misses
            out = cached(*args, **kwargs)
            if cached.cache_info().misses != misses:
                self.work[key] += len(out)
            return out

        return wrapper

    def checked(self, key, run_check):
        """Times each check and counts the ones that do not pass."""
        timed = self.timed(key, run_check)

        @functools.wraps(run_check)
        def wrapper(*args, **kwargs):
            try:
                result = timed(*args, **kwargs)
            except BaseException:
                self.failed[key] += 1
                raise
            if result.status != "pass":
                self.failed[key] += 1
            return result

        return wrapper

    def dump(self, name: str):
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(self.snapshot()))

    def snapshot(self) -> dict:
        return {
            "pid": os.getpid(),
            "calls": dict(self.calls),
            "work": dict(self.work),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "max_s": dict(self.max_s),
            "failed": dict(self.failed),
            "cache_entries": sum(c.cache_info().currsize for c in self.caches),
        }


def _peakalg_modules():
    return [m for name, m in sys.modules.items() if name == "peakalg" or name.startswith("peakalg.")]


def _rebind(original, wrapper):
    """Point every peakalg module-level name bound to original at wrapper."""
    for module in _peakalg_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


def _lru_caches():
    caches = {}
    for module in _peakalg_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                caches[id(value)] = value
    return list(caches.values())


def install(trace_dir: Path) -> Recorder:
    """Wrap the layer functions of the peakalg package."""
    modules = {name: importlib.import_module(f"peakalg.{name}") for name in LAYERS}
    rec = Recorder(trace_dir, _lru_caches())

    for (mod, fn), key in COUNTED.items():
        original = getattr(modules[mod], fn)
        _rebind(original, rec.counted(key, original))
    for (mod, fn), key in TIMED.items():
        original = getattr(modules[mod], fn)
        work = _term_pairs if key in TERM_PAIRS else None
        _rebind(original, rec.timed(key, original, work))
    group_elements = modules["perms"].group_elements
    _rebind(group_elements, rec.enumerated("perms.group_elements", group_elements))
    solver = modules["algebra"].SpanSolver
    for method in SOLVER_METHODS:
        setattr(solver, method, rec.timed("algebra.SpanSolver", getattr(solver, method)))
    run_check = modules["reporting"].run_check
    _rebind(run_check, rec.checked("verify.check", run_check))

    verify = modules["verify"]
    for name, fn in list(verify.SUITES.items()):
        verify.SUITES[name] = rec.timed(f"verify.suite.{name}", fn)
    return rec

