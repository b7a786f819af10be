"""Layer tracing from outside the library.

``install()`` replaces every public function and public method of the
layer modules with a timing wrapper, then rebinds every alias of the
original that any bohrlab module holds (``from .modular import j_eval``
copies the function into the importing module), and finally asserts that
no unwrapped alias is left.  Spans nest: a span's self time is its
duration minus the time of the spans it called.

Run as a script, it executes the bohrlab CLI with tracing on and writes
the trace as one ``BENCH-TRACE <json>`` line on stderr:

    PYTHONPATH=src python benchmarks/tracer.py report --all --seed 7
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types
from collections import Counter

LAYERS = ("series", "modular", "generators", "geometry", "bohr",
          "harmonic", "sweeps", "reporting")

TRACE_PREFIX = "BENCH-TRACE "

_CALLABLE = (types.FunctionType, functools._lru_cache_wrapper)


def _band(rmax: float) -> str:
    """Band of a J call by its largest |w|: the product length follows it."""
    if rmax < 0.5:
        return "lt0.5"
    return "0.5-0.9" if rmax < 0.9 else "ge0.9"


class Tracer:
    """Per-span-name call counts, total and self times, plus counters."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counters = Counter()
        self._stack = []          # open spans: [child_time, j_points]
        self._patches = []        # (owner, name, original attribute)

    # -- spans ----------------------------------------------------------

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[0]
            if hook is not None:
                first = args[0] if args else next(iter(kwargs.values()))
                hook(self, first, result, dt - frame[0], frame[1])
            return result

        traced.__bench_original__ = fn
        return traced

    def add_j_points(self, n: int) -> None:
        """Credit J points to every open span (for per-span J counts)."""
        for frame in self._stack:
            frame[1] += n

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        importlib.import_module("bohrlab.cli")   # loads every layer
        wrapped = {}                              # id(original) -> wrapper
        originals = []                            # keeps the ids valid
        for layer in LAYERS:
            mod = sys.modules["bohrlab." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, _CALLABLE) and _defined_in(obj, mod):
                    wrapped[id(obj)] = self.wrap("%s.%s" % (layer, attr),
                                                 obj)
                    originals.append(obj)
                elif isinstance(obj, type) and obj.__module__ == \
                        mod.__name__:
                    self._wrap_class(layer, obj)
        for mod in _bohrlab_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrapped:
                            obj[k] = wrapped[id(v)]
                            self._patches.append((obj, k, v))
        leftovers = find_unwrapped(set(wrapped))
        if leftovers:
            self.uninstall()
            raise RuntimeError("unwrapped aliases remain: %s"
                               % ", ".join(leftovers))

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(obj, types.FunctionType):
                self._patch(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, (staticmethod, classmethod)):
                self._patch(cls, attr,
                            type(obj)(self.wrap(name, obj.__func__)))

    def _patch(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time),
                "counters": dict(self.counters)}


def _defined_in(obj, mod) -> bool:
    return getattr(obj, "__module__", None) == mod.__name__


def _bohrlab_modules():
    return [m for name, m in list(sys.modules.items())
            if (name == "bohrlab" or name.startswith("bohrlab."))
            and m is not None]


def find_unwrapped(original_ids) -> list[str]:
    """Every place a bohrlab module still reaches an unwrapped original:
    module attributes, values of module-level containers, class
    attributes and function defaults."""
    def _holds(value, _ids=original_ids):
        return id(value) in _ids

    found = []
    for mod in _bohrlab_modules():
        for attr, obj in vars(mod).items():
            where = "%s.%s" % (mod.__name__, attr)
            if _holds(obj):
                found.append(where)
            elif isinstance(obj, dict):
                found += ["%s[%r]" % (where, k) for k, v in obj.items()
                          if _holds(v)]
            elif isinstance(obj, (list, tuple, set, frozenset)):
                found += ["%s[...]" % where for v in obj
                          if _holds(v)]
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for name, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if isinstance(fn, types.FunctionType) and \
                            not name.startswith("_") and \
                            not hasattr(fn, "__bench_original__"):
                        found.append("%s.%s" % (where, name))
            if isinstance(obj, types.FunctionType):
                fn = inspect.unwrap(obj)
                defaults = (fn.__defaults__ or ()) + tuple(
                    (fn.__kwdefaults__ or {}).values())
                found += ["%s default" % where for v in defaults
                          if _holds(v)]
    return found


# ---------------------------------------------------------------------------
# Counters recorded where the work happens


def _j_eval_hook(tr, arg, result, self_s, j_points):
    import numpy as np
    z = np.abs(np.atleast_1d(np.asarray(arg, dtype=complex)))
    band = _band(float(z.max(initial=0.0)))
    tr.counters["modular.j_eval.points." + band] += z.size
    tr.counters["modular.j_eval.self_s." + band] += self_s
    tr.add_j_points(z.size)


def _j_deriv_hook(tr, arg, result, self_s, j_points):
    import numpy as np
    tr.counters["modular.j_deriv.points"] += np.size(arg)


def _q_series_hook(tr, arg, result, self_s, j_points):
    if j_points == 0:
        tr.counters["modular.q_series.hits"] += 1


def _boundary_distance_hook(tr, arg, result, self_s, j_points):
    kind = "inner" if arg.phi.is_inner else "sampled"
    tr.counters["geometry.boundary_distance.calls." + kind] += 1
    tr.counters["geometry.boundary_distance.j_points"] += j_points


def _main_theorem_hook(tr, arg, result, self_s, j_points):
    if not result.passed:
        tr.counters["bohr.main_theorem_check.failed"] += 1


def _render_json_hook(tr, arg, result, self_s, j_points):
    tr.counters["reporting.render_json.bytes"] += len(result.encode())


_HOOKS = {
    "modular.j_eval": _j_eval_hook,
    "modular.j_deriv": _j_deriv_hook,
    "modular.q_series": _q_series_hook,
    "geometry.boundary_distance": _boundary_distance_hook,
    "bohr.main_theorem_check": _main_theorem_hook,
    "reporting.render_json": _render_json_hook,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from one or more snapshots


def merge(snapshots) -> dict:
    out = {"calls": Counter(), "total": Counter(), "self": Counter(),
           "counters": Counter()}
    for snap in snapshots:
        for key in out:
            out[key].update(snap[key])
    return out


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from a snapshot.

    A span or counter that never fired reads 0; ratios with no calls
    read 0."""
    calls, total, self_s, cnt = (snap["calls"], snap["total"],
                                 snap["self"], snap["counters"])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "series.compose.calls": (calls.get(
            "series.TruncatedSeries.compose", 0), "count"),
        "series.compose.self_s": (self_s.get(
            "series.TruncatedSeries.compose", 0.0), "s"),
        "series.exp_series.self_s": (self_s.get(
            "series.exp_series", 0.0), "s"),
        "series.reciprocal.self_s": (self_s.get(
            "series.TruncatedSeries.reciprocal", 0.0), "s"),
        "series.eval.self_s": (self_s.get(
            "series.TruncatedSeries.eval", 0.0), "s"),
    }
    for band in ("lt0.5", "0.5-0.9", "ge0.9"):
        m["modular.j_eval.points." + band] = (
            cnt.get("modular.j_eval.points." + band, 0), "count")
        m["modular.j_eval.self_s." + band] = (
            cnt.get("modular.j_eval.self_s." + band, 0.0), "s")
    q_calls = calls.get("modular.q_series", 0)
    delta_calls = calls.get("geometry.delta_diagnostic", 0)
    m.update({
        "modular.j_deriv.points": (cnt.get("modular.j_deriv.points", 0),
                                   "count"),
        "modular.j_deriv.self_s": (self_s.get("modular.j_deriv", 0.0), "s"),
        "modular.q_series.calls": (q_calls, "count"),
        "modular.q_series.hit_ratio": (
            ratio(cnt.get("modular.q_series.hits", 0), q_calls), "ratio"),
        "generators.make_large_function.calls": (
            calls.get("generators.make_large_function", 0), "count"),
        "generators.make_large_function.total_s": (
            total.get("generators.make_large_function", 0.0), "s"),
        "geometry.boundary_distance.calls.inner": (
            cnt.get("geometry.boundary_distance.calls.inner", 0), "count"),
        "geometry.boundary_distance.calls.sampled": (
            cnt.get("geometry.boundary_distance.calls.sampled", 0),
            "count"),
        "geometry.boundary_distance.total_s": (
            total.get("geometry.boundary_distance", 0.0), "s"),
        "geometry.boundary_distance.j_points": (
            cnt.get("geometry.boundary_distance.j_points", 0), "count"),
        "geometry.delta_diagnostic.total_s": (
            total.get("geometry.delta_diagnostic", 0.0), "s"),
        "geometry.delta_diagnostic.useful_ratio": (
            ratio(cnt.get("bohr.main_theorem_check.failed", 0),
                  delta_calls), "ratio"),
        "geometry.density_distance_products.total_s": (
            total.get("geometry.density_distance_products", 0.0), "s"),
        "bohr.cauchy_tail_bound.calls": (
            calls.get("bohr.cauchy_tail_bound", 0), "count"),
        "bohr.cauchy_tail_bound.total_s": (
            total.get("bohr.cauchy_tail_bound", 0.0), "s"),
    })
    for name in ("main_theorem_check", "von_neumann_check",
                 "littlewood_check", "bohr_radius_solve"):
        m["bohr.%s.total_s" % name] = (total.get("bohr." + name, 0.0), "s")
    for name in ("harmonic_bohr_check", "mg_integral_identity_check"):
        m["harmonic.%s.total_s" % name] = (
            total.get("harmonic." + name, 0.0), "s")
    for name in ("run_theorem4", "run_von_neumann", "run_harmonic"):
        m["sweeps.%s.total_s" % name] = (total.get("sweeps." + name, 0.0),
                                         "s")
    m["reporting.render_json.total_s"] = (
        total.get("reporting.render_json", 0.0), "s")
    m["reporting.render_json.bytes"] = (
        cnt.get("reporting.render_json.bytes", 0), "bytes")
    return m


def main(argv) -> int:
    tracer = Tracer()
    tracer.install()
    from bohrlab import cli
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout.flush()
        print(TRACE_PREFIX + json.dumps(tracer.snapshot()), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
