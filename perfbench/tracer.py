"""Spans around the program's public entry points, recorded from outside the package.

``Tracer.install()`` replaces each target function or method with a wrapper
that records ``(span id, parent id, name, thread, start, end, points, extra)``
in memory.  Module-level functions are replaced in every loaded
``sdedensity`` module that holds them, so ``from .x import f`` aliases are
traced too.  A span opened on a worker thread with nothing open on that
thread takes the innermost span open on the main thread as its parent (the
call that farmed out the work), so threaded children nest under their caller.

``layer_metrics`` turns the spans into the per-layer numbers.  Self time is a
span's duration minus the union of its children's intervals, because
children on different threads overlap.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import resource
import sys
import threading
import time
from collections import defaultdict


def _size(value) -> int:
    import numpy as np
    return int(np.size(value))


class _QuadProxy:
    """Stands in for ``scipy.integrate`` inside the oracle module, counting ``quad``."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else 0

    def wrap(self, name, fn, points=None, key=None, after=None, rss=False):
        """Wrap fn; points/key read the arguments, after reads the result."""
        tracer = self
        wants_extra = key is not None or after is not None or rss

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            extra = {} if wants_extra else None
            if key is not None:
                extra["key"] = key(args, kwargs)
            if rss:
                extra["rss_before_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            n = points(args, kwargs) if points is not None else 0
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, name, threading.get_ident(), t0, t1, n,
                                     extra))
            if rss:
                extra["rss_after_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if after is not None:
                extra.update(after(result))
            return result

        return traced

    @contextlib.contextmanager
    def region(self, name):
        """A root span of the benchmark's own (setup, run)."""
        stack = self._stack()
        parent, sid = self._parent(stack), next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), t0, t1, 0, None))

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        from importlib import import_module

        from scipy import integrate

        # the package namespace rebinds some module names (simulate, invert) to
        # functions, so fetch the modules themselves
        bounds, charfn, cutoff, invert, lamperti, model, oracle, simulate = (
            import_module(f"sdedensity.{m}") for m in
            ("bounds", "charfn", "cutoff", "invert", "lamperti", "model", "oracle", "simulate"))

        def arg_size(i):
            return lambda a, k: _size(a[i])

        def sim_points(a, k):
            cfg = a[1]
            return cfg.n_paths * cfg.n_steps

        def cf_points(a, k):
            ens, grid = a[0], a[3]
            return ens.n_paths * grid.values.size

        def bound_counts(report):
            import numpy as np
            return {"frequencies": int(report.y.size),
                    "distinct_lookbacks": int(np.unique(report.eps_used).size)}

        for cls, attr, name, pts in [
            (model.PiecewiseFunction, "__call__", "model.coef", arg_size(1)),
            (model.DriftFunctional, "__call__", "model.g", arg_size(1)),
            (lamperti.LampertiMap, "forward_many", "lamperti.forward", arg_size(1)),
            (lamperti.LampertiMap, "inverse_many", "lamperti.inverse", arg_size(1)),
            (cutoff.CutoffFunction, "__call__", "cutoff.phi", arg_size(1)),
        ]:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), points=pts))

        for mod, attr, name, kw in [
            (simulate, "simulate", "simulate.simulate", dict(points=sim_points, rss=True)),
            (lamperti, "build_lamperti_map", "lamperti.build", {}),
            (charfn, "estimate_localized", "charfn.estimate_localized",
             dict(points=cf_points, key=lambda a, k: float(a[4]))),
            (bounds, "bound_report", "bounds.bound_report", dict(after=bound_counts, rss=True)),
            (invert, "invert", "invert.invert", {}),
            (invert, "pushforward", "invert.pushforward", {}),
            (oracle, "localized_cf", "oracle.localized_cf", {}),
            (oracle, "localized_cf_transformed", "oracle.localized_cf_transformed", {}),
            (oracle, "exact_density", "oracle.exact_density", dict(points=arg_size(2))),
        ]:
            _replace_everywhere(getattr(mod, attr), self.wrap(name, getattr(mod, attr), **kw))

        oracle.integrate = _QuadProxy(integrate, self.wrap("oracle.quad", integrate.quad))

    # -- output -----------------------------------------------------------------

    def write_csv(self, path) -> None:
        lines = ["trace_id,span_id,parent_id,name,thread,start_ns,end_ns,points"]
        for sid, parent, name, tid, t0, t1, n, _ in self.spans:
            lines.append(f"{self.trace_id},{sid},{parent},{name},{tid},{t0},{t1},{n}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _replace_everywhere(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "sdedensity" or mod_name.startswith("sdedensity."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _union_ns(intervals, lo, hi) -> int:
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[tuple]) -> dict:
    """Per-layer counts and times from one traced run (see perfbench/metrics.py)."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
        by_name[s[2]].append(s)

    def ancestors(s):
        p = by_id.get(s[1])
        while p is not None:
            yield p
            p = by_id.get(p[1])

    def dur(s):
        return (s[5] - s[4]) * 1e-9

    def self_s(s):
        kids = [(c[4], c[5]) for c in children.get(s[0], ())]
        return (s[5] - s[4] - _union_ns(kids, s[4], s[5])) * 1e-9

    def named(name):
        return by_name.get(name, [])

    def under(s, names):
        return any(a[2] in names for a in ancestors(s))

    def outermost(layer):
        """Spans of the layer not nested in another span of the same layer."""
        return [s for s in spans if _layer(s[2]) == layer
                and not any(_layer(a[2]) == layer for a in ancestors(s))]

    def rss_delta_mb(ss):
        return sum(max(0, s[7]["rss_after_kib"] - s[7]["rss_before_kib"]) for s in ss
                   if s[7] and "rss_after_kib" in s[7]) * 1024 / 1e6

    m = {}
    coef = [s for s in named("model.coef") if under(s, {"simulate.simulate"})]
    m["model.coef_calls"] = len(coef)
    m["model.coef_s"] = sum(self_s(s) for s in coef)
    g = [s for s in named("model.g") if under(s, {"bounds.bound_report"})
         and not under(s, {"model.g"})]
    m["model.g_points"] = sum(s[6] for s in g)
    m["model.g_s"] = sum(dur(s) for s in g)

    sim = named("simulate.simulate")
    m["simulate.s"] = sum(dur(s) for s in sim)
    m["simulate.path_steps_per_s"] = sum(s[6] for s in sim) / m["simulate.s"] if sim else 0.0
    m["simulate.rss_delta_mb"] = rss_delta_mb(sim)

    m["lamperti.build_s"] = sum(dur(s) for s in named("lamperti.build"))
    fwd = [s for s in named("lamperti.forward")
           if not under(s, {"lamperti.inverse", "lamperti.forward"})]
    m["lamperti.forward_points"] = sum(s[6] for s in fwd)
    m["lamperti.forward_s"] = sum(dur(s) for s in fwd)
    inv = [s for s in named("lamperti.inverse") if not under(s, {"lamperti.inverse"})]
    m["lamperti.inverse_s"] = sum(dur(s) for s in inv)
    m["lamperti.newton_iters"] = sum(1 for s in named("lamperti.forward")
                                     if by_id.get(s[1], (None,) * 3)[2] == "lamperti.inverse")

    m["cutoff.s"] = sum(dur(s) for s in outermost("cutoff"))

    cf = named("charfn.estimate_localized")
    m["charfn.calls"] = len(cf)
    m["charfn.distinct_t"] = len({s[7]["key"] for s in cf})
    m["charfn.s"] = sum(self_s(s) for s in cf)
    m["charfn.sample_freqs_per_s"] = sum(s[6] for s in cf) / m["charfn.s"] if cf else 0.0

    br = named("bounds.bound_report")
    m["bounds.s"] = sum(dur(s) for s in br)
    m["bounds.rss_delta_mb"] = rss_delta_mb(br)
    m["bounds.frequencies"] = sum(s[7]["frequencies"] for s in br if s[7])
    m["bounds.distinct_lookbacks"] = sum(s[7]["distinct_lookbacks"] for s in br if s[7])

    m["invert.s"] = sum(dur(s) for s in outermost("invert"))

    m["oracle.quad_calls"] = len(named("oracle.quad"))
    m["oracle.integrand_evals"] = len(named("oracle.exact_density"))
    m["oracle.s"] = sum(dur(s) for s in outermost("oracle"))
    return m


COUNT_METRICS = ("model.coef_calls", "model.g_points", "lamperti.newton_iters",
                 "lamperti.forward_points", "charfn.calls", "charfn.distinct_t",
                 "bounds.frequencies", "bounds.distinct_lookbacks", "oracle.quad_calls",
                 "oracle.integrand_evals")
