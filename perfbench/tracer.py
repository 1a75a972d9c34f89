"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces chosen public functions of the ``districter``
package with timing wrappers while it is installed, and puts the originals
back when it is removed.  ``from .x import f`` binds ``f`` in the importing
module too, so every module attribute that *is* the original function is
replaced: that covers every call site, including calls a module makes to its
own functions.

Each call is a span with a parent (the innermost traced call that was open
when it started).  Spans are folded as they close into totals per
``(parent, name)`` edge: calls, inclusive time, self time (inclusive time
minus the time of its traced children) and the smallest self time seen.
Folding keeps memory flat on runs with millions of calls.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from time import perf_counter

import numpy as np

# module.function of every traced layer, in report order
LAYERS = (
    "instances.load_instance",
    "instances.derive_adjacency",
    "instances.load_plan",
    "growth.guided_growth",
    "local_search.local_improvement_pass",
    "local_search.flip_candidates",
    "local_search.propose_flip",
    "local_search.adjacent_territory_pairs",
    "local_search.apply_flip",
    "local_search.flip_is_feasible",
    "graph.is_connected",
    "objective.objective_terms",
    "memetic.recombine",
    "memetic.repair",
    "graph.connected_components",
    "graph.validate_plan",
)

ROOT = "trial"
PROBE = "probe"     # deferred speed-probe slices, run as spans of their own


class Tracer:
    """Installs wrappers around :data:`LAYERS` and accumulates their spans."""

    def __init__(self, package):
        self.package = package
        self.edges: dict = {}        # (parent, name) -> [calls, total, self, min_self]
        self.stack: list = []        # open spans: [name, time of traced children]
        self.counters: dict = {}     # useful-work counts seen by observers
        self.pending: list = []      # deferred callables, run as PROBE spans
        self._patched: list = []     # (module, attribute, original)

    # -- spans --------------------------------------------------------------

    def _close(self, name, parent, duration, child_time):
        edge = self.edges.get((parent, name))
        own = duration - child_time
        if edge is None:
            self.edges[(parent, name)] = [1, duration, own, own]
        else:
            edge[0] += 1
            edge[1] += duration
            edge[2] += own
            if own < edge[3]:
                edge[3] = own
        if self.stack:
            self.stack[-1][1] += duration

    def defer(self, fn) -> None:
        """Run ``fn`` as a PROBE span when the next traced call starts.
        Safe to call from a signal handler: it only appends to a list."""
        self.pending.append(fn)

    def _run_pending(self):
        while self.pending:
            self.wrap(PROBE, self.pending.pop())()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name, fn):
        """``fn`` made to record a span named ``name`` on every call."""
        stack, close = self.stack, self._close
        observe = OBSERVERS.get(name)
        counters, pending = self.counters, self.pending

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pending:
                self._run_pending()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                close(name, parent, duration, frame[1])
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    # -- install / remove ---------------------------------------------------

    def _modules(self):
        mods = [self.package]
        for info in pkgutil.iter_modules(self.package.__path__):
            mods.append(importlib.import_module(
                f"{self.package.__name__}.{info.name}"))
        return mods

    def __enter__(self):
        self.pending.clear()     # queued outside the block: never run
        modules = self._modules()
        for layer in LAYERS:
            mod_name, fn_name = layer.split(".")
            home = importlib.import_module(f"{self.package.__name__}.{mod_name}")
            original = getattr(home, fn_name)
            wrapper = self.wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict:
        """name -> {calls, total_s, self_s} summed over parents."""
        out: dict = {}
        for (_, name), (calls, total, own, _) in self.edges.items():
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += calls
            t["total_s"] += total
            t["self_s"] += own
        return out

    def calls_under(self, parent: str, name: str) -> int:
        edge = self.edges.get((parent, name))
        return edge[0] if edge else 0

    def edge_table(self) -> list:
        return [{"parent": p, "name": n, "calls": c, "total_ms": t * 1e3,
                 "self_ms": s * 1e3, "min_self_ms": m * 1e3}
                for (p, n), (c, t, s, m) in sorted(
                    self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))]


# ---------------------------------------------------------------------------
# Useful-work observers: called with (counters, args, result) after a
# traced call returns.
# ---------------------------------------------------------------------------

def _count(counters, key, amount=1):
    counters[key] = counters.get(key, 0) + amount


def _feasible(counters, args, result):
    if result:
        _count(counters, "flip_is_feasible.true")


def _local_pass(counters, args, result):
    _count(counters, "local_improvement_pass.accepted", result.accepted_flips)


def _recombine(counters, args, result):
    if result[1] is None:
        _count(counters, "recombine.noop")


def _repair(counters, args, result):
    moved = np.count_nonzero(result.assignment != args[0].assignment)
    _count(counters, "repair.nodes_moved", int(moved))


OBSERVERS = {
    "local_search.flip_is_feasible": _feasible,
    "local_search.local_improvement_pass": _local_pass,
    "memetic.recombine": _recombine,
    "memetic.repair": _repair,
}
