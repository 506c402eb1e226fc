"""In-memory spans around the benchmark's calls into the hanoiduel layers.

An untraced run calls the library functions directly.  A traced run wraps
the public functions in ``TRACED`` and, for the length of one round,
patches the wrappers into the namespaces of the hanoiduel modules and of
``workloads``, so that the benchmark's own calls are timed and a call from
one layer into another (cli -> verify -> solve, scoreforms -> construct)
gets a span of its own, and the layers' self times add up.  Core functions
are patched into ``workloads`` only, so they are timed on the benchmark's
own calls: they are the inner loop of ``build_graph`` and ``replay``, where
a span per call would swamp the work being measured.
"""

from __future__ import annotations

import gzip
import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from types import FunctionType

import workloads
from hanoiduel.notation import seq_length

LAYERS = ("core", "notation", "construct", "scoreforms", "solve", "verify", "cli")

TRACED = {
    "core": ("legal_moves", "apply_move", "is_terminal"),
    "notation": ("replay",),
    "construct": ("scoring_strategy",),
    "scoreforms": (
        "normal_verdict",
        "min_moves_normal",
        "scoring_verdict",
        "min_moves_scoring",
    ),
    "solve": (
        "build_graph",
        "solve_normal",
        "bounded_scoring_search",
        "shortest_forced_win",
        "export_graph",
    ),
    "verify": ("run_checks",),
    "cli": ("main",),
}


def _edges(graph) -> int:
    return sum(map(len, graph.succ))


# Work counts read from a traced call's result once its span has ended.
COUNTERS = {
    "solve.build_graph": lambda g: {
        "states": g.total_states,
        "reachable": g.reachable_count,
        "edges": _edges(g),
    },
    "solve.solve_normal": lambda lab: {"edges": _edges(lab.graph)},
    "solve.bounded_scoring_search": lambda r: {
        "budgets_scanned": r.min_win_plies if r.win_found else r.bound
    },
    "notation.replay": lambda r: {"plies": r.plies_applied},
    "construct.scoring_strategy": lambda plan: {"moves": seq_length(plan.full)},
}


class Tracer:
    """Collects spans as (name, start, end, parent index, question id)."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.question = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._open, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.question)
            if counter is not None:
                for key, value in counter(result).items():
                    counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Write every span, one row each, as gzipped JSON."""
        payload = {
            "columns": ["name", "start", "end", "parent", "question"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


@contextmanager
def instrument(tracer: Tracer):
    """Route calls into the traced functions through spans of ``tracer``."""
    inner, everywhere = {}, {}
    for layer, names in TRACED.items():
        module = importlib.import_module(f"hanoiduel.{layer}")
        for name in names:
            fn = getattr(module, name)
            everywhere[fn] = tracer.wrap(f"{layer}.{name}", fn)
            if layer != "core":
                inner[fn] = everywhere[fn]
    targets = [(vars(workloads), everywhere)] + [
        (vars(importlib.import_module(f"hanoiduel.{layer}")), inner) for layer in LAYERS
    ]
    patched = []
    for namespace, wrappers in targets:
        for name, value in list(namespace.items()):
            if isinstance(value, FunctionType) and value in wrappers:
                patched.append((namespace, name, value))
                namespace[name] = wrappers[value]
    try:
        yield
    finally:
        for namespace, name, value in patched:
            namespace[name] = value


def summarize(tracer: Tracer, wall: float, scales: list[float]) -> dict[str, float]:
    """Per-function calls and seconds, per-layer self time, and the rest.

    Each span's duration is multiplied by ``scales[question]``, the
    reference-speed factor of the question it fell in (see
    ``run.timed_round``), so that the figures compare with the untraced
    ``run_s``; ``wall`` is the traced round's time at that speed.  A span's
    self time is its duration minus the durations of its direct children.
    ``bench.self_s`` is the part of ``wall`` that no library span covers:
    answer checks, playout random numbers and the loop itself.
    """
    spans = tracer.spans
    duration = [(end - start) * scales[q] for _, start, end, _, q in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += duration[i]
    calls: Counter = Counter()
    seconds: Counter = Counter()
    self_s = {layer: 0.0 for layer in LAYERS}
    for i, (name, _, _, _, _) in enumerate(spans):
        calls[name] += 1
        seconds[name] += duration[i]
        self_s[name.split(".", 1)[0]] += duration[i] - child[i]
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = seconds[name]
    for layer, value in self_s.items():
        out[f"{layer}.self_s"] = value
    out["bench.self_s"] = wall - sum(self_s.values())
    return out
