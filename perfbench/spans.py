"""Span recording for the traced benchmark run.

The recorder wraps public functions of the ``minecc`` modules from outside the
program: each wrapped call records a span (name, start, end, parent span,
command id and exact counters read from its arguments and result). Names are
rebound in every ``minecc`` module namespace that holds the function, so calls
made through module globals (``cli`` imports by name, ``hybrid`` calls
``match_coloring`` directly) are seen as nested spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root span
    cmd: int
    counters: dict[str, float] = field(default_factory=dict)


def _lp_counters(args, kwargs, result) -> dict[str, float]:
    lp = kwargs.get("lp", args[0] if args else None)
    return {
        "lp.solve.iterations": result.iterations,
        "lp.vars": lp.num_vars,
        "lp.rows": len(lp.constraints),
        "lp.solve.nonoptimal": int(result.status != "optimal"),
    }


def _deleted_counter(args, kwargs, result) -> dict[str, float]:
    return {"combinatorial.deleted_edges": len(result[0].indices)}


def _explored_counter(args, kwargs, result) -> dict[str, float]:
    return {"oracle.bruteforce_ecc.explored": result.explored}


# Wrapped functions as "module.function", with the counters read from each call.
TARGETS = {
    "cli.main": None,
    "instances.parse_canonical": None,
    "instances.gen_random": None,
    "instances.write_canonical": None,
    "hypergraph.hypergraph": None,
    "hypergraph.validate": None,
    "hypergraph.build_incidence": None,
    "hypergraph.objective_cost": None,
    "combinatorial.majority_vote": None,
    "combinatorial.mv_lower_bound": None,
    "combinatorial.match_coloring": _deleted_counter,
    "combinatorial.pitt_coloring": _deleted_counter,
    "combinatorial.hybrid": None,
    "relaxations.build_ecc_lp": None,
    "relaxations.build_nodemc_lp": None,
    "relaxations.extract_ecc_solution": None,
    "lp.solve": _lp_counters,
    "rounding.gen_color_round": None,
    "rounding.rounding_invariant_violations": None,
    "rounding.estimate_mistake_prob": None,
    "oracle.bruteforce_ecc": _explored_counter,
    "reductions.ecc_to_vertex_cover": None,
    "certificates.verify_all": None,
}


class Recorder:
    """Keeps spans in memory; ``cmd`` is the id stamped on new spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.cmd = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else -1, self.cmd)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counters.update(count(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        """Rebind every target in all loaded ``minecc`` modules; returns an undo function."""
        owners = {t: importlib.import_module("minecc." + t.split(".")[0]) for t in TARGETS}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "minecc" or name.startswith("minecc."))]
        rebound = []
        for target, count in TARGETS.items():
            original = getattr(owners[target], target.split(".")[1])
            wrapper = self.wrap(target, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        rebound.append((module, attr, original))

        def uninstall() -> None:
            for module, attr, original in rebound:
                setattr(module, attr, original)

        return uninstall


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
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


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def totals(spans: list[Span], cmds) -> dict[str, float]:
    """Per-name self time (``<name>.s``), call count (``<name>.calls``) and
    summed counters over the spans whose command id is in ``cmds``."""
    out: dict[str, float] = {}
    for s, self_s in zip(spans, self_times(spans)):
        if s.cmd not in cmds:
            continue
        out[s.name + ".s"] = out.get(s.name + ".s", 0.0) + self_s
        out[s.name + ".calls"] = out.get(s.name + ".calls", 0) + 1
        for key, value in s.counters.items():
            out[key] = out.get(key, 0) + value
    return out


def to_rows(spans: list[Span]) -> list[list]:
    return [[s.name, s.start, s.end, s.parent, s.counters] for s in spans]


def extend_from_rows(recorder: Recorder, rows: list[list]) -> None:
    """Append spans written by another process, stamped with the recorder's current command."""
    offset = len(recorder.spans)
    for name, start, end, parent, counters in rows:
        recorder.spans.append(Span(name, start, end, parent + offset if parent >= 0 else -1,
                                   recorder.cmd, counters))
