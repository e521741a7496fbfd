"""In-memory span tracing around crowdfdb's public functions.

A ``Tracer`` replaces every ``crowdfdb.*`` module attribute bound to a
traced function object with a timing wrapper, and puts the originals back
when it exits, so call sites that import a function under any module stay
traced.  Each call records a span (name, start, end, parent span, operation
id); self time is a span's duration minus the part of it its children
cover.  Counted functions only bump a call count.  Only the traced run of
the benchmark uses a Tracer; timed runs execute crowdfdb's own entry point
in separate processes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# Public functions timed at the layer boundary, as "<module>.<function>".
SPANNED = (
    "cli.main",
    "config.write_manifest",
    "datagen.generate_population",
    "datagen.generate_task_pool",
    "datagen.load_workers",
    "datagen.load_responses",
    "simulator.resolve_inputs",
    "simulator.run_experiment",
    "simulator.run_once",
    "simulator.aggregate_reports",
    "simulator.write_results_csv",
    "pipeline.build_policy",
    "estimation.run_gold_phase",
    "estimation.estimate_matrices",
    "lp.build_lp",
    "lp.solve_lp",
    "lp.binding_rows",
    "baselines.greedy_plan",
    "baselines.random_policy",
)
# Functions too small and frequent for a span: calls are counted only.
COUNTED = ("rng.stream",)


def _gold_key(bound: inspect.BoundArguments) -> tuple:
    # the gold seed already hashes (experiment seed, N_g, rep)
    return (bound.arguments["seed"], bound.arguments["cfg"].n_gold_per_type)


def _run_once_key(bound: inspect.BoundArguments) -> tuple:
    # the swept inputs each method reads: CrowdFDB N_g and alpha,
    # Greedy N_g only, Random neither
    cfg = bound.arguments["cfg"]
    key = (cfg.method, cfg.seed, bound.arguments["rep_index"])
    if cfg.method == "CrowdFDB":
        return key + (cfg.gold.n_gold_per_type, cfg.constraints.alpha)
    if cfg.method == "Greedy":
        return key + (cfg.gold.n_gold_per_type,)
    return key


# Work keys whose distinct count per call measures repeated work.
DISTINCT_KEYS: dict[str, Callable[[inspect.BoundArguments], tuple]] = {
    "estimation.run_gold_phase": _gold_key,
    "simulator.run_once": _run_once_key,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def _crowdfdb_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "crowdfdb" or name.startswith("crowdfdb."))
    ]


class Tracer:
    """Context manager that installs the wrappers and records spans."""

    def __init__(self, spanned=SPANNED, counted=COUNTED, distinct_keys=DISTINCT_KEYS):
        self.spanned = tuple(spanned)
        self.counted = tuple(counted)
        self.distinct_keys = dict(distinct_keys)
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.keys: dict[tuple[str, int], set] = defaultdict(set)
        self.missing: list[str] = []
        self.unkeyed: set[str] = set()
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.missing = []
        for name in (*self.spanned, *self.counted):
            module_name, _, attr = name.rpartition(".")
            module = sys.modules.get(f"crowdfdb.{module_name}")
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, timed=name in self.spanned)
            for mod in _crowdfdb_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn, timed: bool):
        key_of = self.distinct_keys.get(name)
        signature = inspect.signature(fn) if key_of is not None else None
        spans, stack, counts, keys = self.spans, self._stack, self.counts, self.keys
        clock = time.perf_counter

        if not timed:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                counts[(name, self.op)] += 1
                return fn(*args, **kwargs)

            return counting

        @functools.wraps(fn)
        def timing(*args, **kwargs):
            op = self.op
            counts[(name, op)] += 1
            if key_of is not None:
                try:
                    keys[(name, op)].add(key_of(signature.bind(*args, **kwargs)))
                except (TypeError, KeyError, AttributeError):
                    self.unkeyed.add(name)  # signature changed: report, do not crash
            index = len(spans)
            spans.append(Span(name, clock(), 0.0, stack[-1] if stack else -1, op))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()

        return timing

    def summary(self, ops: list[int]) -> dict[str, float]:
        """Per-operation means of self time, calls and distinct-key ratios."""
        n = len(ops)
        self_s: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            if span.op in ops:
                self_s[span.name] += own
        out: dict[str, float] = {}
        for name in self.spanned:
            out[f"{name}.self_s"] = self_s[name] / n
            out[f"{name}.calls"] = sum(self.counts[(name, op)] for op in ops) / n
        for name in self.counted:
            out[f"{name}.calls"] = sum(self.counts[(name, op)] for op in ops) / n
        for name in self.distinct_keys:
            ratios = [
                len(self.keys[(name, op)]) / self.counts[(name, op)]
                for op in ops
                if self.counts[(name, op)] and name not in self.unkeyed
            ]
            out[f"{name}.distinct_ratio"] = sum(ratios) / len(ratios) if ratios else 0.0
        return out

    def self_totals(self) -> dict[int, float]:
        """Summed self time of every span, per operation."""
        out: dict[int, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span.op] += own
        return out
