"""Spans around the calls one ``gaussdiag`` module makes into another.

The tracer replaces module attributes at run time, so it sees every call
that goes through a module-level name: ``simplify`` calling ``canonical``,
``moves`` calling ``make_diagram``, the benchmark calling ``apply_move``.
Each call becomes a span (name, start, end, parent).  Self time is a span's
duration minus the time of its child spans, accumulated as spans close.
The first ``KEEP_SPANS`` spans are also kept whole and written out at the end.

Boundaries are fixed by name, so a boundary that a later change bypasses
reads as zero calls, not as a missing row.
"""

from __future__ import annotations

import heapq
import importlib
import json
import time
import types
from collections import Counter

# (module whose attribute is replaced, attribute, span name)
SPANS = (
    ("gaussdiag.codec", "parse_gauss_code", "codec.parse"),
    ("gaussdiag.simplify", "serialize_gauss_code", "codec.serialize"),
    ("gaussdiag.codec", "make_diagram", "diagram.construct"),
    ("gaussdiag.diagram", "make_diagram", "diagram.construct"),
    ("gaussdiag.moves", "make_diagram", "diagram.construct"),
    ("gaussdiag.simplify", "canonical", "diagram.canonical"),
    ("gaussdiag.moves", "r1_removable_chords", "moves.r1_detect"),
    ("gaussdiag.moves", "r2_removable_pairs", "moves.r2_detect"),
    ("gaussdiag.moves", "r3_movable_triples", "moves.r3_detect"),
    ("gaussdiag.moves", "apply_move", "moves.apply"),
    ("gaussdiag.simplify", "apply_move", "moves.apply"),
    ("gaussdiag.moves", "enumerate_moves", "moves.enumerate_moves"),
    ("gaussdiag.simplify", "enumerate_moves", "moves.enumerate_moves"),
    ("gaussdiag.moves", "census_movable_triples", "moves.census"),
    ("gaussdiag.simplify", "simplify", "simplify.search"),
    ("gaussdiag.simplify", "verify_trace", "simplify.verify_trace"),
)
# generators: each step of the iteration is one span
GENERATOR_SPANS = (
    ("gaussdiag.diagram", "enumerate_diagrams", "diagram.enumerate"),
    ("gaussdiag.moves", "enumerate_diagrams", "diagram.enumerate"),
)
# far too frequent for a span each (thousands per R3 detection): counted only
COUNTED = (("gaussdiag.moves", "analyze_triple", "moves.analyze_triple"),)
KEEP_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.spans = []  # (id, name, start, end, parent id)
        self._stack = []  # [id, name, child seconds]
        self._next_id = 0
        self._patched = []

    # ---------------------------------------------------------------- spans

    def _open(self, name):
        self._next_id += 1
        frame = [self._next_id, name, 0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, frame, name, start):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
            self.counts[f"{parent[1]}>{name}"] += 1
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((frame[0], name, start, end, parent[0] if parent else None))

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            frame, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, name, start)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                frame, start = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(frame, name, start)
                yield item

        return traced

    def wrap_counted(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[f"{self.parent_name()}>{name}"] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------- patching

    def _patch(self, module_name, attr, replacement):
        module = importlib.import_module(module_name)
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        on_result = {
            "moves.r3_detect": lambda found: self.counts.update({"moves.r3_found": len(found)}),
            "simplify.search": lambda res: self.counts.update(
                {"simplify.states_expanded": res.states_explored}),
        }
        for module_name, attr, name in SPANS:
            fn = getattr(importlib.import_module(module_name), attr)
            self._patch(module_name, attr, self.wrap(name, fn, on_result.get(name)))
        for module_name, attr, name in GENERATOR_SPANS:
            fn = getattr(importlib.import_module(module_name), attr)
            self._patch(module_name, attr, self.wrap_generator(name, fn))
        for module_name, attr, name in COUNTED:
            fn = getattr(importlib.import_module(module_name), attr)
            self._patch(module_name, attr, self.wrap_counted(name, fn))

        # simplify pushes each new state onto its frontier exactly once
        def heappush(heap, item):
            self.counts["simplify.new_states"] += 1
            heapq.heappush(heap, item)

        self._patch("gaussdiag.simplify", "heapq",
                    types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -------------------------------------------------------------- results

    def metrics(self, rounds: int) -> dict:
        """Per-module figures per round of the workload."""
        c = self.counts

        def per_round(x):
            return x / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        children = c["simplify.search>moves.apply"]
        detect_triples = c["moves.r3_detect>moves.analyze_triple"]
        analyze_calls = sum(v for k, v in c.items() if k.endswith(">moves.analyze_triple"))
        out = {
            "diagram.construct.calls": (per_round(self.calls["diagram.construct"]), "count"),
            "diagram.construct.self_s": (per_round(self.self_s["diagram.construct"]), "s"),
            "diagram.canonical.calls": (per_round(self.calls["diagram.canonical"]), "count"),
            "diagram.canonical.self_s": (per_round(self.self_s["diagram.canonical"]), "s"),
            "diagram.enumerate.self_s": (per_round(self.self_s["diagram.enumerate"]), "s"),
            "moves.census.self_s": (per_round(self.self_s["moves.census"]), "s"),
            "moves.r3_detect.calls": (per_round(self.calls["moves.r3_detect"]), "count"),
            "moves.r3_detect.self_s": (per_round(self.self_s["moves.r3_detect"]), "s"),
            "moves.analyze_triple.calls": (per_round(analyze_calls), "count"),
            "moves.r3_yield": (ratio(c["moves.r3_found"], detect_triples), "ratio"),
            "moves.r2_detect.self_s": (per_round(self.self_s["moves.r2_detect"]), "s"),
            "moves.r1_detect.self_s": (per_round(self.self_s["moves.r1_detect"]), "s"),
            "moves.apply.calls": (per_round(self.calls["moves.apply"]), "count"),
            "moves.apply.self_s": (per_round(self.self_s["moves.apply"]), "s"),
            "codec.serialize.calls": (per_round(self.calls["codec.serialize"]), "count"),
            "codec.serialize.self_s": (per_round(self.self_s["codec.serialize"]), "s"),
            "codec.parse.self_s": (per_round(self.self_s["codec.parse"]), "s"),
            "simplify.search.self_s": (per_round(self.self_s["simplify.search"]), "s"),
            "simplify.states_expanded": (per_round(c["simplify.states_expanded"]), "count"),
            "simplify.children": (per_round(children), "count"),
            "simplify.new_state_ratio": (ratio(c["simplify.new_states"], children), "ratio"),
        }
        return out

    def write(self, path):
        """Write the kept spans and the per-name totals as JSON."""
        doc = {
            "spans_kept": len(self.spans),
            "spans_total": self._next_id,
            "fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
