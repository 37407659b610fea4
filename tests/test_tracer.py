"""The benchmark's tracer over one search.

``perfbench/tracing.py`` patches module-level names of ``gaussdiag.simplify``
(``apply_move``, ``canonical``, ``enumerate_moves``,
``serialize_gauss_code``, ``simplify``) and swaps its ``heapq`` for a
namespace holding only ``heappush`` and ``heappop``.  A search that needs
any other name fails here, not in a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from gaussdiag import SearchLimits, parse_gauss_code

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_wraps_one_search_and_restores_the_module():
    search = importlib.import_module("gaussdiag.simplify")
    originals = dict(vars(search))
    d = parse_gauss_code("O1- O2- U1- U2-")
    limits = SearchLimits(max_states=20, allow_insertions=True)
    untraced = search.simplify(d, limits)

    tracer = _tracer_class()()
    tracer.install()
    try:
        traced = search.simplify(d, limits)
    finally:
        tracer.uninstall()

    assert traced == untraced
    assert vars(search) == originals
    assert tracer.calls["simplify.search"] == 1
    assert tracer.counts["simplify.states_expanded"] == traced.states_explored
    assert tracer.calls["moves.enumerate_moves"] == traced.states_explored
    assert tracer.counts["simplify.new_states"] > 0
    metrics = tracer.metrics(1)
    assert metrics["simplify.states_expanded"] == (traced.states_explored, "count")
