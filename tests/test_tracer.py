"""The benchmark's tracer over two searches.

``perfbench/tracing.py`` patches module-level names of ``gaussdiag.simplify``
(``apply_move``, ``canonical``, ``enumerate_moves``,
``serialize_gauss_code``, ``simplify``) and swaps its ``heapq`` for a
namespace holding only ``heappush`` and ``heappop``.  A search that needs
any other name fails here, not in a traced benchmark run.  It also patches
the detectors in ``gaussdiag.moves``, whose spans must count every
detection the search runs.
"""

from __future__ import annotations

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from gaussdiag import SearchLimits, parse_gauss_code

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


# each detector of gaussdiag.moves, and the span the tracer opens for it
DETECTORS = {
    "r1_removable_chords": "moves.r1_detect",
    "r2_removable_pairs": "moves.r2_detect",
    "r3_movable_triples": "moves.r3_detect",
}


# searches with insertions, each with its expansions and its calls to each
# detector: the trefoil keys every family of its 20 states; the other
# reaches the empty diagram by an R3 and two R2 deletions, and keys the R1
# and R3 families of its start only
SEARCHES = [
    ("O1- O2- U1- U2-", 20, {"moves.r1_detect": 20, "moves.r2_detect": 20, "moves.r3_detect": 20}),
    ("O3+ U4- O1+ U2- U1+ U3+ O2- O4-", 3,
     {"moves.r1_detect": 1, "moves.r2_detect": 3, "moves.r3_detect": 1}),
]


def test_tracer_wraps_one_search_and_restores_the_module(monkeypatch):
    search = importlib.import_module("gaussdiag.simplify")
    moves = importlib.import_module("gaussdiag.moves")
    originals = dict(vars(search))
    # count the detector calls apart from the tracer, which wraps the spies
    spied = Counter()
    for attr, span in DETECTORS.items():
        def spy(diagram, detect=getattr(moves, attr), span=span):
            spied[span] += 1
            return detect(diagram)

        monkeypatch.setattr(moves, attr, spy)

    for code, expanded, detections in SEARCHES:
        d = parse_gauss_code(code)
        limits = SearchLimits(max_states=20, allow_insertions=True)
        untraced = search.simplify(d, limits)
        spied.clear()
        tracer = _tracer_class()()
        tracer.install()
        try:
            traced = search.simplify(d, limits)
        finally:
            tracer.uninstall()

        assert traced == untraced, code
        assert vars(search) == originals, code
        assert tracer.calls["simplify.search"] == 1, code
        assert tracer.counts["simplify.states_expanded"] == traced.states_explored == expanded
        # the search detects a move family only when it keys the family's
        # chord count, through the detectors, and never enumerates moves
        assert tracer.calls["moves.enumerate_moves"] == 0, code
        assert {span: tracer.calls[span] for span in DETECTORS.values()} == spied == detections
        assert tracer.counts["simplify.new_states"] > 0, code
        metrics = tracer.metrics(1)
        assert metrics["simplify.states_expanded"] == (traced.states_explored, "count"), code
