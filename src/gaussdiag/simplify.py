"""Reduce diagrams toward the unknot with R1/R2 deletions and R3 rewrites.

reduce_greedy applies the first available deletion until stuck, which is
enough for diagrams whose simplification never needs R3.  simplify runs a
best-first search over everything reachable by deletions and R3 (plus
insertions under a chord cap when enabled), deduplicating states by their
canonical code string, and returns a minimum-chord-count state with a
replayable trace.  The search stores each state as its parent's code and
the move from it, and keys children one chord count at a time from their
parent's ``diagram._rows``.  A pending entry is a parent's code with one
move family, tagged by the chords it adds: -1 for its R1 deletions, -2
for its R2 deletions, 0 for its R3s, and 1 and 2 for its R1 and R2
insertions where they fit under the cap.  A family's moves are found only
when its chord count is keyed: ``moves._detected_rows`` detects a
deletion or R3 family and ``moves._spliced_rows`` generates an insertion
family, each yielding the children's rows, and a move is built only for a
child whose code is new.  Diagrams are built only for the states the
search expands, from which it reads the trace back.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .codec import _canonical_code, serialize_gauss_code
from .diagram import GaussDiagram, _rows, canonical
from .moves import (
    MoveNotApplicable,
    R1Delete,
    R1Insert,
    R2Delete,
    R2Insert,
    R3,
    _detected_rows,
    _fresh_labels,
    _spliced_rows,
    apply_move,
    # not called here; imported so that perfbench/tracing.py can patch it
    enumerate_moves,  # noqa: F401
    format_move,
    r1_removable_chords,
    r2_removable_pairs,
)


@dataclass(frozen=True)
class SearchLimits:
    """Limits for simplify: max_states bounds the states expanded,
    allow_insertions turns R1/R2 insertions on, and max_chords caps the
    chord count they may grow a state to (None: input chord count + 2)."""

    max_states: int = 100000
    allow_insertions: bool = False
    max_chords: Optional[int] = None


@dataclass(frozen=True)
class SimplifyResult:
    """final diagram, trace of (move, canonical form after the move),
    states explored, and whether the state budget truncated the search.
    The trace is the search's stored moves from the input: the final
    diagram is where they lead, and each trace entry's canonical form is
    built from the state after its move."""

    final: GaussDiagram
    trace: tuple
    states_explored: int
    limit_hit: bool


@dataclass(frozen=True)
class TraceCheck:
    ok: bool
    failed_step: Optional[int] = None

    def __bool__(self):
        return self.ok


def reduce_greedy(d: GaussDiagram) -> SimplifyResult:
    """Apply the first available deletion (R2 before R1, each in detection
    order) until none applies.  Terminates: every step removes chords."""
    trace = []
    while True:
        pairs = r2_removable_pairs(d)
        if pairs:
            move = R2Delete(pairs[0])
        else:
            singles = r1_removable_chords(d)
            if not singles:
                break
            move = R1Delete(singles[0])
        d = apply_move(d, move)
        trace.append((move, canonical(d)))
    return SimplifyResult(
        final=d, trace=tuple(trace), states_explored=len(trace) + 1, limit_hit=False
    )


def simplify(d: GaussDiagram, limits: SearchLimits = SearchLimits()) -> SimplifyResult:
    """Best-first search for a minimum-chord-count diagram.

    States are keyed by canonical code, the serialized canonical form
    spelled straight from the least-rotation encoding of a child's rows:
    its parent's ``_rows`` edited by one of the ``moves`` walks.  The
    frontier is ordered by (chord count, canonical code), which fixes the
    expansion order and makes the result deterministic for given limits.
    Ties among final states break toward the lexicographically least
    canonical code.

    An expanded state's children come from its deletions and R3 rewrites,
    then from its R1 insertions when one more chord fits under max_chords
    and its R2 insertions when two more do; insertions that cannot fit are
    never generated.

    Each state stores only its parent's code and the move from it.  A
    child can share a code only with states of its own chord count, so
    children wait in a pending list per chord count: a count's list is
    keyed (and deduplicated, the first generated child of a code winning)
    before the frontier can pop a state of that count or higher.  A
    generated empty child is keyed at once and ends the search.  An
    expansion queues one pending entry per move family, (parent's code,
    chords the family adds), at the count its children have: its R1
    deletions (-1), R2 deletions (-2) and R3s (0), where that count is not
    negative, and its R1 (1) and R2 (2) insertions, where they fit.  Each
    family goes to its own count, so a list holds each parent at most
    once and its entries in expansion order, and the children are keyed
    in ``enumerate_moves`` order.  Keying an entry detects or generates the
    family's moves then, so a family whose count the search never keys is
    never detected, and a parent's rows are made only for a family that
    has a move.  A move is built only for a child whose code is new.
    Diagrams are built only for the states the search pops, each by
    applying its move to its parent's, and at most one for the trace:
    every state on its path but the last was popped.
    """
    if limits.max_states < 1:
        raise ValueError("max_states must be positive")
    max_chords = limits.max_chords if limits.max_chords is not None else d.n + 2
    if limits.allow_insertions and max_chords < d.n:
        raise ValueError("max_chords must be at least the input's chord count")
    if d.n == 0:
        return SimplifyResult(final=d, trace=(), states_explored=1, limit_hit=False)

    # the move families by the chords they add, in enumerate_moves order
    kinds = {-1: R1Delete, -2: R2Delete, 0: R3, 1: R1Insert, 2: R2Insert}
    start_key = _canonical_code(*_rows(d.endpoints, d.signs))
    info = {start_key: (None, None)}  # canonical code -> (parent's code, move)
    concrete = {start_key: d}  # canonical code -> diagram, for popped states
    pending = {}  # chord count -> [(parent's code, chords its family adds)]
    frontier = [(d.n, start_key)]
    best = (d.n, start_key)
    explored = 0
    limit_hit = False

    while True:
        # key every pending count that could hold the next state to pop
        while pending:
            count = min(pending)
            if frontier and count > frontier[0][0]:
                break
            for parent, change in pending.pop(count):
                state = concrete[parent]
                if change > 0:
                    rows = _rows(state.endpoints, state.signs)
                    children = _spliced_rows(rows, _fresh_labels(state, 2), change)
                else:
                    children = _detected_rows(state, change)
                for fields, chords, bases in children:
                    child_key = _canonical_code(chords, bases)
                    if child_key in info:
                        continue
                    info[child_key] = (parent, kinds[change](*fields))
                    entry = (count, child_key)
                    if entry < best:
                        best = entry
                    heapq.heappush(frontier, entry)
        if best[0] == 0:
            break  # an empty diagram was found; nothing can beat it
        if not frontier:
            break
        if explored >= limits.max_states:
            limit_hit = True
            break
        count, key = heapq.heappop(frontier)
        parent, move = info[key]
        if parent is not None:
            concrete[key] = apply_move(concrete[parent], move)
        explored += 1
        top = max_chords if limits.allow_insertions else count  # the most chords a child has
        for change in kinds:  # one entry per family: its moves are found when keyed
            if 0 <= count + change <= top:
                pending.setdefault(count + change, []).append((key, change))

    # the trace, read back from the final state to the start
    key = best[1]
    parent, move = info[key]
    final = concrete[key] if key in concrete else apply_move(concrete[parent], move)
    steps = []
    while parent is not None:
        steps.append((move, canonical(concrete.get(key, final))))
        key = parent
        parent, move = info[key]
    trace = tuple(reversed(steps))
    return SimplifyResult(final=final, trace=trace, states_explored=explored, limit_hit=limit_hit)


def verify_trace(start: GaussDiagram, trace) -> TraceCheck:
    """Replay a trace; ok iff every move applies and every recorded
    canonical form matches.  Truthiness is the verdict."""
    d = start
    for i, (move, recorded) in enumerate(trace):
        try:
            d = apply_move(d, move)
        except (MoveNotApplicable, ValueError):
            return TraceCheck(False, i)
        if canonical(d) != recorded:
            return TraceCheck(False, i)
    return TraceCheck(True)


def format_trace(trace) -> str:
    """One line per step: move spec, ' => ', canonical code after the move."""
    return "\n".join(
        f"{format_move(move)} => {serialize_gauss_code(canon)}"
        for move, canon in trace
    )
