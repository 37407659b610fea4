"""Reduce diagrams toward the unknot with R1/R2 deletions and R3 rewrites.

reduce_greedy applies the first available deletion until stuck, which is
enough for diagrams whose simplification never needs R3.  simplify runs a
best-first search over everything reachable by deletions and R3 (plus
insertions under a chord cap when enabled), deduplicating states by their
canonical code string, and returns a minimum-chord-count state with a
replayable trace.  Insertion moves are built only where they fit under the
cap.  The search stores each state as its parent's code and the move from
it, keys children from ``moves._rewrite``'s parts one chord count at a
time, and builds diagrams only for the states it expands and the trace it
replays.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

from .codec import _canonical_code, serialize_gauss_code
from .diagram import GaussDiagram, canonical
from .moves import (
    _CHORD_CHANGE,
    MoveNotApplicable,
    R1Delete,
    R2Delete,
    _insertion_moves,
    _rewrite,
    apply_move,
    enumerate_moves,
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
    The trace is the search's stored moves replayed from the input: the
    final diagram is where that replay ends, and each trace entry's
    canonical form is built from the replayed state after its move."""

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
    spelled straight from the least-rotation encoding of a child's
    ``_rewrite`` parts.  The frontier is ordered by (chord count, canonical
    code), which fixes the expansion order and makes the result
    deterministic for given limits.  Ties among final states break toward
    the lexicographically least canonical code.

    An expanded state's children come from its deletions and R3 rewrites,
    then from its R1 insertions when one more chord fits under max_chords
    and its R2 insertions when two more do; insertions that cannot fit are
    never built.

    Each state stores only its parent's code and the move from it.  A
    child can share a code only with states of its own chord count, so
    children wait, in generation order, in a pending list per chord count:
    a count's list is keyed (and deduplicated, the first generated child
    of a code winning) before the frontier can pop a state of that count
    or higher.  A generated empty child is keyed at once and ends the
    search.  Diagrams are built only for the states the search pops, each
    by applying its move to its parent's, and for the trace, which
    replays the stored moves from d.
    """
    if limits.max_states < 1:
        raise ValueError("max_states must be positive")
    max_chords = limits.max_chords if limits.max_chords is not None else d.n + 2
    if limits.allow_insertions and max_chords < d.n:
        raise ValueError("max_chords must be at least the input's chord count")
    if d.n == 0:
        return SimplifyResult(final=d, trace=(), states_explored=1, limit_hit=False)

    start_key = _canonical_code(d.endpoints, d.signs)
    info = {start_key: (None, None)}  # canonical code -> (parent's code, move)
    concrete = {start_key: d}  # canonical code -> diagram, for popped states
    pending = {}  # chord count -> [(parent's code, move)], not yet keyed
    frontier = [(d.n, start_key)]
    best = (d.n, start_key)
    explored = 0
    limit_hit = False

    while True:
        # key every pending count that could hold the next state to pop
        while pending and (not frontier or min(pending) <= frontier[0][0]):
            count = min(pending)
            for parent, move in pending.pop(count):
                child_key = _canonical_code(*_rewrite(concrete[parent], move))
                if child_key in info:
                    continue
                info[child_key] = (parent, move)
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
        state = concrete[key]
        explored += 1
        room = max_chords - count if limits.allow_insertions else 0
        # deletions and R3, then only the insertions that fit in room
        for move in itertools.chain(enumerate_moves(state), _insertion_moves(state, room)):
            pending.setdefault(count + _CHORD_CHANGE[type(move)], []).append((key, move))

    path = []
    key = best[1]
    while info[key][0] is not None:
        key, move = info[key]
        path.append(move)
    final = d
    steps = []
    for move in reversed(path):
        final = apply_move(final, move)
        steps.append((move, canonical(final)))
    return SimplifyResult(
        final=final,
        trace=tuple(steps),
        states_explored=explored,
        limit_hit=limit_hit,
    )


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
