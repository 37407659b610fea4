"""Reduce diagrams toward the unknot with R1/R2 deletions and R3 rewrites.

reduce_greedy applies the first available deletion until stuck, which is
enough for diagrams whose simplification never needs R3.  simplify runs a
best-first search over everything reachable by deletions and R3 (plus
insertions under a chord cap when enabled), deduplicating states by their
canonical code string, and returns a minimum-chord-count state with a
replayable trace.  The search stores each state as its parent's code and
the move from it.  It expands a state one move family at a time, as A*
with partial expansion does: one priority queue holds both the states and
the families still to key, a family being a parent's code with the
chords it adds: -1 for its R1 deletions, -2 for its R2 deletions, 0 for
its R3s, and 1 and 2 for its R1 and R2 insertions where they fit under
the cap.  The families, their order and the class each one's moves are
built with come from the table of move kinds, ``moves._KINDS``.  A
family's moves are found only when it pops, by one walk,
``moves._family_rows``: it detects a deletion or R3 family or generates
an insertion family and yields the children's rows, made from the
parent's ``diagram._rows``, and a move is built only for a child whose
code is new.  A state its parent's insertion built never keys the
deletion of the chords that insertion added: that child is the parent,
already keyed, so the walk drops it before making its rows.  Diagrams are
built only for the states the search expands, and each is held only by
the queue entries that need it: its own families and its children's
states.  The final diagram is the best state's one move applied to the
diagram its entry carries, and the trace is the final state's moves and
codes, read back to the start; each step's canonical form is spelled from
the code the search stored for it, not scanned again.
"""

from __future__ import annotations

import heapq

from .codec import _canonical_code, _read_canonical_code, serialize_gauss_code
from .diagram import GaussDiagram, _Record, _rows, _set, canonical, label_key
from .moves import (
    MoveNotApplicable,
    R1Delete,
    R2Delete,
    _KINDS,
    _family_rows,
    apply_move,
    # not called here; imported so that perfbench/tracing.py can patch it
    enumerate_moves,  # noqa: F401
    format_move,
    r1_removable_chords,
    r2_removable_pairs,
)


class SearchLimits(_Record):
    """Limits for simplify: max_states bounds the states expanded,
    allow_insertions turns R1/R2 insertions on, and max_chords caps the
    chord count they may grow a state to (None: input chord count + 2).
    Construction checks nothing; simplify raises ValueError unless
    max_states is an int of at least 1, max_chords None or an int, and
    allow_insertions a bool."""

    __slots__ = ("max_states", "allow_insertions", "max_chords")

    def __init__(self, max_states: int = 100000, allow_insertions: bool = False,
                 max_chords: int | None = None):
        _set(self, "max_states", max_states)
        _set(self, "allow_insertions", allow_insertions)
        _set(self, "max_chords", max_chords)


class SimplifyResult(_Record):
    """final diagram, trace of (move, canonical form after the move),
    states explored, and whether the state budget truncated the search.
    The trace is the search's stored moves from the input, and the final
    diagram is where they lead, built by the same chain of moves; each
    trace entry's canonical form is read from the code the search stored
    for the state after its move."""

    __slots__ = ("final", "trace", "states_explored", "limit_hit")

    def __init__(self, final: GaussDiagram, trace: tuple, states_explored: int, limit_hit: bool):
        _set(self, "final", final)
        _set(self, "trace", trace)
        _set(self, "states_explored", states_explored)
        _set(self, "limit_hit", limit_hit)


class TraceCheck(_Record):
    __slots__ = ("ok", "failed_step")

    def __init__(self, ok: bool, failed_step: int | None = None):
        _set(self, "ok", ok)
        _set(self, "failed_step", failed_step)

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
    spelled straight from the least-rotation encoding of a state's rows:
    the input's own for the start, and for a child its parent's rows as
    ``moves._family_rows`` edits them.  States are expanded in (chord
    count, canonical code) order, which makes the result deterministic
    for given limits.
    Ties among final states break toward the lexicographically least
    canonical code.

    An expanded state's children come from its deletions and R3 rewrites,
    then from its R1 insertions when one more chord fits under max_chords
    and its R2 insertions when two more do; insertions that cannot fit are
    never generated.

    Each state stores only its parent's code and the move from it.  An
    expansion does not key its children: it pushes one family entry per
    move family onto the queue the states wait in, at the count its
    children have: its R1 deletions (-1), R2 deletions (-2) and R3s (0),
    where that count is not negative, and its R1 (1) and R2 (2)
    insertions, where they fit.  A state's entry is (count, 1, code, the
    diagram its move applies to), a family's (count, 0, its parent's
    expansion number, parent's code, chords it adds, parent's diagram, the
    chords the parent's own insertion added, in ``label_key`` order, or
    ()).  The walk drops the deletion of those chords: its child is the
    state the parent was built from, whose code is keyed.
    A child can share a code only with states of its own chord count, and
    the tag 0 pops every family of a count before any state of that count
    or higher: a count's children are all keyed (and deduplicated, the
    first generated child of a code winning) before one of them can be
    expanded.  One expansion pushes at most one family per
    count, so the expansion number orders a count's families uniquely, in
    expansion order, and the children are keyed in ``enumerate_moves``
    order.  A family is walked through ``moves._family_rows`` only when it
    pops, so a family whose count the search never reaches is never
    detected, and a parent's rows are made only for a family that has a
    move.  A move is built only for a child whose code is new.  An empty
    child ends the search once its family is keyed; a popped state ends it
    when the budget is spent.  Diagrams are built only for the states the
    search expands, each by applying its move to its parent's diagram,
    which the state's entry carries; a family's entry carries its parent's.
    No other store holds a diagram, so one is released once the last entry
    holding it pops.  The final diagram is the best state's move applied
    to the diagram its entry carries (the start needs none): the same
    chain of moves built it.  The trace is read back as the final state's
    moves, each beside the code it leads to; each step's canonical form is
    read from its code (``codec._read_canonical_code``), not scanned again.
    """
    if type(limits.max_states) is not int:
        raise ValueError(f"max_states must be positive and an int, got {limits.max_states!r}")
    if limits.max_states < 1:
        raise ValueError("max_states must be positive")
    if limits.max_chords is not None and type(limits.max_chords) is not int:
        raise ValueError(f"max_chords must be None or an int, got {limits.max_chords!r}")
    if type(limits.allow_insertions) is not bool:
        raise ValueError(f"allow_insertions must be True or False, got {limits.allow_insertions!r}")
    max_chords = limits.max_chords if limits.max_chords is not None else d.n + 2
    if limits.allow_insertions and max_chords < d.n:
        raise ValueError("max_chords must be at least the input's chord count")
    if d.n == 0:
        return SimplifyResult(final=d, trace=(), states_explored=1, limit_hit=False)

    # the move families by the chords they add, in enumerate_moves order
    kinds = {kind.change: kind.move for kind in _KINDS}
    start_key = _canonical_code(*_rows(d.endpoints, d.signs))
    info = {start_key: (None, None)}  # canonical code -> (parent's code, move)
    # a state is (chord count, 1, code, the diagram its move applies to: its
    # parent's, the start's being itself); a family is (its children's chord
    # count, 0, its parent's expansion number, parent's code, chords it adds,
    # parent's diagram, the labels whose deletion undoes the parent's own
    # insertion).  No two entries agree in their first three fields,
    # so the heap never compares diagrams (they have no order), and a
    # diagram is freed once the last entry holding it pops
    best = (d.n, 1, start_key, d)
    queue = [best]
    explored = 0
    limit_hit = False

    while queue and best[0]:  # an empty diagram ends the search: nothing beats it
        entry = heapq.heappop(queue)
        if entry[1]:  # a state: the budget stops the search, or it is expanded
            if explored >= limits.max_states:
                limit_hit = True
                break
            count, _, key, state = entry
            move = info[key][1]
            undo = ()  # the chords an insertion added: deleting them gives back the parent
            if move is not None:
                source, state = state, apply_move(state, move)
                if len(state.signs) > len(source.signs):
                    undo = tuple(sorted(state.signs.keys() - source.signs.keys(), key=label_key))
            explored += 1
            top = max_chords if limits.allow_insertions else count  # the most chords a child has
            for change in kinds:  # one entry per family: its moves are found when it pops
                if 0 <= count + change <= top:
                    heapq.heappush(queue, (count + change, 0, explored, key, change, state, undo))
            continue
        count, _, _, parent, change, state, undo = entry  # a family: key its children
        for fields, chords, bases in _family_rows(state, change, undo):
            child_key = _canonical_code(chords, bases)
            if child_key in info:
                continue
            info[child_key] = (parent, kinds[change](*fields))
            entry = (count, 1, child_key, state)
            if entry < best:
                best = entry
            heapq.heappush(queue, entry)

    # the final diagram: the best state's move applied to the diagram its
    # entry carries, which the same chain of moves built
    _, _, key, final = best
    parent, move = info[key]
    if move is not None:
        final = apply_move(final, move)
    # the trace: the final state's moves, each beside the code it leads to,
    # read back to the start
    steps = []
    while parent is not None:
        steps.append((move, _read_canonical_code(key)))
        key, (parent, move) = parent, info[parent]
    steps.reverse()
    return SimplifyResult(final=final, trace=tuple(steps), states_explored=explored,
                          limit_hit=limit_hit)


def verify_trace(start: GaussDiagram, trace) -> TraceCheck:
    """Replay a trace; ok iff every entry is a (move, canonical form)
    pair, every move applies and every recorded canonical form matches.
    Truthiness is the verdict."""
    d = start
    for i, step in enumerate(trace):
        try:
            move, recorded = step
        except (TypeError, ValueError):  # not a pair
            return TraceCheck(False, i)
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
