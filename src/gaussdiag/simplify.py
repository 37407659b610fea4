"""Reduce diagrams toward the unknot with R1/R2 deletions and R3 rewrites.

reduce_greedy applies the first available deletion until stuck, which is
enough for diagrams whose simplification never needs R3.  simplify runs a
best-first search over everything reachable by deletions and R3 (plus
insertions under a chord cap when enabled), deduplicating states by their
canonical code string, and returns a minimum-chord-count state with a
replayable trace.

The search is A* with partial expansion: one priority queue holds both
the states and the move families still to key, and a family's moves are
found only when it pops, by one walk, ``moves._family_rows``, which yields
each child's move fields and rows with no move built.  The families,
their order and the class each one's moves are built with come from the
table of move kinds, ``moves._KINDS``.  A state is stored as its parent's
code, the chords its move's family adds and the move's fields.  A diagram
is built only for the states the search expands, by the move's unchecked
edit (``moves._edit``) of the parent diagram its walk found the move on,
and for the final state; a move record only for the final diagram and
the trace, which go through ``apply_move``.  ``simplify`` gives the
order, the families and children a state skips and why the result stays
the same.  Once more states wait at a chord count than the budget has
expansions left, the first waiting code past that many is a bar: a child
of that count whose code is above it is never expanded, so it is not
stored, and its key scan stops as soon as it is sure to land above it.
"""

from __future__ import annotations

import heapq
from collections import Counter
# the bar heaps' own: perfbench/tracing.py and the tests replace the queue's
# heapq with one that holds heappush and heappop only, and count its pushes
from heapq import heapify, heappop as _bar_pop, heappush as _bar_push
from itertools import islice

from .codec import _canonical_code, _code_entries, _read_canonical_code, serialize_gauss_code
from .diagram import GaussDiagram, _Record, _rows, canonical
from .moves import (
    MoveNotApplicable,
    R1Delete,
    R2Delete,
    _KINDS,
    _edit,
    _family_rows,
    _kink_r3_sites,
    apply_move,
    # not called here; imported so that perfbench/tracing.py can patch it
    enumerate_moves,  # noqa: F401
    format_move,
    r1_removable_chords,
    r2_removable_pairs,
)


def _rank(code: str) -> int:
    """A code read as one big-endian number, negated: among codes of one
    length, the greater the code, the less its rank."""
    return -int.from_bytes(code.encode(), "big")


def _unrank(rank: int) -> str:
    """The code of this ``_rank``: a code starts with O, so its first byte
    is not 0."""
    return (-rank).to_bytes((rank.bit_length() + 7) // 8, "big").decode()


class _Bar:
    """The states waiting at one chord count whose codes are at or below
    its bar, for ``simplify``: a heap of their ranks, whose top is the
    bar's.  A popped state is deleted lazily but exactly, its rank kept in
    ``gone`` until it reaches the top or the heap is compacted, once dead
    entries outnumber live ones."""

    __slots__ = ("heap", "gone", "live", "top", "entries")

    def __init__(self, codes):
        self.heap = list(map(_rank, codes))
        heapify(self.heap)
        self.gone, self.live, self.top = set(), len(self.heap), None

    def add(self, codes):
        """States stored below the bar start waiting."""
        for code in codes:
            _bar_push(self.heap, _rank(code))
            self.live += 1

    def pop(self, code):
        """A state at or below the bar pops."""
        self.gone.add(_rank(code))
        self.live -= 1
        if len(self.gone) > self.live:
            self.heap = [rank for rank in self.heap if rank not in self.gone]
            heapify(self.heap)
            self.gone.clear()

    def bar(self, room: int) -> tuple:
        """The entries of the (room + 1)-th least waiting code, once the
        codes above it leave the heap."""
        heap, gone = self.heap, self.gone
        while self.live > room + 1 or heap[0] in gone:
            rank = _bar_pop(heap)
            if rank in gone:
                gone.remove(rank)
            else:
                self.live -= 1
        if heap[0] != self.top:
            self.top = heap[0]
            self.entries = _code_entries(_unrank(self.top))
        return self.entries


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
        super().__init__(max_states, allow_insertions, max_chords)


class SimplifyResult(_Record):
    """final diagram, trace of (move, canonical form after the move),
    states explored, and whether the state budget truncated the search.
    The trace is the search's stored moves from the input, and the final
    diagram is where they lead, built by the same chain of moves; each
    trace entry's canonical form is read from the code the search stored
    for the state after its move."""

    __slots__ = ("final", "trace", "states_explored", "limit_hit")

    def __init__(self, final: GaussDiagram, trace: tuple, states_explored: int, limit_hit: bool):
        super().__init__(final, trace, states_explored, limit_hit)


class TraceCheck(_Record):
    __slots__ = ("ok", "failed_step")

    def __init__(self, ok: bool, failed_step: int | None = None):
        super().__init__(ok, failed_step)

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

    ``info`` maps each state's code to (its parent's code, the chords its
    move's family adds, the move's fields), the start's to (None, None,
    None).  To expand the state, ``moves._edit`` makes the move these name
    on the diagram its entry carries, with no check: that is the diagram
    the parent's walk found the move on, so the move applies.  A move
    record is built from them, by the class its row of ``moves._KINDS``
    names, only for the final state's move and for each trace step.  An
    expansion does not key its children: it pushes one family entry per
    move family onto the queue the states wait in, at the count its
    children have: its R1 deletions (-1), R2 deletions (-2) and R3s (0),
    where that count is not negative, and its R1 (1) and R2 (2) insertions,
    where they fit.  A state's entry is (count, 1, code, the diagram its
    move applies to, codes), a family's (count, 0, its parent's expansion
    number, parent's code, chords it adds, parent's diagram, ``made``,
    codes), where codes is None but for the R1-made states and their R1
    families (see below).
    ``made`` names the chords the parent's own insertion added, or is ().
    The insertion took them as the ``moves._fresh_labels`` of the diagram
    it applied to: the least unused positive integers, ascending, which is
    the ``label_key`` order a walk names a pair in.  The expansion reads
    them off the end of the sign map the edit gave the state, which adds
    them last (see ``moves._edit``).

    Four rules leave out children that are keyed already.  Each needs only
    that a child is keyed when its family pops, and a walk that leaves out
    a child keyed already keys nothing new: a keyed code is never stored
    again.  So the rules prove each other, by induction over the pops.
    The R2 deletion walk of an R2-made state drops the deletion of
    ``made``: its child is the state the parent was built from, whose
    code is keyed.
    A state S made by an R1 insertion pushes no deletion family: every
    child of its R1 and R2 deletions is keyed before S is expanded.  By
    induction over the expansion order, say S is Q with the kink k
    inserted.  A deletion D of other chords is also one of Q, since an
    insertion separates endpoints and never joins them, and D(S) is D(Q)
    with k at one gap.  D(Q) has fewer chords than S and is keyed (by Q's
    deletion families, or by induction when Q is R1-made), so it was
    expanded before S, and its R1 insertion family, which holds k at that
    gap, popped before S.  Deleting k gives Q, and an R2 deletion of k and
    a gives Q - a, a being an R1 chord of Q.  The rule stops at R1: in an
    R2-made state a deletion can empty one side between the two inserted
    blocks, leaving heads before tails in one gap, an order no R2
    insertion makes.
    S's R3 family needs at most one child, the R3 of the one triple that
    can hold k: the kink and the chords next to its two endpoints
    (``sites._kink_triple``).  A qualifying tiling cannot pair k's
    endpoints with each other (a mixed pair joins distinct chords, a heads
    or tails pair equal roles), so each pairs with its outer neighbour.
    The expansion reads that triple on the diagram its edit just built,
    and pushes S's R3 family only when the triple is movable: an empty
    family keys nothing, and the entries pushed keep their order keys.
    The walk reads that triple alone (``moves._kink_r3_sites``).
    It needs no other: a triple T without k whose tiling qualifies in S
    qualifies in Q, as k's two adjacent endpoints lie in none of its arcs,
    and a sign, a parity or a direction reads only T's six endpoints.  So
    T is movable in Q by the same tiling, unless both tilings of T are
    movable in Q, and R3_T(S) is R3_T(Q) with k at the same gap: an R3
    swaps endpoints within its arcs only.  R3_T(Q) has fewer chords than S
    and is keyed once Q's R3 family has popped, before S pops, so it was
    expanded before S, and its R1 insertion family, which holds k at that
    gap, popped before S: it has S's count, so it fits under max_chords,
    and the family tag.  So every R3 child of a triple without k is keyed
    when S is expanded.  Both tilings of T are movable only when Q is
    one of the twelve three-chord diagrams with two movable pairings.
    Each of them has an R2 deletion to a one-chord diagram, keyed (by Q's
    R2 deletion family, or before Q when Q is R1-made) and expanded before
    any four-chord state.  It is not R1-made, since the empty diagram is
    never expanded, so its R1 deletion family keys the empty diagram,
    which ends the search: such an S is never expanded.
    S's R1 walk skips each insertion that a sibling's walk keys first.
    Say k went in at Q's gap g, and i is an R1 insertion at S's gap h,
    other than g + 1, the gap inside k.  If h <= g, S + i has the same
    endpoints, up to labels, as T + k, where T is Q + i at Q's gap h and k
    goes in at T's gap g + 2.  If h >= g + 2, T is Q + i at Q's gap h - 2,
    and k goes in at T's gap g.  Q's R1 walk keyed T and S, and it keeps
    its children's codes in one list, in walk order, a child it left out
    holding a code above every code, so that it makes no sibling skip.
    Each state that walk stored carries the list, and so does that state's
    R1 family, so the list is freed once they have all popped.  When T's
    code is less than S's, at the same count, T was keyed before S could
    pop, so T was expanded first.  Its R1 family, at S's count plus one,
    which fits, and at a lower expansion number, popped before S's, and
    T + k is keyed.
    A fifth rule leaves out children that can never count.  When a family
    of c chords pops, no entry of fewer chords is left in the queue.  Say
    room is max_states less the states expanded, and more than room
    states wait at c chords: then the (room + 1)-th least of their codes
    is a bar.  A child of c chords whose code is above it is never
    expanded: the room + 1 states at or below the bar pop before it, and
    each is expanded or ends the search, so the last of them ends it with
    ``limit_hit``.  It is never the best, which is at or below every code
    stored, the bar's included.  And it changes no sibling skip: every
    state of c chords expanded later has a code at or below the bar, so a
    ``"~"`` in the child's walk slot gives the same flags as its code.
    So the walk stores and pushes nothing for such a child, and puts
    ``"~"`` in its slot.  The bar holds as the search goes on: the states
    waiting at or below it, less room, never fall (a state of c chords
    that pops takes one from each, an expansion at another count one from
    room, a child stored below the bar adds one), so a bar read once per
    walk is enough, and a count where one applies never drains before the
    search ends.  A bar only falls, so a code above one is above every
    later bar of its count and is never stored; and since no count below
    an expanded state's ever had a bar, the four rules above still hold,
    a child left out by any of them being keyed or above a bar.  The bar
    applies only below ten chords: there chord numbers have one digit, so
    a code sorts like the ``_least_rotations`` entries the key scan
    compares, and ``_canonical_code`` given the bar's entries returns None
    for a child above it, most often at the scan's first entries.  No
    more states wait than are stored and not expanded, so no bar applies
    until more states are stored than max_states.  From the first family
    pop below ten chords where that holds, the search keeps the number of
    states waiting at each count, counted once off the queue and then
    updated once per walk and per popped state; from the first family pop
    where a bar applies at a count, a ``_Bar`` keeps that count's codes
    waiting at or below it.
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
    move.  A child whose code is new is stored as its walk's fields.  An
    empty child ends the search once its family is keyed; a popped state
    ends it when the budget is spent.  Diagrams are built only for the
    states the search expands, each by its move's unchecked edit of its
    parent's diagram, which the state's entry carries; a family's entry
    carries its parent's.  That is the diagram the walk found the move on,
    with the fields it yielded, so no check can fail, and the edit makes
    the diagram ``apply_move`` would.
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
    # canonical code -> (parent's code, chords its family adds, the move's
    # fields): a state's move is built from these only when it is needed
    info = {start_key: (None, None, None)}
    # a state is (chord count, 1, code, the diagram its move applies to: its
    # parent's, the start's being itself, and for a state an R1 insertion
    # made, the codes of its parent's R1 walk, else None); a family is (its
    # children's chord count, 0, its parent's expansion number, parent's
    # code, chords it adds, parent's diagram, the chords the parent's own
    # insertion added, and for an R1-made parent's R1 family, the codes its
    # state carried, else None).  No two entries agree in their first three
    # fields, so the heap never compares diagrams (they have no order), and
    # a diagram or codes list is freed once the last entry holding it pops
    best = (d.n, 1, start_key, d, None)
    queue = [best]
    explored = 0
    limit_hit = False
    waiting = None  # chord count -> the states waiting at it, once a bar can apply
    bars = {}  # chord count -> its _Bar, once a bar applies there

    while queue and best[0]:  # an empty diagram ends the search: nothing beats it
        entry = heapq.heappop(queue)
        if entry[1]:  # a state: the budget stops the search, or it is expanded
            if explored >= limits.max_states:
                limit_hit = True
                break
            count, _, key, state, codes = entry
            if waiting is not None:
                waiting[count] -= 1
                if count in bars:  # its code is at or below the bar
                    bars[count].pop(key)
            parent, added, fields = info[key]  # its edit, made only now
            made = ()  # the chords its own insertion added
            if parent is not None:  # the walk found the move on this diagram: no check
                signs, state = state.signs, _edit(state, added, fields)
                made = tuple(state.signs)[len(signs):]  # _edit signs them last
            explored += 1
            top = max_chords if limits.allow_insertions else count  # the most chords a child has
            least = count if added == 1 else 0  # an R1-made state's deletions are all keyed
            if added == 1 and not _kink_r3_sites(state, made[0]):  # its R3s are keyed too
                least += 1
            for change in kinds:  # one entry per family: its moves are found when it pops
                if least <= count + change <= top:
                    heapq.heappush(queue, (count + change, 0, explored, key, change, state, made,
                                           codes if change == 1 else None))
            continue
        count, _, _, parent, change, state, made, codes = entry  # a family: key its children
        skip = ()
        if codes is not None:  # an R1-made state's R1 insertions: skip its siblings' children
            flags = [code < parent for code in codes]  # parent: this state's own code
            gap = info[parent][2][0]
            # gap h of this state is its parent's gap h up to gap, none
            # inside the kink (gap + 1), and its parent's gap h - 2 after
            skip = flags[:4 * gap + 4] + [False] * 4 + flags[4 * gap:]
        bar = None  # the entries of the code above which a child is left out
        # below 10 a code sorts like its entries; no more states wait than
        # are stored and not expanded
        if count < 10 and len(info) > limits.max_states:
            if waiting is None:
                waiting = Counter(e[0] for e in queue if e[1])
            room = limits.max_states - explored
            if waiting[count] > room:
                if count not in bars:
                    bars[count] = _Bar(e[2] for e in queue if e[:2] == (count, 1))
                bar = bars[count].bar(room)
        if waiting is not None:
            stored = len(info)
        codes = []  # the walk's child codes, in walk order: an R1 walk's children keep them
        for fields, chords, bases in _family_rows(state, change, made, skip):
            child_key = _canonical_code(chords, bases, bar)
            if child_key is None:  # above the bar: never expanded, never the best
                codes.append("~")
                continue
            codes.append(child_key)
            if child_key in info:
                continue
            info[child_key] = (parent, change, fields)
            entry = (count, 1, child_key, state, codes if change == 1 else None)
            if entry < best:
                best = entry
            heapq.heappush(queue, entry)
        if waiting is not None:
            waiting[count] += len(info) - stored
            if bar is not None:  # the states this walk stored, each below the bar
                bars[count].add(islice(reversed(info), len(info) - stored))
        # a child left out holds "~", which sorts above every code (a run of O
        # and U tokens), so it makes no sibling skip
        if skip:
            keyed = iter(codes)
            codes[:] = ["~" if skipped else next(keyed) for skipped in skip]

    # the final diagram: the best state's move applied to the diagram its
    # entry carries, which the same chain of moves built
    _, _, key, final, _ = best
    parent, added, fields = info[key]
    if parent is not None:
        final = apply_move(final, kinds[added](*fields))
    # the trace: the final state's moves, each beside the code it leads to,
    # read back to the start
    steps = []
    while parent is not None:
        steps.append((kinds[added](*fields), _read_canonical_code(key)))
        key, (parent, added, fields) = parent, info[parent]
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
