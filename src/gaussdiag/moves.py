"""Reidemeister moves R1, R2, R3 on Gauss diagrams.

R1 deletes/inserts a chord whose head and tail are adjacent.  R2
deletes/inserts a pair of opposite-sign chords with adjacent heads and
adjacent tails.  R3 rearranges a *matched* triple: three chords whose six
endpoints tile into three pairs, each pair adjacent in the full diagram,
classified as one heads-pair, one tails-pair, and one mixed pair whose
head and tail belong to distinct chords.

For a matched triple each chord gets three numbers: its crossing sign;
its parity (+1 iff it crosses an even number of the other two chords);
and its direction (+1 iff it points counterclockwise around the three
arcs, i.e. its head sits on the arc cyclically after its tail's arc).
The 3-sign is the product.  A matched triple is 3-movable exactly when
all three 3-signs agree; applying the move swaps the two chord ends on
each of the three arcs.

Six cyclically ordered endpoints admit at most two tilings into three
consecutive pairs.  Both are admissible only when the six positions fill
the whole circle (a standalone 3-chord diagram); a triple is matched when
EITHER tiling qualifies, and movable when either qualifying tiling has
equal 3-signs.  Analysis results report the witness tiling: the first
movable one (preferring the pairing that starts at the least position),
else the first qualifying one.  This keeps every verdict
rotation-invariant.  ``_witness`` is that rule, written once:
``analyze_triple`` reports the tiling it picks and the R3 rewrite swaps
it.

One integer kernel, ``_qualifying_tilings``, computes all of this from the
triple's six endpoint positions: the tilings from their sorted order, each
chord's parity from how its positions interleave with the other two
chords' and its direction from the arcs holding its ends.  R3 detection,
``_rewrite`` (and through it ``apply_move``) and the census call it
directly; ``analyze_triple`` is the public report, which validates its
labels and packages the witness tiling as a ``TripleAnalysis``.

Every matched triple contains two chords a, b whose heads are adjacent,
and its third chord has its tail next to one of a's and b's tails and its
head next to the other.  So one candidate generator, ``_r3_candidates``,
yields the at most four triples each head adjacency gives, which are
exactly the matched triples: O(n) triples, not all C(n, 3).  Both
``r3_movable_triples`` and the census analyse only those, and
``r3_movable_triples`` sorts only the triples it keeps.

Every precondition is an adjacency, read one way.  ``_adjacent_pairs`` is
the one walk over cyclically adjacent endpoint pairs: R1 detection keeps
the pairs that join one chord, R2 detection and ``_r3_candidates`` the
pairs of heads.  ``diagram._adjacent`` is the one test on two positions
read from the diagram's position map; ``_r2_blocker`` and the R1 rewrite
call it.  The validating accessors (``adjacent``, ``sign_of`` and the
position getters) are for outside callers; here only ``analyze_triple``,
the public report, calls them.  The chords a move names are outside
input, so ``_check_chords`` guards them before any lookup.

``_rewrite`` checks each move's preconditions, written once, then makes
the move as one positional edit, which ``_edited`` applies by slicing: a
deletion cuts its chords' positions, an insertion splices its
``_insertion_blocks`` in at its gaps after ``_check_insertion`` (gaps,
then sign, then flag), and R3 swaps the arcs of the ``_witness``.
``apply_move`` edits the endpoint tuple and builds the result without
revalidation; the row path edits a parent's ``diagram._rows`` instead.

The search keys children from two walks over one move family of a
parent, each yielding the moves' fields with the child's rows, the
parent's rows edited as ``_rewrite`` edits them but with no check and no
move built.  ``_detected_rows`` walks the R1 deletions, the R2 deletions or
the R3s that detection finds, cutting their chords' positions or swapping
their ``_witness``'s arcs.  ``_spliced_rows`` walks the insertions that add one
or two chords.  Insertions are generated from one source,
``_insertion_fields``: it gives ``_insertion_moves`` (and so
``enumerate_moves``) its moves, and ``_spliced_rows`` the fields it
splices with the same ``_insertion_blocks``, unchecked, since every
insertion it generates is valid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Union

from .diagram import (
    EMPTY,
    HEAD,
    TAIL,
    Endpoint,
    GaussDiagram,
    _adjacent,
    _arrangements,
    _interleaved,
    _least_rotations,
    _rows,
    _trusted,
    _valid_sign,
    label_key,
)
# not called here; imported so that perfbench/tracing.py can patch them
from .diagram import enumerate_diagrams, make_diagram  # noqa: F401


class MoveNotApplicable(Exception):
    """The move's precondition fails on the target diagram."""


def _sorted_labels(move) -> tuple:
    """The labels an R2Delete or an R3 names, in ``label_key`` order;
    ValueError for a bare string or a label that is not a string."""
    chords = move.chords
    try:
        if not isinstance(chords, str):
            return tuple(sorted(chords, key=label_key))
    except (AttributeError, TypeError):
        pass
    raise ValueError(f"{type(move).__name__} needs a tuple of label strings, got {chords!r}")


@dataclass(frozen=True)
class R1Delete:
    chord: str


@dataclass(frozen=True)
class R1Insert:
    gap: int
    sign: int
    head_first: bool  # True: head immediately counterclockwise-before tail


@dataclass(frozen=True)
class R2Delete:
    chords: tuple

    def __post_init__(self):
        pair = _sorted_labels(self)
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ValueError("R2Delete needs two distinct chords")
        object.__setattr__(self, "chords", pair)


@dataclass(frozen=True)
class R2Insert:
    head_gap: int
    tail_gap: int
    first_sign: int
    crossed: bool


@dataclass(frozen=True)
class R3:
    chords: tuple

    def __post_init__(self):
        triple = _sorted_labels(self)
        if len(triple) != 3 or len(set(triple)) != 3:
            raise ValueError("R3 needs three distinct chords")
        object.__setattr__(self, "chords", triple)


Move = Union[R1Delete, R1Insert, R2Delete, R2Insert, R3]


@dataclass(frozen=True)
class ChordNumbers:
    """Per-chord analysis record for a matched triple."""

    sign: int
    parity: int
    direction: int
    three_sign: int


@dataclass(frozen=True)
class TripleAnalysis:
    """Verdict for one chord triple.

    When matched, the three arcs are reported as (start, end) position
    pairs with end == start+1 (mod 2n), and ``chords`` maps each label to
    its ChordNumbers.  movable == matched and all three 3-signs equal.
    """

    matched: bool
    movable: bool
    heads_arc: tuple | None
    tails_arc: tuple | None
    mixed_arc: tuple | None
    chords: Mapping[str, ChordNumbers]


def _adjacent_pairs(d: GaussDiagram):
    """Each cyclically adjacent endpoint pair: the endpoints at positions p
    and p + 1 (mod 2n), for p = 0 .. 2n - 1."""
    eps = d.endpoints
    return zip(eps, eps[1:] + eps[:1])


def r1_removable_chords(d: GaussDiagram) -> list:
    """Chords whose head and tail are adjacent, ordered by the position
    where the adjacent pair starts (the p of the (p, p+1) adjacency)."""
    return list(dict.fromkeys(x.chord for x, y in _adjacent_pairs(d) if x.chord == y.chord))


def _r2_blocker(d: GaussDiagram, a: str, b: str):
    """Why chords a and b are not an R2 site, or None when they are."""
    if d.signs[a] == d.signs[b]:
        return f"chords {a} and {b} have the same sign"
    m = len(d.endpoints)
    pa, pb = d._pos[a], d._pos[b]
    if not _adjacent(m, pa[HEAD], pb[HEAD]):
        return f"heads of chords {a} and {b} are not adjacent"
    if not _adjacent(m, pa[TAIL], pb[TAIL]):
        return f"tails of chords {a} and {b} are not adjacent"
    return None


def r2_removable_pairs(d: GaussDiagram) -> list:
    """Unordered pairs {a, b} with adjacent heads, adjacent tails, and
    opposite signs; ordered by their sorted endpoint positions, each pair
    in ``label_key`` order."""
    pos = d._pos
    found = []
    # every R2 site has adjacent heads; adjacent heads never share a chord
    for x, y in _adjacent_pairs(d):
        if x.role == y.role == HEAD and _r2_blocker(d, x.chord, y.chord) is None:
            a, b = sorted((x.chord, y.chord), key=label_key)
            found.append((sorted((*pos[a].values(), *pos[b].values())), (a, b)))
    return [pair for _, pair in sorted(found)]


# every (sign, parity, direction) record, shared: a frozen value, built once
_NUMBERS = {
    (sign, parity, direction): ChordNumbers(sign, parity, direction, sign * parity * direction)
    for sign in (1, -1) for parity in (1, -1) for direction in (1, -1)
}


def _qualifying_tilings(d: GaussDiagram, labels) -> list:
    """The qualifying tilings of the triple's six endpoints, each as
    (arcs, {label: ChordNumbers}, movable) with arcs = (heads_arc,
    tails_arc, mixed_arc).

    The six positions, sorted as q0 < ... < q5, admit exactly two tilings
    into consecutive pairs: (q0 q1)(q2 q3)(q4 q5) and (q1 q2)(q3 q4)(q5 q0).
    Both can qualify only when the six endpoints fill the whole circle.  A
    tiling qualifies when each pair is adjacent in the full diagram, one
    pair joins two heads (then another joins two tails, and the third a
    head and a tail) and the mixed pair joins distinct chords.

    Everything is read from the endpoint positions: a chord's direction
    from the indices of the arcs holding its tail and head (arcs in ccw
    order = ascending start), its parity from the interleaving of its
    positions with those of the other two chords.  The numbers dict follows
    the order of ``labels``.
    """
    eps = d.endpoints
    m = len(eps)
    pos = d._pos
    a, b, c = labels
    ta, ha = pos[a][TAIL], pos[a][HEAD]
    tb, hb = pos[b][TAIL], pos[b][HEAD]
    tc, hc = pos[c][TAIL], pos[c][HEAD]
    chords = ((a, ta, ha), (b, tb, hb), (c, tc, hc))
    q0, q1, q2, q3, q4, q5 = sorted((ta, ha, tb, hb, tc, hc))
    tilings = []
    if q1 == q0 + 1 and q3 == q2 + 1 and q5 == q4 + 1:
        tilings.append(((q0, q1), (q2, q3), (q4, q5)))
    if q2 == q1 + 1 and q4 == q3 + 1 and q0 == 0 and q5 == m - 1:
        tilings.append(((q1, q2), (q3, q4), (q5, q0)))
    out = []
    parities = None
    for pairs in tilings:
        heads = tails = mixed = None
        for pair in pairs:
            x, y = eps[pair[0]], eps[pair[1]]
            if x.role != y.role:
                mixed = pair if x.chord != y.chord else None
            elif x.role == HEAD:
                heads = pair
            else:
                tails = pair
        # 3 heads and 3 tails: with a heads pair, the other two pairs are a
        # tails pair and a mixed pair, which must join distinct chords
        if heads is None or mixed is None:
            continue
        if parities is None:
            # +1 iff a chord crosses an even number of the other two
            xab = _interleaved(ta, ha, tb, hb)
            xac = _interleaved(ta, ha, tc, hc)
            xbc = _interleaved(tb, hb, tc, hc)
            parities = (
                1 if xab == xac else -1,
                1 if xab == xbc else -1,
                1 if xac == xbc else -1,
            )
        # the arcs, in ccw order, start at s0 < s1 < s2; mod 3, a position's
        # arc index is the number of starts at or before it
        s0, s1, s2 = pairs[0][0], pairs[1][0], pairs[2][0]
        numbers = {}
        for (label, t, h), parity in zip(chords, parities):
            i = (t >= s0) + (t >= s1) + (t >= s2)
            j = (h >= s0) + (h >= s1) + (h >= s2)
            direction = 1 if (j - i) % 3 == 1 else -1
            numbers[label] = _NUMBERS[d.signs[label], parity, direction]
        three_a, three_b, three_c = (rec.three_sign for rec in numbers.values())
        out.append(((heads, tails, mixed), numbers, three_a == three_b == three_c))
    return out


def _witness(tilings):
    """The tiling a verdict reports and an R3 move swaps: the first movable
    one of the nonempty ``_qualifying_tilings``, else the first."""
    return next((t for t in tilings if t[2]), tilings[0])


def analyze_triple(d: GaussDiagram, triple) -> TripleAnalysis:
    """Full matched/movable analysis of a chord triple: the public,
    validating report of the ``_qualifying_tilings`` kernel.

    The labels must be three distinct chords of ``d`` (else ValueError).
    The triple is matched iff at least one tiling qualifies and movable iff
    some qualifying tiling has all three 3-signs equal.  The reported arcs
    and numbers come from the witness: the first movable tiling (the one
    ``apply_move`` swaps), else the first qualifying one.  The library's
    own callers read the kernel directly.
    """
    labels = tuple(dict.fromkeys(triple))
    if len(labels) != 3:
        raise ValueError(f"need three distinct chords, got {tuple(triple)!r}")
    for c in labels:
        d.sign_of(c)
    qualifying = _qualifying_tilings(d, labels)
    if not qualifying:
        return TripleAnalysis(False, False, None, None, None, {})
    (heads, tails, mixed), numbers, movable = _witness(qualifying)
    return TripleAnalysis(
        matched=True,
        movable=movable,
        heads_arc=heads,
        tails_arc=tails,
        mixed_arc=mixed,
        chords=numbers,
    )


def _r3_candidates(d: GaussDiagram) -> set:
    """The matched triples, as frozensets of labels.

    Candidates come from head adjacencies.  A qualifying tiling pairs the
    heads of two chords a, b on its heads arc, so the third chord c has its
    head on the mixed arc, next to a tail of a or b, and its tail on the
    tails arc (the mixed arc joins two distinct chords), next to the other
    tail of a or b.  So c's tail is a cyclic neighbour of one tail of a, b
    and c's head of the other: at most four candidates per head adjacency,
    O(n) triples in all.  Conversely, three disjoint adjacent pairs of six
    endpoints always form one of the two tilings ``_qualifying_tilings``
    tries, and these pairs qualify, so every candidate is matched.
    """
    eps = d.endpoints
    m = len(eps)
    pos = d._pos
    candidates = set()
    for x, y in _adjacent_pairs(d):
        if x.role == y.role == HEAD:
            a, b = x.chord, y.chord
            ta, tb = pos[a][TAIL], pos[b][TAIL]
            for t, other in ((ta, tb), (tb, ta)):
                for z in (eps[t - 1], eps[(t + 1) % m]):
                    c = z.chord
                    if (z.role == TAIL and c != a and c != b
                            and _adjacent(m, pos[c][HEAD], other)):
                        candidates.add(frozenset((a, b, c)))
    return candidates


def r3_movable_triples(d: GaussDiagram) -> list:
    """All movable triples, as label tuples in sorted order.

    Each of the ``_r3_candidates`` is kept when one of its
    ``_qualifying_tilings`` is movable (a verdict that does not depend on
    the label order).  Only the kept triples are sorted: each by
    ``label_key``, then the list by their labels' keys, which is
    ``itertools.combinations`` order over the labels sorted by
    ``label_key``.
    """
    kept = [
        tuple(sorted(t, key=label_key))
        for t in _r3_candidates(d)
        if any(movable for _, _, movable in _qualifying_tilings(d, t))
    ]
    return sorted(kept, key=lambda t: tuple(map(label_key, t)))


def _fresh_labels(d: GaussDiagram, count: int) -> list:
    """The ``count`` least positive integers not used as labels in d."""
    candidates = map(str, range(1, len(d.signs) + count + 1))
    return [lab for lab in candidates if lab not in d.signs][:count]


def _check_chords(d: GaussDiagram, chords):
    for c in chords:
        if c not in d.signs:
            raise MoveNotApplicable(f"chord {c} not in diagram")


def _check_insertion(d: GaussDiagram, gaps, sign, flag: str, value, error=MoveNotApplicable):
    """Raise ``error`` unless an insertion's parameters are valid, checked
    in this order: each gap, an exact int (no bool, no float) in
    0..max(1, 2n) - 1; the sign, the int +1 or -1; the ``flag``
    (``head_first`` or ``crossed``), a bool."""
    limit = max(1, len(d.endpoints))
    for gap in gaps:
        if type(gap) is not int or not 0 <= gap < limit:
            raise error(f"invalid gap {gap!r}: valid gaps are 0..{limit - 1}")
    if not _valid_sign(sign):
        raise error(f"sign must be +1 or -1, got {sign!r}")
    if type(value) is not bool:
        raise error(f"{flag} must be True or False, got {value!r}")


def _edited(column, cuts, splices, arcs, field: int) -> list:
    """A copy of ``column`` (one value per endpoint) edited by slicing:
    ``cuts`` deleted in order, then each splice's block ``splice[field]``
    put in at its gap ``splice[0]`` in order, then each arc swapped."""
    column = list(column)
    for p in cuts:
        del column[p]
    for splice in splices:
        column[splice[0]:splice[0]] = splice[field]
    for a, b in arcs:
        column[a], column[b] = column[b], column[a]
    return column


def apply_move(d: GaussDiagram, move: Move) -> GaussDiagram:
    """Apply one move, or raise MoveNotApplicable naming the failed condition.

    The result is ``_rewrite``'s parts, which its checks make valid by
    construction, built through ``_trusted``."""
    return _trusted(*_rewrite(d, move))


def _rewrite(d: GaussDiagram, move: Move, rows=None, fresh=None):
    """Check every precondition of ``move`` on d (MoveNotApplicable like
    apply_move), then apply the move as one ``_edited`` edit: to d's
    endpoints, giving the parts (endpoints, signs) of apply_move's result,
    or to d's ``diagram._rows``, giving the child's rows.  Insertions take
    their labels from ``fresh``, ``_fresh_labels(d, 2)``, when given.

    A deletion cuts its 2 or 4 positions, the last first.  An insertion
    splices in its ``_insertion_blocks``, each (gap, labels, bases); the
    endpoint tuple takes endpoints read off the labels and bases.  R3 swaps
    the three arcs of the ``_witness``."""
    cuts = splices = arcs = gone = ()  # gone: the chords cut
    add = {}  # the signs of the chords added
    if isinstance(move, R1Delete):
        c = move.chord
        _check_chords(d, (c,))
        t, h = d._pos[c][TAIL], d._pos[c][HEAD]
        if not _adjacent(len(d.endpoints), t, h):
            raise MoveNotApplicable(
                f"chord {c} endpoints are not adjacent (positions {t} and {h})"
            )
        gone, cuts = (c,), ((t, h) if t > h else (h, t))
    elif isinstance(move, R2Delete):
        a, b = move.chords
        _check_chords(d, move.chords)
        blocker = _r2_blocker(d, a, b)
        if blocker is not None:
            raise MoveNotApplicable(blocker)
        gone = move.chords
        cuts = sorted((*d._pos[a].values(), *d._pos[b].values()), reverse=True)
    elif isinstance(move, (R1Insert, R2Insert)):
        fields = tuple(vars(move).values())  # gap(s), sign, flag: _insertion_fields order
        flag = "head_first" if isinstance(move, R1Insert) else "crossed"
        _check_insertion(d, fields[:-2], fields[-2], flag, fields[-1])
        splices, add = _insertion_blocks(fields, fresh or _fresh_labels(d, 2))
    elif isinstance(move, R3):
        _check_chords(d, move.chords)
        tilings = _qualifying_tilings(d, move.chords)
        if not tilings:
            raise MoveNotApplicable(f"triple {move.chords} is not matched")
        arcs, _, movable = _witness(tilings)
        if not movable:
            raise MoveNotApplicable(f"triple {move.chords} is matched but its 3-signs differ")
    else:
        raise MoveNotApplicable(f"unknown move {move!r}")
    if rows is not None:  # the rows take a splice's labels and bases
        return _edited(rows[0], cuts, splices, arcs, 1), _edited(rows[1], cuts, splices, arcs, 2)
    signs = {c: s for c, s in d.signs.items() if c not in gone} if gone else {**d.signs, **add}
    splices = [
        (gap, [Endpoint(lab, HEAD if base >> 32 else TAIL) for lab, base in zip(labels, bases)])
        for gap, labels, bases in splices
    ]
    return _edited(d.endpoints, cuts, splices, arcs, 1), signs


def enumerate_moves(d: GaussDiagram, include_insertions: bool = False) -> list:
    """All applicable moves: R1 deletions, R2 deletions, R3 triples, then
    (optionally) every parameterized insertion."""
    moves = [R1Delete(c) for c in r1_removable_chords(d)]
    moves += [R2Delete(pair) for pair in r2_removable_pairs(d)]
    moves += [R3(t) for t in r3_movable_triples(d)]
    if include_insertions:
        moves += _insertion_moves(d, 2)
    return moves


def _insertion_fields(m: int, added: int):
    """The fields of every insertion that adds ``added`` chords (1: an
    R1Insert, 2: an R2Insert) to a diagram with m endpoints, in
    ``enumerate_moves`` order: the gap (R2: head gap, then tail gap), then
    the sign, then the flag, the sign + before - and the flag True first."""
    gaps = range(max(1, m))
    return itertools.product(*(gaps,) * added, (1, -1), (True, False))


def _insertion_moves(d: GaussDiagram, room: int):
    """The insertions that add at most ``room`` chords, in
    ``enumerate_moves`` order: every R1 insertion when room >= 1, then
    every R2 insertion when room >= 2."""
    for added, kind in ((1, R1Insert), (2, R2Insert)):
        if room >= added:
            yield from itertools.starmap(kind, _insertion_fields(len(d.endpoints), added))


def _insertion_blocks(fields, fresh) -> tuple:
    """The blocks the insertion with these ``_insertion_fields`` splices
    in, in the order they go in, each (gap, labels, bases), and the signs of
    the chords it adds.  R1 adds chord ``fresh[0]``, its head first when
    the flag is set.  R2 adds x = ``fresh[0]``, signed first_sign, and y =
    ``fresh[1]``: heads (x, y) at the head gap and tails (x, y) if crossed
    else (y, x) at the tail gap, the later gap first (a shared gap: heads
    first, so the tails land before them)."""
    if len(fields) == 3:
        gap, sign, head_first = fields
        lab, negative = fresh[0], int(sign < 0)
        bases = (1 << 32 | negative, negative) if head_first else (negative, 1 << 32 | negative)
        return ((gap, (lab, lab), bases),), {lab: sign}
    head_gap, tail_gap, sign, crossed = fields
    x, y = fresh[0], fresh[1]
    nx, ny = (0, 1) if sign == 1 else (1, 0)
    heads = (head_gap, (x, y), (1 << 32 | nx, 1 << 32 | ny))
    tails = (tail_gap, (x, y), (nx, ny)) if crossed else (tail_gap, (y, x), (ny, nx))
    blocks = (heads, tails) if head_gap >= tail_gap else (tails, heads)
    return blocks, {x: sign, y: -sign}


def _spliced_rows(rows, fresh, added: int):
    """Each insertion that adds ``added`` chords, as (fields, chords,
    bases): its ``_insertion_fields`` and the child's rows, the parent's
    ``diagram._rows`` with its ``_insertion_blocks`` spliced in.  The
    search keys children from these; no move is built or checked."""
    chords, bases = tuple(rows[0]), tuple(rows[1])
    for fields in _insertion_fields(len(chords), added):
        child_chords, child_bases = chords, bases
        for gap, labels, block in _insertion_blocks(fields, fresh)[0]:
            child_chords = child_chords[:gap] + labels + child_chords[gap:]
            child_bases = child_bases[:gap] + block + child_bases[gap:]
        yield fields, child_chords, child_bases


def _detected_rows(d: GaussDiagram, change: int):
    """Each R1 deletion (``change`` -1), R2 deletion (-2) or R3 (0) of d,
    in ``enumerate_moves`` order, as (fields, chords, bases): the move's
    fields and the child's rows, d's ``diagram._rows`` edited as
    ``_rewrite`` edits them, cutting the deleted chords' positions, the
    last first, or swapping the arcs of the triple's ``_witness``.  The
    detectors found every site, so none is checked again, and d's rows are
    made only when one is found.  The search keys children from these; no
    move is built."""
    pos = d._pos
    if change == -1:
        sites = [((c,), sorted(pos[c].values(), reverse=True), ()) for c in r1_removable_chords(d)]
    elif change == -2:
        sites = [
            ((pair,), sorted((*pos[pair[0]].values(), *pos[pair[1]].values()), reverse=True), ())
            for pair in r2_removable_pairs(d)
        ]
    else:
        sites = [((t,), (), _witness(_qualifying_tilings(d, t))[0]) for t in r3_movable_triples(d)]
    if sites:
        chords, bases = _rows(d.endpoints, d.signs)
    for fields, cuts, arcs in sites:
        yield fields, _edited(chords, cuts, (), arcs, 1), _edited(bases, cuts, (), arcs, 2)


# ---------------------------------------------------------------- move specs

def _insertion_text(sign, flag: str, value, texts) -> tuple:
    """An insertion spec's sign and flag fields, the flag's from ``texts``
    (False, True); ValueError when either field has no spec."""
    _check_insertion(EMPTY, (), sign, flag, value, ValueError)
    return ("+" if sign == 1 else "-"), texts[value]


def format_move(move: Move) -> str:
    """Compact one-line spec, the CLI's move syntax.  ValueError for a move
    without one: a sign or flag ``_insertion_text`` rejects, or a spec that
    ``parse_move`` rejects (its error) or reads back as another move."""
    if isinstance(move, R1Delete):
        spec = f"r1:del:{move.chord}"
    elif isinstance(move, R1Insert):
        sign, order = _insertion_text(move.sign, "head_first", move.head_first, ("tf", "hf"))
        spec = f"r1:ins:{move.gap}:{sign}:{order}"
    elif isinstance(move, R2Delete):
        spec = "r2:del:{},{}".format(*move.chords)
    elif isinstance(move, R2Insert):
        sign, pattern = _insertion_text(move.first_sign, "crossed", move.crossed, ("u", "x"))
        spec = f"r2:ins:{move.head_gap}:{move.tail_gap}:{sign}:{pattern}"
    elif isinstance(move, R3):
        spec = "r3:{},{},{}".format(*move.chords)
    else:
        raise ValueError(f"unknown move {move!r}")
    if parse_move(spec) != move:  # else parse_move raises on the spec
        raise ValueError(f"{move!r} has no spec: {spec!r} parses to another move")
    return spec


def _parse_sign(text: str, spec: str) -> int:
    if text not in ("+", "-"):
        raise ValueError(f"move spec {spec!r}: sign must be + or -, got {text!r}")
    return 1 if text == "+" else -1


def _parse_gap(text: str, spec: str, what: str = "gap") -> int:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"move spec {spec!r}: {what} must be a nonnegative integer")
    return int(text)


def parse_move(spec: str) -> Move:
    """Inverse of format_move; errors name the malformed field."""
    parts = spec.strip().split(":")
    if parts[0] == "r1" and len(parts) >= 2 and parts[1] == "del":
        if len(parts) != 3 or not parts[2]:
            raise ValueError(f"move spec {spec!r}: r1:del needs a chord label")
        return R1Delete(parts[2])
    if parts[0] == "r1" and len(parts) >= 2 and parts[1] == "ins":
        if len(parts) != 5:
            raise ValueError(f"move spec {spec!r}: r1:ins needs gap:sign:hf|tf")
        gap = _parse_gap(parts[2], spec)
        sign = _parse_sign(parts[3], spec)
        if parts[4] not in ("hf", "tf"):
            raise ValueError(f"move spec {spec!r}: order must be hf or tf")
        return R1Insert(gap, sign, parts[4] == "hf")
    if parts[0] == "r2" and len(parts) >= 2 and parts[1] == "del":
        chords = parts[2].split(",") if len(parts) == 3 else []
        if len(chords) != 2 or not all(chords):
            raise ValueError(f"move spec {spec!r}: r2:del needs chord,chord")
        return R2Delete(tuple(chords))
    if parts[0] == "r2" and len(parts) >= 2 and parts[1] == "ins":
        if len(parts) != 6:
            raise ValueError(f"move spec {spec!r}: r2:ins needs hgap:tgap:sign:x|u")
        head_gap = _parse_gap(parts[2], spec, "head gap")
        tail_gap = _parse_gap(parts[3], spec, "tail gap")
        sign = _parse_sign(parts[4], spec)
        if parts[5] not in ("x", "u"):
            raise ValueError(f"move spec {spec!r}: pattern must be x or u")
        return R2Insert(head_gap, tail_gap, sign, parts[5] == "x")
    if parts[0] == "r3":
        chords = parts[1].split(",") if len(parts) == 2 else []
        if len(chords) != 3 or not all(chords):
            raise ValueError(f"move spec {spec!r}: r3 needs chord,chord,chord")
        return R3(tuple(chords))
    raise ValueError(f"move spec {spec!r}: unknown move kind")


# ------------------------------------------------------------------- census

@dataclass(frozen=True)
class CensusResult:
    chords: int
    total: int
    matched: int
    movable: int
    movable_up_to_rotation: int


def _configuration_orbit_keys(chords, bases, arc_lists) -> list:
    """Rotation-invariant keys for the qualifying tilings ``arc_lists`` of
    the diagram with these ``diagram._rows``, one scan for them all.

    Each key is the diagram's least label-free encoding paired with the
    least rotation of the arc positions over the shifts attaining it, so
    two configurations share a key iff some rotation carries one diagram
    onto the other and the tiling along with it.
    """
    m = len(chords)
    code, shifts = _least_rotations(chords, bases)
    return [
        (code, min(tuple(sorted(((a - k) % m, (b - k) % m) for a, b in arcs)) for k in shifts))
        for arcs in arc_lists
    ]


def census_movable_triples(n: int) -> CensusResult:
    """Exhaustive triple-configuration census over every n-chord diagram.

    A configuration is a (diagram, triple, qualifying tiling) choice; a
    triple contributes one configuration per qualifying tiling (two only
    when the triple's endpoints fill the whole circle).  Counts matched
    configurations, movable ones (all three 3-signs equal), and the
    movable configurations up to rotation of the underlying diagram, as
    distinct orbit keys.

    The (2n-1)!! * 4^n diagrams are walked as the (2n-1)!! * 2^n endpoint
    ``diagram._arrangements`` times their 2^n sign maps.  The matched
    triples (``_r3_candidates``), their tilings and each chord's parity and
    direction depend on the endpoints only, so each arrangement is analysed
    once, and a 3-sign is the chord's sign times its sign-free factor
    parity * direction.  A sign map then makes a tiling movable iff the
    three signed factors agree, and only a sign map with a movable tiling
    pays for one least-rotation scan, which keys all its movable tilings.
    n is capped at 5 (967,680 diagrams, a few seconds) to keep the walk at
    desk scale.
    """
    if n < 3:
        raise ValueError("census needs at least 3 chords")
    if n > 5:
        raise ValueError("census is capped at 5 chords")
    total = matched = movable = 0
    movable_orbits = set()
    for endpoints, sign_maps in _arrangements(n):
        total += len(sign_maps)
        d = _trusted(endpoints, sign_maps[0])
        # each tiling's arcs and its chords' (label, parity * direction)
        tilings = [
            (arcs, [(c, r.parity * r.direction) for c, r in numbers.items()])
            for triple in _r3_candidates(d)
            for arcs, numbers, _ in _qualifying_tilings(d, triple)
        ]
        if not tilings:
            continue
        matched += len(tilings) * len(sign_maps)
        for signs in sign_maps:
            found = [
                arcs for arcs, ((a, fa), (b, fb), (c, fc)) in tilings
                if signs[a] * fa == signs[b] * fb == signs[c] * fc
            ]
            if found:
                movable += len(found)
                movable_orbits.update(_configuration_orbit_keys(*_rows(endpoints, signs), found))
    return CensusResult(n, total, matched, movable, len(movable_orbits))
