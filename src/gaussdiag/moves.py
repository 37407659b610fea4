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

The move kinds, their order and their specs are one table, ``_KINDS``, in
``enumerate_moves`` order: R1 deletions, R2 deletions, R3s, R1 insertions
and R2 insertions.  A row holds the kind's class, the chords it adds (-1,
-2, 0, 1, 2), its spec's prefix, what its spec needs after the prefix, and
each spec field's form (a label, comma-joined labels, a gap, the sign or a
flag).  ``format_move`` and ``parse_move`` read each spec from it,
``enumerate_moves`` its insertion kinds, and the search its family order
and the class it builds each child's move with.

Six cyclically ordered endpoints admit at most two tilings into three
consecutive pairs.  Both are admissible only when the six positions fill
the whole circle (a standalone 3-chord diagram); a triple is matched when
EITHER tiling qualifies, and movable when either qualifying tiling has
equal 3-signs.  Every R3 move swaps the first movable tiling (preferring
the pairing that starts at the least position), and ``analyze_triple``
reports that tiling, else the first qualifying one.  This keeps every
verdict rotation-invariant.

Only the sign depends on the sign map: parity, direction and the tilings
depend on where the endpoints sit, and so do the R1 chords and the
adjacencies of an R2 pair.  So detection is a sign-free find from
``sites`` and a signed filter here: ``r1_removable_chords`` keeps every
R1 chord, ``r2_removable_pairs`` the R2 pairs of opposite signs, and
``r3_movable_triples`` the matched triples with a tiling whose three
signed factors agree, the ``_movable_arcs``.  A find comes from the
holder an enumerated arrangement's 2^n sign maps share, filled by
whichever asks first, or afresh for any other diagram, which keeps
nothing.  The census reads the same R3 finds, once per arrangement.

``sites._tilings``, one integer kernel, computes a triple's sign-free
numbers from its six endpoint positions.  The R3 finds and ``_rewrite``
(and through it ``apply_move``) call it directly;
``_qualifying_tilings`` adds the signs, for ``analyze_triple``, the
public report, which validates its labels and packages the witness
tiling as a ``TripleAnalysis``.

Every precondition is an adjacency, read one way (see ``sites``):
``diagram._adjacent`` is the one test on two positions read from the
diagram's position map; ``_r2_blocker`` and the R1 rewrite call it.  The
validating accessors (``adjacent``, ``sign_of`` and the position getters)
are for outside callers; here only ``analyze_triple``, the public
report, calls them.  The chords a move names are outside input, so
``_check_chords`` guards them before any lookup.

``_rewrite`` checks each move's preconditions, written once, then makes
the move as one positional edit (cuts, splices, arcs), which ``_edited``
applies by slicing: a deletion cuts its chords' positions, the ``_cuts``;
an insertion splices its ``_insertion_blocks`` in at its gaps after
``_check_insertion`` (gaps, then sign, then flag); and R3 swaps the
``_movable_arcs``.
``apply_move`` builds the edited endpoint tuple without revalidation; an
insertion's new endpoints are the shared ones of ``diagram._TAILS`` and
``_HEADS``, so no move makes an ``Endpoint``.  An enumerated diagram's
deletions and R3s reuse the child its arrangement's holder keeps.

The search keys children from one walk, ``_family_rows(d, change,
undo)``, over the move family of a parent that adds ``change`` chords:
its R1 deletions (-1), R2 deletions (-2), R3s (0), R1 insertions (1) or
R2 insertions (2).  It yields the moves' fields with the child's rows,
with no check and no move built.  A deletion or R3 is the edit
``_rewrite`` would make, applied by ``_edited`` to the parent's
``diagram._rows``; the deletion of the chords ``undo`` is dropped before
any rows are made (the search passes the chords a state's own insertion
added, so that child is the state's parent).  Deletions and R3s come
from the detectors, and an R3's arcs from the tilings its detector read,
so each candidate triple meets the kernel once per walk.  Insertions come
in ``_insertion_fields`` order, which also gives ``enumerate_moves`` its
insertion moves, and take the parent's ``_fresh_labels``.  Their rows,
``_insertion_rows``, are slices of the parent's rows joined around each
child's blocks: the slices are made once per gap or gap pair, and each
(sign, flag) variant's blocks once per family, from ``_insertion_blocks``,
the one definition of what an insertion puts in and in what order.  So
two codes splice: ``_edited`` for the one child ``apply_move`` builds,
and the walk for the many children that share a parent's slices.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Mapping
from operator import itemgetter
from types import MappingProxyType

from .diagram import (
    HEAD,
    GaussDiagram,
    _HEADS,
    _TAILS,
    _adjacent,
    _arrangements,
    _assemble,
    _check_chord_count,
    _positions,
    _Record,
    _rows,
    _set,
    _trusted,
    _valid_sign,
    label_key,
    valid_label,
)
# not called here; imported so that perfbench/tracing.py can patch them
from .diagram import enumerate_diagrams, make_diagram  # noqa: F401
from .sites import _holding, _r1_sites, _r2_sites, _r3_sites, _sign_free, _tilings


class MoveNotApplicable(Exception):
    """The move's precondition fails on the target diagram."""


def _sorted_labels(move, chords) -> tuple:
    """The labels an R2Delete or an R3 names, in ``label_key`` order;
    ValueError for a bare string or a label that is not a string."""
    try:
        if not isinstance(chords, str):
            return tuple(sorted(chords, key=label_key))
    except (AttributeError, TypeError):
        pass
    raise ValueError(f"{type(move).__name__} needs a tuple of label strings, got {chords!r}")


class R1Delete(_Record):
    __slots__ = ("chord",)

    def __init__(self, chord: str):
        if not isinstance(chord, str):
            raise ValueError(f"R1Delete needs a label string, got {chord!r}")
        _set(self, "chord", chord)


class R1Insert(_Record):
    # head_first True: head immediately counterclockwise-before tail
    __slots__ = ("gap", "sign", "head_first")

    def __init__(self, gap: int, sign: int, head_first: bool):
        _set(self, "gap", gap)
        _set(self, "sign", sign)
        _set(self, "head_first", head_first)


class R2Delete(_Record):
    __slots__ = ("chords",)

    def __init__(self, chords: tuple):
        pair = _sorted_labels(self, chords)
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ValueError("R2Delete needs two distinct chords")
        _set(self, "chords", pair)


class R2Insert(_Record):
    __slots__ = ("head_gap", "tail_gap", "first_sign", "crossed")

    def __init__(self, head_gap: int, tail_gap: int, first_sign: int, crossed: bool):
        _set(self, "head_gap", head_gap)
        _set(self, "tail_gap", tail_gap)
        _set(self, "first_sign", first_sign)
        _set(self, "crossed", crossed)


class R3(_Record):
    __slots__ = ("chords",)

    def __init__(self, chords: tuple):
        triple = _sorted_labels(self, chords)
        if len(triple) != 3 or len(set(triple)) != 3:
            raise ValueError("R3 needs three distinct chords")
        _set(self, "chords", triple)


Move = R1Delete | R1Insert | R2Delete | R2Insert | R3


# one move kind: its class, the chords it adds, its spec's prefix, what its
# spec needs after the prefix (for the error) and the form of each spec
# field, in the record's field order
_Kind = namedtuple("_Kind", "move change prefix needs fields")
# the move kinds, in enumerate_moves order.  A spec field's form is one chord
# label ("label", 1), count comma-joined labels ("labels", count), a gap and
# its name ("gap", name), the sign ("sign",), or a flag, its name and its
# (False, True) texts ("flag", name, texts)
_KINDS = (
    _Kind(R1Delete, -1, "r1:del", "a chord label", (("label", 1),)),
    _Kind(R2Delete, -2, "r2:del", "chord,chord", (("labels", 2),)),
    _Kind(R3, 0, "r3", "chord,chord,chord", (("labels", 3),)),
    _Kind(R1Insert, 1, "r1:ins", "gap:sign:hf|tf",
          (("gap", "gap"), ("sign",), ("flag", "order", ("tf", "hf")))),
    _Kind(R2Insert, 2, "r2:ins", "hgap:tgap:sign:x|u",
          (("gap", "head gap"), ("gap", "tail gap"), ("sign",), ("flag", "pattern", ("u", "x")))),
)


class ChordNumbers(_Record):
    """Per-chord analysis record for a matched triple."""

    __slots__ = ("sign", "parity", "direction", "three_sign")

    def __init__(self, sign: int, parity: int, direction: int, three_sign: int):
        _set(self, "sign", sign)
        _set(self, "parity", parity)
        _set(self, "direction", direction)
        _set(self, "three_sign", three_sign)


class TripleAnalysis(_Record):
    """Verdict for one chord triple.

    When matched, the three arcs are reported as (start, end) position
    pairs with end == start+1 (mod 2n), and ``chords`` maps each label to
    its ChordNumbers.  movable == matched and all three 3-signs equal.
    """

    __slots__ = ("matched", "movable", "heads_arc", "tails_arc", "mixed_arc", "chords")

    def __init__(self, matched: bool, movable: bool, heads_arc: tuple | None,
                 tails_arc: tuple | None, mixed_arc: tuple | None,
                 chords: Mapping[str, ChordNumbers]):
        _set(self, "matched", matched)
        _set(self, "movable", movable)
        _set(self, "heads_arc", heads_arc)
        _set(self, "tails_arc", tails_arc)
        _set(self, "mixed_arc", mixed_arc)
        _set(self, "chords", chords)


def r1_removable_chords(d: GaussDiagram) -> list:
    """Chords whose head and tail are adjacent, ordered by the position
    where the adjacent pair starts (the p of the (p, p+1) adjacency): the
    ``_r1_sites``, which need no sign test."""
    return list(_sign_free(d, _r1_sites))


def _r2_blocker(d: GaussDiagram, a: str, b: str):
    """Why chords a and b are not an R2 site, or None when they are."""
    if d.signs[a] == d.signs[b]:
        return f"chords {a} and {b} have the same sign"
    m = len(d.endpoints)
    (ta, ha), (tb, hb) = d._pos[a], d._pos[b]
    if not _adjacent(m, ha, hb):
        return f"heads of chords {a} and {b} are not adjacent"
    if not _adjacent(m, ta, tb):
        return f"tails of chords {a} and {b} are not adjacent"
    return None


def r2_removable_pairs(d: GaussDiagram) -> list:
    """Unordered pairs {a, b} with adjacent heads, adjacent tails, and
    opposite signs; ordered by their sorted endpoint positions, each pair
    in ``label_key`` order: the ``_r2_sites`` of opposite signs."""
    signs = d.signs
    return [pair for pair in _sign_free(d, _r2_sites) if signs[pair[0]] != signs[pair[1]]]


# every (sign, parity, direction) record, shared: a frozen value, built once
_NUMBERS = {
    (sign, parity, direction): ChordNumbers(sign, parity, direction, sign * parity * direction)
    for sign in (1, -1) for parity in (1, -1) for direction in (1, -1)
}


def _movable_arcs(signs, labels, tilings):
    """The arcs of the first of a triple's ``_tilings`` whose three 3-signs
    agree under ``signs``, or None: the signed filter of an R3 site, and
    the witness every R3 move swaps."""
    a, b, c = labels
    sa, sb, sc = signs[a], signs[b], signs[c]
    for arcs, _, (fa, fb, fc) in tilings:
        if sa * fa == sb * fb == sc * fc:
            return arcs
    return None


def _qualifying_tilings(d: GaussDiagram, labels) -> list:
    """The qualifying ``_tilings`` of the triple with their signs, each as
    (arcs, {label: ChordNumbers}, movable); the numbers dict follows the
    order of ``labels``."""
    signs = d.signs
    # a factor is parity * direction, so a chord's direction is parity * factor
    return [
        (arcs, {c: _NUMBERS[signs[c], p, p * f] for c, p, f in zip(labels, parities, factors)},
         len({signs[c] * f for c, f in zip(labels, factors)}) == 1)
        for arcs, parities, factors in _tilings(d, labels)
    ]


def analyze_triple(d: GaussDiagram, triple) -> TripleAnalysis:
    """Full matched/movable analysis of a chord triple: the public,
    validating report of the ``_qualifying_tilings`` kernel.

    ``triple`` holds exactly three distinct label strings naming chords of
    ``d``, in any iterable but a string (else ValueError); ``chords``
    keeps their order.
    The triple is matched iff at least one tiling qualifies and movable iff
    some qualifying tiling has all three 3-signs equal.  The reported arcs
    and numbers come from the witness: the first movable tiling (the one
    ``apply_move`` swaps), else the first qualifying one.  The library's
    own callers read the kernel directly.
    """
    try:
        labels = () if isinstance(triple, str) else tuple(triple)
    except TypeError:  # not iterable
        labels = ()
    if len(labels) != 3 or not all(isinstance(c, str) for c in labels) or len(set(labels)) != 3:
        raise ValueError(f"need three distinct chords, got {triple!r}")
    for c in labels:
        d.sign_of(c)
    qualifying = _qualifying_tilings(d, labels)
    if not qualifying:
        return TripleAnalysis(False, False, None, None, None, {})
    arcs, numbers, movable = next((t for t in qualifying if t[2]), qualifying[0])
    return TripleAnalysis(True, movable, *arcs, numbers)


def r3_movable_triples(d: GaussDiagram) -> list:
    """All movable triples, as label tuples in sorted order: the
    ``_r3_sites`` with a tiling whose 3-signs agree (a verdict that does
    not depend on the label order).  The order is ``label_key`` within a
    triple, then ``itertools.combinations`` order over the labels sorted
    by ``label_key``.
    """
    signs = d.signs
    found = _sign_free(d, _r3_sites)
    return [t for t, tilings in found.items() if _movable_arcs(signs, t, tilings)]


def _fresh_labels(d: GaussDiagram, count: int) -> list:
    """The ``count`` least positive integers not used as labels in d."""
    candidates = map(str, range(1, len(d.signs) + count + 1))
    return list(itertools.islice(itertools.filterfalse(d.signs.__contains__, candidates), count))


def _check_chords(d: GaussDiagram, chords):
    for c in chords:
        if c not in d.signs:
            raise MoveNotApplicable(f"chord {c} not in diagram")


def _check_insertion(move, d: GaussDiagram | None = None, error=MoveNotApplicable):
    """Raise ``error`` unless an insertion's fields are valid, checked in
    this order: each gap, only when a diagram d is given, an exact int (no
    bool, no float) in 0..max(1, 2n) - 1; the sign, the int +1 or -1; the
    flag, the record's last field (``head_first`` or ``crossed``), a bool."""
    *gaps, sign, value = move._values()
    if d is not None:
        limit = max(1, len(d.endpoints))
        for gap in gaps:
            if type(gap) is not int or not 0 <= gap < limit:
                raise error(f"invalid gap {gap!r}: valid gaps are 0..{limit - 1}")
    if not _valid_sign(sign):
        raise error(f"sign must be +1 or -1, got {sign!r}")
    if type(value) is not bool:
        raise error(f"{type(move)._fields[-1]} must be True or False, got {value!r}")


def _cuts(d: GaussDiagram, chords) -> list:
    """The positions of ``chords``' endpoints in d, the last first: the
    order a deletion cuts them in."""
    cuts = []
    for c in chords:
        cuts.extend(d._pos[c])
    cuts.sort(reverse=True)
    return cuts


def _edited(column, cuts, splices, arcs) -> list:
    """A copy of ``column`` (one value per endpoint) edited by slicing:
    ``cuts`` deleted in order, then each splice's (gap, block) put in in
    order, then each arc swapped."""
    column = list(column)
    for p in cuts:
        del column[p]
    for gap, block in splices:
        column[gap:gap] = block
    for a, b in arcs:
        column[a], column[b] = column[b], column[a]
    return column


def apply_move(d: GaussDiagram, move: Move) -> GaussDiagram:
    """Apply one move, or raise MoveNotApplicable naming the failed condition.

    The result is d's endpoints with ``_rewrite``'s edit, valid by its
    checks, and its fresh sign dict, built without revalidation.  A
    deletion's or R3's edited endpoints and position map are sign-free, so
    a diagram with a holder (see ``sites``) keeps them there, keyed by the
    edit's cuts or arcs, for its arrangement's other sign maps; a failed
    check keeps nothing.  Insertions, and diagrams without a holder, build
    afresh."""
    (cuts, splices, arcs), signs = _rewrite(d, move)
    holder = None if splices else d._sites  # an insertion has no cuts or arcs to key it by
    key = (*cuts, *arcs)
    child = None if holder is None else holder.get(key)
    if child is None:
        endpoints = tuple(_edited(d.endpoints, cuts, splices, arcs))
        child = endpoints, _positions(endpoints)
        if holder is not None:
            holder[key] = child
    return _assemble(object.__new__(GaussDiagram), child[0], MappingProxyType(signs), child[1])


def _rewrite(d: GaussDiagram, move: Move):
    """Check every precondition of ``move`` on d (MoveNotApplicable like
    apply_move), then give the move as one edit of d's endpoints, (cuts,
    splices, arcs) for ``_edited``, and the fresh sign dict of apply_move's
    result.

    A deletion cuts its chords' ``_cuts``.  An insertion splices in its
    ``_insertion_blocks``, each (gap, labels, bases), as the shared
    endpoints read off the labels and bases.  R3 swaps the three
    ``_movable_arcs`` of its triple's ``_tilings``, read from the holder's
    R3 find when d has a holder, where a triple without an entry is not
    matched.  ``_family_rows`` makes the same edits on the rows,
    unchecked, its insertions by joining slices (``_insertion_rows``)."""
    splices = arcs = gone = ()  # gone: the chords cut
    add = {}  # the signs of the chords added
    if isinstance(move, R1Delete):
        c = move.chord
        _check_chords(d, (c,))
        t, h = d._pos[c]
        if not _adjacent(len(d.endpoints), t, h):
            raise MoveNotApplicable(
                f"chord {c} endpoints are not adjacent (positions {t} and {h})"
            )
        gone = (c,)
    elif isinstance(move, R2Delete):
        _check_chords(d, move.chords)
        blocker = _r2_blocker(d, *move.chords)
        if blocker is not None:
            raise MoveNotApplicable(blocker)
        gone = move.chords
    elif isinstance(move, (R1Insert, R2Insert)):
        _check_insertion(move, d)
        blocks, add = _insertion_blocks(move._values(), _fresh_labels(d, 2))
        splices = [
            (gap, [(_HEADS if base >> 32 else _TAILS)[lab] for lab, base in zip(labels, bases)])
            for gap, labels, bases in blocks
        ]
    elif isinstance(move, R3):
        t = move.chords
        _check_chords(d, t)
        tilings = _tilings(d, t) if d._sites is None else _sign_free(d, _r3_sites).get(t)
        if not tilings:
            raise MoveNotApplicable(f"triple {t} is not matched")
        arcs = _movable_arcs(d.signs, t, tilings)
        if arcs is None:
            raise MoveNotApplicable(f"triple {t} is matched but its 3-signs differ")
    else:
        raise MoveNotApplicable(f"unknown move {move!r}")
    signs = {c: s for c, s in d.signs.items() if c not in gone} if gone else {**d.signs, **add}
    return (_cuts(d, gone) if gone else (), splices, arcs), signs


def enumerate_moves(d: GaussDiagram, include_insertions: bool = False) -> list:
    """All applicable moves: R1 deletions, R2 deletions, R3 triples, then
    (optionally) every parameterized insertion.  ValueError unless
    include_insertions is a bool."""
    if type(include_insertions) is not bool:
        raise ValueError(f"include_insertions must be True or False, got {include_insertions!r}")
    moves = [R1Delete(c) for c in r1_removable_chords(d)]
    moves += [R2Delete(pair) for pair in r2_removable_pairs(d)]
    moves += [R3(t) for t in r3_movable_triples(d)]
    if include_insertions:
        moves += [kind.move(*fields) for kind in _KINDS if kind.change > 0
                  for fields in _insertion_fields(len(d.endpoints), kind.change)]
    return moves


# the (sign, flag) of an insertion: the sign + before -, the flag True first
_VARIANTS = tuple(itertools.product((1, -1), (True, False)))


def _insertion_gaps(m: int, added: int):
    """The gaps of every insertion that adds ``added`` chords to a diagram
    with m endpoints, in order: one gap (R1), or a head gap, then a tail
    gap (R2), each in 0..max(1, m) - 1."""
    return itertools.product(range(max(1, m)), repeat=added)


def _insertion_fields(m: int, added: int):
    """The fields of every insertion that adds ``added`` chords (1: an
    R1Insert, 2: an R2Insert) to a diagram with m endpoints, in
    ``enumerate_moves`` order: the ``_insertion_gaps``, then the
    ``_VARIANTS``."""
    return ((*gaps, *variant) for gaps in _insertion_gaps(m, added) for variant in _VARIANTS)


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


def _insertion_layout(gaps, fresh) -> tuple:
    """Each variant's ``_insertion_blocks`` at ``gaps``, in the order the
    child reads them (the order they go in, reversed), which depends only
    on how the gaps compare: the distinct label blocks, and per variant
    (variant, the index of its label blocks, its bases blocks)."""
    labels, variants = [], []
    for variant in _VARIANTS:
        blocks = _insertion_blocks((*gaps, *variant), fresh)[0][::-1]
        row = [list(block[1]) for block in blocks]
        if row not in labels:
            labels.append(row)
        variants.append((variant, labels.index(row), [list(block[2]) for block in blocks]))
    return labels, variants


def _insertion_rows(d: GaussDiagram, change: int):
    """Each insertion of d that adds ``change`` chords, as ``_family_rows``
    yields it: each child's rows are the slices of d's rows around its
    blocks, joined.  The slices and the chords rows are made once per gap
    (R1) or (head gap, tail gap) pair (R2), a chords row once per distinct
    label block, and each variant's blocks once per family by
    ``_insertion_layout``.  Children of one gap share their chords row."""
    fresh = _fresh_labels(d, 2)
    chords, bases = _rows(d.endpoints, d.signs)
    m = len(chords)
    if change == 1:
        labels, variants = _insertion_layout((0,), fresh)
        for (gap,) in _insertion_gaps(m, 1):
            rows = [chords[:gap] + block + chords[gap:] for (block,) in labels]
            left, right = bases[:gap], bases[gap:]
            for variant, i, (block,) in variants:
                yield (gap, *variant), rows[i], left + block + right
        return
    # the child reads its two blocks in one of three orders: the head gap
    # before, at or after the tail gap
    layouts = [_insertion_layout(gaps, fresh) for gaps in ((0, 1), (0, 0), (1, 0))]
    for head_gap, tail_gap in _insertion_gaps(m, 2):
        lo, hi = (head_gap, tail_gap) if head_gap < tail_gap else (tail_gap, head_gap)
        labels, variants = layouts[(head_gap >= tail_gap) + (head_gap > tail_gap)]
        c0, c1, c2 = chords[:lo], chords[lo:hi], chords[hi:]
        b0, b1, b2 = bases[:lo], bases[lo:hi], bases[hi:]
        rows = [c0 + x + c1 + y + c2 for x, y in labels]
        for variant, i, (x, y) in variants:
            yield (head_gap, tail_gap, *variant), rows[i], b0 + x + b1 + y + b2


def _family_rows(d: GaussDiagram, change: int, undo: tuple = ()):
    """Each move of d that adds ``change`` chords, in ``enumerate_moves``
    order, as (fields, chords, bases): the move's fields and the child's
    rows.  The family is d's R1 deletions (-1), R2 deletions (-2), R3s (0),
    R1 insertions (1) or R2 insertions (2).  A deletion of exactly the
    chords ``undo`` (in ``label_key`` order) is dropped before any rows
    are made: when d was made by inserting them, it gives back d's parent.
    A deletion or R3 is the (cuts, arcs) edit ``_rewrite`` makes after its
    checks, applied by ``_edited`` to d's ``diagram._rows``, which are made
    only once the family has a site; insertions are ``_insertion_rows``.
    The detectors found every deletion and R3 and every generated
    insertion is valid, so no site is checked again and no move is built:
    the search keys children from these, and reads the rows only."""
    if change > 0:
        return _insertion_rows(d, change)
    if change == -1:
        sites = [((c,), _cuts(d, (c,)), ()) for c in r1_removable_chords(d) if (c,) != undo]
    elif change == -2:
        sites = [((pair,), _cuts(d, pair), ()) for pair in r2_removable_pairs(d) if pair != undo]
    else:
        d = _holding(d)  # the detector fills its holder; the arcs are read from it
        triples = r3_movable_triples(d)
        found = _sign_free(d, _r3_sites)
        sites = [((t,), (), _movable_arcs(d.signs, t, found[t])) for t in triples]
    if not sites:
        return iter(())
    chords, bases = _rows(d.endpoints, d.signs)
    return ((fields, _edited(chords, cuts, (), arcs), _edited(bases, cuts, (), arcs))
            for fields, cuts, arcs in sites)


# ---------------------------------------------------------------- move specs

def _field_text(form, value) -> str:
    """The text of one spec field of this form (see ``_KINDS``)."""
    if form[0] == "labels":
        return ",".join(value)
    if form[0] == "sign":
        return "+" if value == 1 else "-"
    return form[2][value] if form[0] == "flag" else str(value)


def format_move(move: Move) -> str:
    """Compact one-line spec, the CLI's move syntax: its kind's prefix and
    fields, as ``_KINDS`` gives them.  ValueError for a move without one:
    an insertion's sign or flag that ``_check_insertion`` rejects, or a
    spec that ``parse_move`` rejects (its error) or reads back as another
    move."""
    kind = next((kind for kind in _KINDS if isinstance(move, kind.move)), None)
    if kind is None:
        raise ValueError(f"unknown move {move!r}")
    if kind.change > 0:
        _check_insertion(move, None, ValueError)  # the gaps are parse_move's to judge
    spec = ":".join([kind.prefix, *map(_field_text, kind.fields, move._values())])
    if parse_move(spec) != move:  # else parse_move raises on the spec
        raise ValueError(f"{move!r} has no spec: {spec!r} parses to another move")
    return spec


def _read_field(form, text: str, spec: str, needs: str):
    """The value of one spec field of this form (see ``_KINDS``); ValueError
    naming the malformed field (``needs`` for a label field), or a label
    ``valid_label`` rejects, since no diagram holds it."""
    tag = form[0]
    if tag == "gap":
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"move spec {spec!r}: {form[1]} must be a nonnegative integer")
        return int(text)
    if tag == "sign":
        if text not in ("+", "-"):
            raise ValueError(f"move spec {spec!r}: sign must be + or -, got {text!r}")
        return 1 if text == "+" else -1
    if tag == "flag":
        _, name, texts = form
        if text not in texts:
            raise ValueError(f"move spec {spec!r}: {name} must be {texts[1]} or {texts[0]}")
        return text == texts[1]
    labels = text.split(",") if tag == "labels" else [text]
    if len(labels) != form[1] or not all(labels):
        raise ValueError(needs)
    for label in labels:
        if not valid_label(label):
            raise ValueError(f"move spec {spec!r}: invalid chord label {label!r}")
    return tuple(labels) if tag == "labels" else text


def parse_move(spec: str) -> Move:
    """Inverse of format_move: the first of ``_KINDS`` whose prefix the spec
    starts with, then its fields in order.  Errors name a wrong field
    count, the malformed field, and a well-formed spec's invalid chord
    label."""
    parts = spec.strip().split(":")
    for kind in _KINDS:
        head = kind.prefix.split(":")
        if parts[:len(head)] == head:
            texts = parts[len(head):]
            needs = f"move spec {spec!r}: {kind.prefix} needs {kind.needs}"
            if len(texts) != len(kind.fields):
                raise ValueError(needs)
            return kind.move(*[_read_field(form, text, spec, needs)
                               for form, text in zip(kind.fields, texts)])
    raise ValueError(f"move spec {spec!r}: unknown move kind")


# ------------------------------------------------------------------- census

class CensusResult(_Record):
    __slots__ = ("chords", "total", "matched", "movable", "movable_up_to_rotation")

    def __init__(self, chords: int, total: int, matched: int, movable: int,
                 movable_up_to_rotation: int):
        _set(self, "chords", chords)
        _set(self, "total", total)
        _set(self, "matched", matched)
        _set(self, "movable", movable)
        _set(self, "movable_up_to_rotation", movable_up_to_rotation)


def _heads_arc_key(endpoints, arcs) -> tuple:
    """The sign-free part of the orbit key of a configuration with these
    endpoints and tiling ``arcs``, and a reader of its signs in key order.

    The diagram is read from the start h of the tiling's one heads arc,
    each endpoint as ``number << 1 | head`` with its chord numbered by
    first appearance from h, then the tails and mixed arcs' starts less h
    (mod 2n).  A rotation carries the heads arc along with the diagram, so
    every configuration of an orbit reads the same, and the reading gives
    back the diagram rotated to h up to labels, and its tiling.  So two
    configurations share ``key + read(signs)`` iff they share an orbit.
    """
    m, h = len(endpoints), arcs[0][0]
    numbers = {}
    key = [numbers.setdefault(ep.chord, len(numbers) + 1) << 1 | (ep.role == HEAD)
           for ep in endpoints[h:] + endpoints[:h]]
    return (*key, *[(start - h) % m for start, _ in arcs[1:]]), itemgetter(*numbers)


def census_movable_triples(n: int) -> CensusResult:
    """Exhaustive triple-configuration census over every n-chord diagram.

    A configuration is a (diagram, triple, qualifying tiling) choice; a
    triple contributes one configuration per qualifying tiling (two only
    when the triple's endpoints fill the whole circle).  Counts matched
    configurations, movable ones (all three 3-signs equal), and the
    movable configurations up to rotation of the underlying diagram, as
    distinct ``_heads_arc_key`` orbit keys.

    The (2n-1)!! * 4^n diagrams are walked as the (2n-1)!! * 2^n endpoint
    ``diagram._arrangements`` times their 2^n sign maps.  The matched
    triples with their tilings and each chord's factor parity * direction
    (``_r3_sites``) and the sign-free part of each tiling's key depend on
    the endpoints only, so each arrangement is analysed once, and a 3-sign
    is the chord's sign times its factor.  A sign map then makes a tiling
    movable iff the three signed factors agree, and keys it by appending
    its chords' signs.  n is capped at 5 (967,680
    diagrams, about 1.3 s) to keep the walk at desk scale.
    """
    _check_chord_count(n)
    if n < 3:
        raise ValueError("census needs at least 3 chords")
    if n > 5:
        raise ValueError("census is capped at 5 chords")
    total = matched = movable = 0
    movable_orbits = set()
    for endpoints, sign_maps in _arrangements(n):
        total += len(sign_maps)
        # each tiling's sign-free key, its sign reader, its chords and their
        # factors, from the arrangement's R3 sites
        tilings = [
            (*_heads_arc_key(endpoints, arcs), labels, factors)
            for labels, found in _r3_sites(_trusted(endpoints, sign_maps[0])).items()
            for arcs, _, factors in found
        ]
        if not tilings:
            continue
        matched += len(tilings) * len(sign_maps)
        for signs in sign_maps:
            for key, read, (a, b, c), (fa, fb, fc) in tilings:
                if signs[a] * fa == signs[b] * fb == signs[c] * fc:
                    movable += 1
                    movable_orbits.add(key + read(signs))
    return CensusResult(n, total, matched, movable, len(movable_orbits))
