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
and R2 insertions.  The specs, ``enumerate_moves`` and the search read each
kind from it.

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
adjacencies of an R2 pair.  So each detector is a sign-free find from
``sites`` and a signed filter here, and one integer kernel,
``sites._tilings``, gives a triple's sign-free numbers to the R3 finds,
the rewrite, the search's R3 walk and, with the signs added, the public
report ``analyze_triple``.

Every precondition is an adjacency, read one way (see ``sites``):
``diagram._adjacent`` on two positions from the diagram's position map.
The validating accessors (``adjacent``, ``sign_of`` and the position
getters) are for outside callers; here only ``analyze_triple``, the
public report, calls them.  The chords a move names are outside input, so
``_check_chords`` guards them before any lookup.

A move is one positional edit of the endpoints, checked once by
``_rewrite``: a deletion cuts its chords' positions, an insertion splices
its blocks in at its gaps, and an R3 swaps the arcs of its first movable
tiling.  An insertion's blocks are the shared endpoints of
``diagram._TAILS`` and ``_HEADS``, so no move makes an ``Endpoint``, and
``_insertion_blocks`` is the one place that says what an insertion puts
in, in what order and with which signs.  The search keys children from
``_family_rows``, which makes the same edits on a parent's
``diagram._rows`` with no check and no move built.  So two codes splice:
``_edited`` for the one child ``apply_move`` builds, and the walk, which
joins slices of the parent's rows around each child's blocks, for the many
children that share a parent's slices.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Mapping
from types import MappingProxyType

from .diagram import (
    GaussDiagram,
    _HEADS,
    _TAILS,
    _adjacent,
    _arrangements,
    _assemble,
    _check_int,
    _positions,
    _Record,
    _Table,
    _rows,
    _set,
    _trusted,
    _valid_sign,
    label_key,
    valid_label,
)
# not called here; imported so that perfbench/tracing.py can patch them
from .diagram import enumerate_diagrams, make_diagram  # noqa: F401
from .sites import _r1_sites, _r2_sites, _r3_sites, _sign_free, _tilings


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
        super().__init__(sign, parity, direction, three_sign)


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
        super().__init__(matched, movable, heads_arc, tails_arc, mixed_arc, chords)


def r1_removable_chords(d: GaussDiagram) -> list:
    """Chords whose head and tail are adjacent, ordered by the position
    where the adjacent pair starts (the p of the (p, p+1) adjacency): the
    ``_r1_sites``, which need no sign test."""
    return list(_sign_free(d, _r1_sites))


def r2_removable_pairs(d: GaussDiagram) -> list:
    """Unordered pairs {a, b} with adjacent heads, adjacent tails, and
    opposite signs; ordered by their sorted endpoint positions, each pair
    in ``label_key`` order: the ``_r2_sites`` of opposite signs."""
    signs = d.signs
    return [pair for pair in _sign_free(d, _r2_sites) if signs[pair[0]] != signs[pair[1]]]


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
    signs = [d.signs[c] for c in labels]
    # a factor is parity * direction, so a chord's direction is parity * factor
    return [
        (arcs, {c: ChordNumbers(sign, p, p * f, sign * f)
                for c, sign, p, f in zip(labels, signs, parities, factors)},
         len({sign * f for sign, f in zip(signs, factors)}) == 1)
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
    ``_insertion_blocks`` as they are.  R3 swaps the three
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
        a, b = gone = move.chords
        if d.signs[a] == d.signs[b]:
            raise MoveNotApplicable(f"chords {a} and {b} have the same sign")
        m = len(d.endpoints)
        (ta, ha), (tb, hb) = d._pos[a], d._pos[b]
        if not _adjacent(m, ha, hb):
            raise MoveNotApplicable(f"heads of chords {a} and {b} are not adjacent")
        if not _adjacent(m, ta, tb):
            raise MoveNotApplicable(f"tails of chords {a} and {b} are not adjacent")
    elif isinstance(move, (R1Insert, R2Insert)):
        _check_insertion(move, d)
        splices, add = _insertion_blocks(move._values(), _fresh_labels(d, 2))
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
        moves += [kind.move(*gaps, *variant) for kind in _KINDS if kind.change > 0
                  for gaps in _insertion_gaps(2 * d.n, kind.change) for variant in _VARIANTS]
    return moves


# the (sign, flag) of an insertion: the sign + before -, the flag True first
_VARIANTS = tuple(itertools.product((1, -1), (True, False)))


def _insertion_gaps(m: int, added: int):
    """The gaps of every insertion that adds ``added`` chords to a diagram
    with m endpoints, in order: one gap (R1), or a head gap, then a tail
    gap (R2), each in 0..max(1, m) - 1."""
    return itertools.product(range(max(1, m)), repeat=added)


def _insertion_blocks(fields, fresh) -> tuple:
    """The blocks the insertion with these fields (its gaps, then its
    variant) splices in, in the order they go in, each (gap, the added
    chords' shared endpoints in circle order), and the signs of the chords
    it adds.  R1 adds chord ``fresh[0]``, its head first when the flag is
    set.  R2 adds x = ``fresh[0]``, signed first_sign, and y =
    ``fresh[1]``: heads (x, y) at the head gap and tails (x, y) if crossed
    else (y, x) at the tail gap, the later gap first (a shared gap: heads
    first, so the tails land before them)."""
    if len(fields) == 3:
        gap, sign, head_first = fields
        lab = fresh[0]
        ends = (_HEADS[lab], _TAILS[lab]) if head_first else (_TAILS[lab], _HEADS[lab])
        return ((gap, ends),), {lab: sign}
    head_gap, tail_gap, sign, crossed = fields
    x, y = fresh[0], fresh[1]
    heads = (head_gap, (_HEADS[x], _HEADS[y]))
    tails = (tail_gap, (_TAILS[x], _TAILS[y]) if crossed else (_TAILS[y], _TAILS[x]))
    blocks = (heads, tails) if head_gap >= tail_gap else (tails, heads)
    return blocks, {x: sign, y: -sign}


def _insertion_layout(gaps, fresh) -> list:
    """Each variant's ``_insertion_blocks`` at ``gaps`` as ``diagram._rows``,
    in the order the child reads them (the order they go in, reversed),
    which for R2 depends only on whether the head gap is before the tail
    gap, so the walk samples it at gaps (0, 1) and (0, 0): per variant
    (variant, its chords blocks, its bases blocks).  The walk reads it
    from ``_LAYOUTS``."""
    layout = []
    for variant in _VARIANTS:
        blocks, signs = _insertion_blocks((*gaps, *variant), fresh)
        rows = [_rows(ends, signs) for _, ends in blocks[::-1]]
        layout.append((variant, [chords for chords, _ in rows], [bases for _, bases in rows]))
    return layout


# (sample gaps, fresh labels) -> their _insertion_layout, made on first use
# and kept for the process: its blocks are shared, and no caller changes them
_LAYOUTS = _Table(lambda key: _insertion_layout(*key))


def _insertion_rows(d: GaussDiagram, change: int):
    """Each insertion of d that adds ``change`` chords, as ``_family_rows``
    yields it: each child's rows are the slices of d's rows around its
    blocks, joined.  The slices are made once per gap (R1) or (head gap,
    tail gap) pair (R2), and each variant's blocks once per process by
    ``_insertion_layout``, kept in ``_LAYOUTS`` by the sample gaps and
    the fresh labels."""
    fresh = tuple(_fresh_labels(d, 2))
    chords, bases = _rows(d.endpoints, d.signs)
    m = len(chords)
    if change == 1:
        layout = _LAYOUTS[(0,), fresh]
        for (gap,) in _insertion_gaps(m, 1):
            c0, c1, b0, b1 = chords[:gap], chords[gap:], bases[:gap], bases[gap:]
            for variant, (x,), (u,) in layout:
                yield (gap, *variant), c0 + x + c1, b0 + u + b1
        return
    # the child reads its two blocks in one of two orders: heads first when
    # the head gap is before the tail gap, else tails first, since
    # _insertion_blocks orders a later head gap's blocks as a shared gap's
    layouts = [_LAYOUTS[gaps, fresh] for gaps in ((0, 1), (0, 0))]
    for head_gap, tail_gap in _insertion_gaps(m, 2):
        lo, hi = (head_gap, tail_gap) if head_gap < tail_gap else (tail_gap, head_gap)
        c0, c1, c2 = chords[:lo], chords[lo:hi], chords[hi:]
        b0, b1, b2 = bases[:lo], bases[lo:hi], bases[hi:]
        for variant, (x, y), (u, v) in layouts[head_gap >= tail_gap]:
            yield (head_gap, tail_gap, *variant), c0 + x + c1 + y + c2, b0 + u + b1 + v + b2


def _family_rows(d: GaussDiagram, change: int, undo: tuple = ()):
    """Each move of d that adds ``change`` chords, in ``enumerate_moves``
    order, as (fields, chords, bases): the move's fields and the child's
    rows.  The family is d's R1 deletions (-1), R2 deletions (-2), R3s (0),
    R1 insertions (1) or R2 insertions (2).  An R2 deletion of exactly
    the chords ``undo`` (in ``label_key`` order) is dropped before any
    rows are made: when d was made by inserting them, it gives back d's
    parent.
    A deletion or R3 is the (cuts, arcs) edit ``_rewrite`` makes after its
    checks, applied by ``_edited`` to d's ``diagram._rows``, which are made
    only once the family has a site; an R3's arcs are its ``_movable_arcs``
    among the ``_tilings`` the kernel gives again for each triple
    ``r3_movable_triples(d)`` keeps, so no copy of d is made to share the
    detector's find.  Insertions are ``_insertion_rows``.
    The detectors found every deletion and R3 and every generated
    insertion is valid, so no site is checked again and no move is built:
    the search keys children from these, and reads the rows only."""
    if change > 0:
        return _insertion_rows(d, change)
    if change == -1:
        sites = [((c,), _cuts(d, (c,)), ()) for c in r1_removable_chords(d)]
    elif change == -2:
        sites = [((pair,), _cuts(d, pair), ()) for pair in r2_removable_pairs(d) if pair != undo]
    else:
        sites = [((t,), (), _movable_arcs(d.signs, t, _tilings(d, t))) for t in r3_movable_triples(d)]
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
    starts with, then its fields in order.  Errors name a spec that is not
    a str, a wrong field count, the malformed field, and a well-formed
    spec's invalid chord label."""
    if not isinstance(spec, str):
        raise ValueError(f"move spec {spec!r} is not a str")
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
        super().__init__(chords, total, matched, movable, movable_up_to_rotation)


def census_movable_triples(n: int) -> CensusResult:
    """Exhaustive triple-configuration census over every n-chord diagram.

    A configuration is a (diagram, triple, qualifying tiling) choice; a
    triple contributes one configuration per qualifying tiling (two only
    when the triple's endpoints fill the whole circle).  Counts matched
    configurations, movable ones (all three 3-signs equal), and the
    movable configurations up to rotation of the underlying diagram.

    The 2n rotations act freely on configurations: a configuration has
    exactly one heads arc, and a rotation other than the identity moves
    it.  So every class holds 2n configurations, and there are
    movable / 2n of them.

    The (2n-1)!! * 4^n diagrams are walked as the (2n-1)!! * 2^n endpoint
    ``diagram._arrangements`` times their 2^n sign maps.  The matched
    triples with their tilings and each chord's factor parity * direction
    (``_r3_sites``) depend on the endpoints only, so each arrangement is
    analysed once, and a 3-sign is the chord's sign times its factor.  A
    sign map then makes a tiling movable iff the three signed factors
    agree.  n is capped at 5 (967,680 diagrams, about 0.55 s) to keep the
    walk at desk scale.
    """
    _check_int(n, "chord count")
    if n < 3:
        raise ValueError("census needs at least 3 chords")
    if n > 5:
        raise ValueError("census is capped at 5 chords")
    total = matched = movable = 0
    for endpoints, sign_maps in _arrangements(n):
        total += len(sign_maps)
        # each tiling's chords and their factors, from the arrangement's R3 sites
        sites = _r3_sites(_trusted(endpoints, sign_maps[0]))
        tilings = [(labels, factors) for labels, found in sites.items() for _, _, factors in found]
        matched += len(tilings) * len(sign_maps)
        for signs in sign_maps:
            for (a, b, c), (fa, fb, fc) in tilings:
                if signs[a] * fa == signs[b] * fb == signs[c] * fc:
                    movable += 1
    return CensusResult(n, total, matched, movable, movable // (2 * n))
