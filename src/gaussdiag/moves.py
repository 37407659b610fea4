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
rotation-invariant.

One integer kernel, ``_qualifying_tilings``, computes all of this from the
triple's six endpoint positions: the tilings from their sorted order, each
chord's parity from how its positions interleave with the other two
chords' and its direction from the arcs holding its ends.  ``analyze_triple``
(and through it R3 detection and ``apply_move``) and the census all call it.

Every matched triple contains two chords a, b whose heads are adjacent,
and its third chord has its tail next to a's or b's tail.  So one
candidate generator, ``_r3_candidates``, yields the at most four triples
each head adjacency gives: O(n) triples, not all C(n, 3).  Both
``r3_movable_triples`` and the census analyse only those.

``_rewrite`` checks each move's precondition before rewriting, so the
parts it returns are valid by construction: ``apply_move`` builds them
without revalidation, and the search keys them without building them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .diagram import (
    HEAD,
    TAIL,
    Endpoint,
    GaussDiagram,
    _interleaved,
    _least_rotations,
    _trusted,
    _valid_sign,
    adjacent,
    enumerate_diagrams,
    label_key,
    # not called here; imported so that perfbench/tracing.py can patch it
    make_diagram,  # noqa: F401
)


class MoveNotApplicable(Exception):
    """The move's precondition fails on the target diagram."""


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
        pair = tuple(sorted(self.chords, key=label_key))
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
        triple = tuple(sorted(self.chords, key=label_key))
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


def r1_removable_chords(d: GaussDiagram) -> list:
    """Chords whose head and tail are adjacent, ordered by the position
    where the adjacent pair starts (the p of the (p, p+1) adjacency)."""
    m = len(d.endpoints)
    out = []
    for p in range(m):
        if d.endpoints[p].chord == d.endpoints[(p + 1) % m].chord:
            if d.endpoints[p].chord not in out:
                out.append(d.endpoints[p].chord)
    return out


def _r2_blocker(d: GaussDiagram, a: str, b: str):
    """Why chords a and b are not an R2 site, or None when they are."""
    if d.signs[a] == d.signs[b]:
        return f"chords {a} and {b} have the same sign"
    if not adjacent(d, d.head_position(a), d.head_position(b)):
        return f"heads of chords {a} and {b} are not adjacent"
    if not adjacent(d, d.tail_position(a), d.tail_position(b)):
        return f"tails of chords {a} and {b} are not adjacent"
    return None


def r2_removable_pairs(d: GaussDiagram) -> list:
    """Unordered pairs {a, b} with adjacent heads, adjacent tails, and
    opposite signs; ordered by their sorted endpoint positions."""
    def order(c):  # label_key order; equal keys ("2", "02") by first appearance
        return label_key(c), d.positions_of(c)[0]

    found = []
    # every R2 site has adjacent heads; adjacent heads never share a chord
    for p in range(len(d.endpoints)):
        x, y = d.endpoints[p - 1], d.endpoints[p]
        if x.role == y.role == HEAD and _r2_blocker(d, x.chord, y.chord) is None:
            a, b = sorted((x.chord, y.chord), key=order)
            found.append((sorted(d.positions_of(a) + d.positions_of(b)), (a, b)))
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


def analyze_triple(d: GaussDiagram, triple) -> TripleAnalysis:
    """Full matched/movable analysis of a chord triple.

    The triple is matched iff at least one tiling qualifies (see
    _qualifying_tilings) and movable iff some qualifying tiling has all
    three 3-signs equal.  The reported arcs and numbers come from the
    witness: the first movable tiling, else the first qualifying one.
    """
    labels = tuple(dict.fromkeys(triple))
    if len(labels) != 3:
        raise ValueError(f"need three distinct chords, got {tuple(triple)!r}")
    for c in labels:
        d.sign_of(c)
    qualifying = _qualifying_tilings(d, labels)
    if not qualifying:
        return TripleAnalysis(False, False, None, None, None, {})
    witness = next((w for w in qualifying if w[2]), qualifying[0])
    (heads, tails, mixed), numbers, movable = witness
    return TripleAnalysis(
        matched=True,
        movable=movable,
        heads_arc=heads,
        tails_arc=tails,
        mixed_arc=mixed,
        chords=numbers,
    )


def _r3_candidates(d: GaussDiagram) -> set:
    """Candidate R3 triples, as frozensets of labels: every matched triple,
    and few others.

    Candidates come from head adjacencies.  A qualifying tiling pairs the
    heads of two chords a, b on its heads arc, so the third chord c has its
    head on the mixed arc, next to a tail of a or b, and its tail on the
    tails arc (the mixed arc joins two distinct chords), next to the other
    tail of a or b.  So c's tail is a cyclic neighbour of a's or b's tail:
    at most four candidates per head adjacency, O(n) triples in all.
    """
    eps = d.endpoints
    m = len(eps)
    pos = d._pos
    candidates = set()
    for p in range(m):
        x, y = eps[p - 1], eps[p]
        if x.role == y.role == HEAD:
            a, b = x.chord, y.chord
            for t in (pos[a][TAIL], pos[b][TAIL]):
                for z in (eps[t - 1], eps[(t + 1) % m]):
                    c = z.chord
                    if z.role == TAIL and c != a and c != b:
                        candidates.add(frozenset((a, b, c)))
    return candidates


def r3_movable_triples(d: GaussDiagram) -> list:
    """All movable triples, as label tuples in sorted order.

    Each of the ``_r3_candidates`` is analysed in full.  Triples and the
    list follow the rank of each label in ``sorted(d.chords(),
    key=label_key)``, i.e. ``itertools.combinations`` order, with labels of
    equal key (such as "1" and "01") in order of first appearance.
    """
    labels = sorted(d.chords(), key=label_key)
    rank = {c: i for i, c in enumerate(labels)}
    out = []
    for ranks in sorted(sorted(map(rank.__getitem__, t)) for t in _r3_candidates(d)):
        triple = tuple(labels[i] for i in ranks)
        if analyze_triple(d, triple).movable:
            out.append(triple)
    return out


def _fresh_labels(d: GaussDiagram, count: int) -> list:
    out = []
    k = 1
    while len(out) < count:
        if str(k) not in d.signs:
            out.append(str(k))
        k += 1
    return out


def _check_chords(d: GaussDiagram, chords):
    for c in chords:
        if c not in d.signs:
            raise MoveNotApplicable(f"chord {c} not in diagram")


def _check_gap(d: GaussDiagram, gap: int):
    """Gaps are exact ints (no bool, no float) in 0..max(1, 2n) - 1."""
    limit = max(1, len(d.endpoints))
    if type(gap) is not int or not 0 <= gap < limit:
        raise MoveNotApplicable(f"invalid gap {gap!r}: valid gaps are 0..{limit - 1}")


def apply_move(d: GaussDiagram, move: Move) -> GaussDiagram:
    """Apply one move, or raise MoveNotApplicable naming the failed condition.

    The result is ``_rewrite``'s parts, which its checks make valid by
    construction, built through ``_trusted``."""
    return _trusted(*_rewrite(d, move))


# chords each move kind adds (or, negative, removes)
_CHORD_CHANGE = {R1Delete: -1, R2Delete: -2, R3: 0, R1Insert: 1, R2Insert: 2}


def _rewrite(d: GaussDiagram, move: Move) -> tuple:
    """The parts (endpoints, signs) of ``apply_move(d, move)``, without the
    diagram: every precondition is checked here, so the search can key a
    child it never builds.  Raises MoveNotApplicable like apply_move."""
    if isinstance(move, R1Delete):
        c = move.chord
        _check_chords(d, (c,))
        t, h = d.tail_position(c), d.head_position(c)
        if not adjacent(d, t, h):
            raise MoveNotApplicable(
                f"chord {c} endpoints are not adjacent (positions {t} and {h})"
            )
        eps = [ep for ep in d.endpoints if ep.chord != c]
        signs = {k: v for k, v in d.signs.items() if k != c}
        return eps, signs

    if isinstance(move, R2Delete):
        a, b = move.chords
        _check_chords(d, move.chords)
        blocker = _r2_blocker(d, a, b)
        if blocker is not None:
            raise MoveNotApplicable(blocker)
        eps = [ep for ep in d.endpoints if ep.chord not in (a, b)]
        signs = {k: v for k, v in d.signs.items() if k not in (a, b)}
        return eps, signs

    if isinstance(move, R1Insert):
        _check_gap(d, move.gap)
        if not _valid_sign(move.sign):
            raise MoveNotApplicable(f"sign must be +1 or -1, got {move.sign!r}")
        (lab,) = _fresh_labels(d, 1)
        block = (
            [Endpoint(lab, HEAD), Endpoint(lab, TAIL)]
            if move.head_first
            else [Endpoint(lab, TAIL), Endpoint(lab, HEAD)]
        )
        eps = list(d.endpoints)
        eps[move.gap : move.gap] = block
        signs = dict(d.signs)
        signs[lab] = move.sign
        return eps, signs

    if isinstance(move, R2Insert):
        _check_gap(d, move.head_gap)
        _check_gap(d, move.tail_gap)
        if not _valid_sign(move.first_sign):
            raise MoveNotApplicable(f"sign must be +1 or -1, got {move.first_sign!r}")
        x, y = _fresh_labels(d, 2)
        heads_block = [Endpoint(x, HEAD), Endpoint(y, HEAD)]
        tails_block = (
            [Endpoint(x, TAIL), Endpoint(y, TAIL)]
            if move.crossed
            else [Endpoint(y, TAIL), Endpoint(x, TAIL)]
        )
        eps = list(d.endpoints)
        if move.head_gap == move.tail_gap:
            eps[move.head_gap : move.head_gap] = tails_block + heads_block
        elif move.head_gap > move.tail_gap:
            eps[move.head_gap : move.head_gap] = heads_block
            eps[move.tail_gap : move.tail_gap] = tails_block
        else:
            eps[move.tail_gap : move.tail_gap] = tails_block
            eps[move.head_gap : move.head_gap] = heads_block
        signs = dict(d.signs)
        signs[x] = move.first_sign
        signs[y] = -move.first_sign
        return eps, signs

    if isinstance(move, R3):
        _check_chords(d, move.chords)
        analysis = analyze_triple(d, move.chords)
        if not analysis.matched:
            raise MoveNotApplicable(f"triple {move.chords} is not matched")
        if not analysis.movable:
            raise MoveNotApplicable(
                f"triple {move.chords} is matched but its 3-signs differ"
            )
        eps = list(d.endpoints)
        for a, b in (analysis.heads_arc, analysis.tails_arc, analysis.mixed_arc):
            eps[a], eps[b] = eps[b], eps[a]
        return eps, d.signs

    raise MoveNotApplicable(f"unknown move {move!r}")


def enumerate_moves(d: GaussDiagram, include_insertions: bool = False) -> list:
    """All applicable moves: R1 deletions, R2 deletions, R3 triples, then
    (optionally) every parameterized insertion."""
    moves = [R1Delete(c) for c in r1_removable_chords(d)]
    moves += [R2Delete(pair) for pair in r2_removable_pairs(d)]
    moves += [R3(t) for t in r3_movable_triples(d)]
    if include_insertions:
        moves += _insertion_moves(d, 2)
    return moves


def _insertion_moves(d: GaussDiagram, room: int):
    """The insertions that add at most ``room`` chords, in
    ``enumerate_moves`` order: every R1 insertion when room >= 1, then
    every R2 insertion when room >= 2."""
    gaps = range(max(1, len(d.endpoints)))
    if room >= 1:
        for gap in gaps:
            for sign in (1, -1):
                for head_first in (True, False):
                    yield R1Insert(gap, sign, head_first)
    if room >= 2:
        for head_gap in gaps:
            for tail_gap in gaps:
                for sign in (1, -1):
                    for crossed in (True, False):
                        yield R2Insert(head_gap, tail_gap, sign, crossed)


# ---------------------------------------------------------------- move specs

_SIGN_TEXT = {1: "+", -1: "-"}


def format_move(move: Move) -> str:
    """Compact one-line spec, the CLI's move syntax."""
    if isinstance(move, R1Delete):
        return f"r1:del:{move.chord}"
    if isinstance(move, R1Insert):
        order = "hf" if move.head_first else "tf"
        return f"r1:ins:{move.gap}:{_SIGN_TEXT[move.sign]}:{order}"
    if isinstance(move, R2Delete):
        return "r2:del:{},{}".format(*move.chords)
    if isinstance(move, R2Insert):
        pattern = "x" if move.crossed else "u"
        return f"r2:ins:{move.head_gap}:{move.tail_gap}:{_SIGN_TEXT[move.first_sign]}:{pattern}"
    if isinstance(move, R3):
        return "r3:{},{},{}".format(*move.chords)
    raise ValueError(f"unknown move {move!r}")


def _parse_sign(text: str, spec: str) -> int:
    if text == "+":
        return 1
    if text == "-":
        return -1
    raise ValueError(f"move spec {spec!r}: sign must be + or -, got {text!r}")


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
        if len(parts) != 3:
            raise ValueError(f"move spec {spec!r}: r2:del needs chord,chord")
        chords = parts[2].split(",")
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
        if len(parts) != 2:
            raise ValueError(f"move spec {spec!r}: r3 needs chord,chord,chord")
        chords = parts[1].split(",")
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


def _configuration_orbit_key(d: GaussDiagram, arcs) -> tuple:
    """Rotation-invariant key for a (diagram, qualifying tiling) pair.

    Minimises, over all rotations, the label-free diagram encoding paired
    with the rotated arc positions, so two configurations share a key iff
    some rotation carries one diagram onto the other and the tiling along
    with it.
    """
    m = len(d.endpoints)
    code, shifts = _least_rotations(d.endpoints, d.signs)
    return code, min(
        tuple(sorted(((a - k) % m, (b - k) % m) for a, b in arcs)) for k in shifts
    )


def census_movable_triples(n: int) -> CensusResult:
    """Exhaustive triple-configuration census over every n-chord diagram.

    A configuration is a (diagram, triple, qualifying tiling) choice; a
    triple contributes one configuration per qualifying tiling (two only
    when the triple's endpoints fill the whole circle).  Counts matched
    configurations, movable ones (all three 3-signs equal), and the
    movable configurations up to rotation of the underlying diagram.
    Only ``_r3_candidates`` are analysed; every other triple has no
    qualifying tiling.  n is capped at 5 to keep (2n-1)!! * 4^n
    enumeration at desk scale.
    """
    if n < 3:
        raise ValueError("census needs at least 3 chords")
    if n > 5:
        raise ValueError("census is capped at 5 chords")
    total = matched = movable = 0
    movable_orbits = set()
    for d in enumerate_diagrams(n):
        total += 1
        for triple in _r3_candidates(d):
            for arcs, _numbers, is_movable in _qualifying_tilings(d, triple):
                matched += 1
                if is_movable:
                    movable += 1
                    movable_orbits.add(_configuration_orbit_key(d, arcs))
    return CensusResult(n, total, matched, movable, len(movable_orbits))
