"""Differential tests: the least-rotation scan, the adjacency test, R1
detection, deletion and insertion, the shared R2 precondition, the R2
insertion, the head-adjacency R3 detector and its candidates, diagram
enumeration, the census by endpoint arrangement, the positional
triple-analysis kernel and the R3 rewrite read from it, the unvalidated
rewrite constructor, the code-keyed search and its insertion generation,
the rewrite, and the search's one walk over a move family against the
code they replaced.

The oracles below are the earlier implementations, kept verbatim: a
``canonical`` and a census orbit key that rebuild the diagram for every
one of the 2n rotations, the tuple-encoded least-rotation scan and the
canonical code spelled from it, ``adjacent`` and the R1 detector and
deletion that walked positions by index, an R2 detector that tests every
chord pair, the R1 insertion and the three-branch R2 insertion, each with
its own gap and sign checks, an R3 detector that analyses
every one of the C(n, 3) triples, the wider R3 candidate generator that
kept every chord with a tail beside a tail of a head adjacency, the
diagram enumeration that made each diagram in one loop, the census that
analysed every diagram alone, the R3 rewrite that read its arcs from
``analyze_triple``, the triple analysis that classified each tiling and
took every chord's parity from ``chords_cross`` per pair,
``enumerate_moves`` building every insertion inline,
``oracle_simplify``, the search that built and serialized a canonical
diagram for every child and filtered insertions one by one, and
``oracle_rewrite``, the rewrite that built each child's endpoint list and
sign dict (with its removal, its splice and its fresh-label loop), the
insertion generator that took the room left for chords
(``oracle_insertion_moves``), and the two walks the search keyed children
by: ``oracle_detected_rows`` over a deletion or R3 family and
``oracle_spliced_rows``, which spliced an insertion family by tuple
concatenation. The program
must agree with them on the exhaustive n <= 4 corpus and the seeded
random corpus (the orbit key on every movable configuration at n = 3 and
n = 4; the least-rotation scan also on seeded diagrams of 16 to 64
chords and on rotationally symmetric ones, and within a time bound on a
3,000-chord periodic chain; ``adjacent`` on every position pair,
out-of-range ones included, with n <= 3; the R1 insertion on every gap,
sign and order and the R2 insertion on every gap pair, sign and pattern
with n <= 2; the R3 lists also on larger seeded
diagrams; the search on every diagram with n <= 3, with insertions on
n <= 2, and on seeded diagrams with 5 to 10 chords, and stopped after a
few expansions, with insertions, on n <= 2 and on seeded diagrams with 3
and 4 chords; the moves the search keys on every diagram with n <= 3 at
room 0, 1 and 2; the triple analysis and the R3 rewrite on every triple
in every label order with n <= 3, every triple the wider candidate
generator yields at n = 4 and every triple of the seeded corpus; the
enumeration for n <= 4 and the census at n = 3 and 4; the rewrite, and
the walk's rows of each applicable move, on every deletion and R3,
applicable or not, with n <= 3 and on the seeded corpus, every applicable
one with n = 4, every insertion with n <= 2 and every insertion that fits
two chords of the seeded three-chord diagrams; the walk over each
deletion and R3 family against ``enumerate_moves`` and the rewrite on
every diagram of both corpora, over each insertion family likewise with
n <= 3 and on the seeded three-chord diagrams, and over every family
against the two walks it replaced with n <= 3 and on the seeded corpus).
Results that internal rewrites and the Gauss-code parser build without
validation must equal the same parts rebuilt through ``make_diagram``.
"""

from __future__ import annotations

import heapq
import importlib
import itertools
import random
import time
from types import MappingProxyType, SimpleNamespace

import pytest

from gaussdiag import (
    CensusResult,
    ChordNumbers,
    Endpoint,
    GaussDiagram,
    MoveNotApplicable,
    R1Delete,
    R1Insert,
    R2Delete,
    R2Insert,
    R3,
    SearchLimits,
    SimplifyResult,
    adjacent,
    analyze_triple,
    apply_move,
    canonical,
    census_movable_triples,
    chords_cross,
    enumerate_diagrams,
    enumerate_moves,
    format_move,
    make_diagram,
    parse_gauss_code,
    r1_removable_chords,
    r2_removable_pairs,
    r3_movable_triples,
    random_diagram,
    rotate,
    serialize_gauss_code,
    simplify,
)
from gaussdiag.codec import _canonical_code, _token
from gaussdiag.diagram import (
    HEAD,
    TAIL,
    _adjacent,
    _entry_parts,
    _least_rotations,
    _matchings,
    _rows,
    label_key,
)
from gaussdiag.moves import (
    _check_chords,
    _check_insertion,
    _edited,
    _family_rows,
    _fresh_labels,
    _heads_arc_key,
    _insertion_blocks,
    _insertion_fields,
    _qualifying_tilings,
    _r2_blocker,
    _r3_candidates,
    _rewrite,
    _witness,
)

# ------------------------------------------------------------------ oracles


def _encode(d: GaussDiagram):
    """Relabel chords 1..n by first appearance and encode each endpoint as
    (role O<U, chord number, sign +<-); the key for canonical comparison."""
    mapping = {}
    for ep in d.endpoints:
        if ep.chord not in mapping:
            mapping[ep.chord] = len(mapping) + 1
    enc = tuple(
        (
            0 if ep.role == TAIL else 1,
            mapping[ep.chord],
            0 if d.signs[ep.chord] > 0 else 1,
        )
        for ep in d.endpoints
    )
    return enc, mapping


def oracle_canonical(d: GaussDiagram) -> GaussDiagram:
    """Canonical representative under rotation and relabeling.

    Among all 2n rotations, relabel chords by order of first appearance and
    keep the rotation whose encoded endpoint sequence is lexicographically
    least.  Idempotent and rotation-invariant; mirror images are NOT
    identified.
    """
    if d.n == 0:
        return d
    best = None
    for k in range(len(d.endpoints)):
        rot = rotate(d, k)
        enc, mapping = _encode(rot)
        if best is None or enc < best[0]:
            best = (enc, rot, mapping)
    _, rot, mapping = best
    relabel = {old: str(new) for old, new in mapping.items()}
    endpoints = tuple(Endpoint(relabel[ep.chord], ep.role) for ep in rot.endpoints)
    signs = {relabel[c]: s for c, s in rot.signs.items()}
    return make_diagram(endpoints, signs)


def oracle_configuration_orbit_key(d: GaussDiagram, arcs) -> tuple:
    """Rotation-invariant key for a (diagram, qualifying tiling) pair.

    Minimises, over all rotations, the label-free diagram encoding paired
    with the rotated arc positions, so two configurations share a key iff
    some rotation carries one diagram onto the other and the tiling along
    with it.
    """
    m = len(d.endpoints)
    pair_positions = tuple((a, b) for a, b in arcs)
    best = None
    for k in range(m):
        code = _encode(rotate(d, k))[0]
        shifted = tuple(sorted(((a - k) % m, (b - k) % m) for a, b in pair_positions))
        key = (code, shifted)
        if best is None or key < best:
            best = key
    return best


def oracle_least_rotations(d: GaussDiagram):
    """The least encoding of d over its rotations, and every shift k whose
    rotation (basepoint at position k) attains it.  Each endpoint encodes
    as (role O<U, chord number by first appearance, sign +<-).  The empty
    diagram has encoding None and no shifts."""
    eps = d.endpoints
    m = len(eps)
    keys = [(0 if ep.role == TAIL else 1, 0 if d.signs[ep.chord] > 0 else 1) for ep in eps]
    # A least encoding starts with (tail, 1, +), or (tail, 1, -) when no
    # chord is positive, so only rotations starting there can attain it.
    first = min(keys, default=None)
    best, shifts = None, []
    for k in [k for k in range(m) if keys[k] == first]:
        numbers, code = {}, []
        less = best is None
        for i in range(m):
            p = (k + i) % m
            role, negative = keys[p]
            entry = (role, numbers.setdefault(eps[p].chord, len(numbers) + 1), negative)
            if not less:
                if entry > best[i]:
                    break
                less = entry < best[i]
            code.append(entry)
        else:  # no break: this rotation ties with or beats best
            if less:
                best, shifts = tuple(code), []
            shifts.append(k)
    return best, shifts


def oracle_canonical_code(d: GaussDiagram) -> str:
    """serialize_gauss_code(canonical(d)), spelled straight from the
    least-rotation encoding without building the canonical diagram."""
    code = oracle_least_rotations(d)[0]
    if code is None:
        return ""
    return " ".join(_token(head, str(number), negative) for head, number, negative in code)


def oracle_enumerate_moves(d: GaussDiagram, include_insertions: bool = False) -> list:
    """All applicable moves: R1 deletions, R2 deletions, R3 triples, then
    (optionally) every parameterized insertion."""
    moves = [R1Delete(c) for c in r1_removable_chords(d)]
    moves += [R2Delete(pair) for pair in r2_removable_pairs(d)]
    moves += [R3(t) for t in r3_movable_triples(d)]
    if include_insertions:
        gaps = range(max(1, len(d.endpoints)))
        for gap in gaps:
            for sign in (1, -1):
                for head_first in (True, False):
                    moves.append(R1Insert(gap, sign, head_first))
        for head_gap in gaps:
            for tail_gap in gaps:
                for sign in (1, -1):
                    for crossed in (True, False):
                        moves.append(R2Insert(head_gap, tail_gap, sign, crossed))
    return moves


def oracle_r2_removable_pairs(d: GaussDiagram) -> list:
    """Unordered pairs {a, b} with adjacent heads, adjacent tails, and
    opposite signs; ordered by their sorted endpoint positions."""
    m = len(d.endpoints)
    found = []
    labels = d.chords()
    for a, b in itertools.combinations(sorted(labels, key=label_key), 2):
        if d.signs[a] == d.signs[b]:
            continue
        ha, hb = d.head_position(a), d.head_position(b)
        ta, tb = d.tail_position(a), d.tail_position(b)
        if (hb - ha) % m not in (1, m - 1):
            continue
        if (tb - ta) % m not in (1, m - 1):
            continue
        found.append((tuple(sorted((ha, hb, ta, tb))), (a, b)))
    found.sort()
    return [pair for _, pair in found]


def oracle_r2_delete(d: GaussDiagram, move: R2Delete) -> GaussDiagram:
    """The R2Delete branch of the earlier apply_move."""
    m = len(d.endpoints)
    a, b = move.chords
    for c in (a, b):
        if c not in d.signs:
            raise MoveNotApplicable(f"chord {c} not in diagram")
    if d.signs[a] == d.signs[b]:
        raise MoveNotApplicable(f"chords {a} and {b} have the same sign")
    ha, hb = d.head_position(a), d.head_position(b)
    if (hb - ha) % m not in (1, m - 1):
        raise MoveNotApplicable(f"heads of chords {a} and {b} are not adjacent")
    ta, tb = d.tail_position(a), d.tail_position(b)
    if (tb - ta) % m not in (1, m - 1):
        raise MoveNotApplicable(f"tails of chords {a} and {b} are not adjacent")
    eps = [ep for ep in d.endpoints if ep.chord not in (a, b)]
    signs = {k: v for k, v in d.signs.items() if k not in (a, b)}
    return make_diagram(eps, signs)


def oracle_adjacent(d: GaussDiagram, p: int, q: int) -> bool:
    """True iff positions p and q are cyclically consecutive in d."""
    m = len(d.endpoints)
    if m == 0:
        raise ValueError("empty diagram has no positions")
    for x in (p, q):
        if not 0 <= x < m:
            raise ValueError(f"position {x} out of range for {m} endpoints")
    if p == q:
        raise ValueError("positions must differ")
    return q == (p + 1) % m or p == (q + 1) % m


def oracle_r1_removable_chords(d: GaussDiagram) -> list:
    """Chords whose head and tail are adjacent, ordered by the position
    where the adjacent pair starts (the p of the (p, p+1) adjacency)."""
    m = len(d.endpoints)
    out = []
    for p in range(m):
        if d.endpoints[p].chord == d.endpoints[(p + 1) % m].chord:
            if d.endpoints[p].chord not in out:
                out.append(d.endpoints[p].chord)
    return out


def oracle_r1_delete(d: GaussDiagram, move: R1Delete) -> GaussDiagram:
    """The R1Delete branch of the earlier apply_move."""
    c = move.chord
    if c not in d.signs:
        raise MoveNotApplicable(f"chord {c} not in diagram")
    t, h = d.tail_position(c), d.head_position(c)
    if not oracle_adjacent(d, t, h):
        raise MoveNotApplicable(
            f"chord {c} endpoints are not adjacent (positions {t} and {h})"
        )
    eps = [ep for ep in d.endpoints if ep.chord != c]
    signs = {k: v for k, v in d.signs.items() if k != c}
    return make_diagram(eps, signs)


def oracle_r1_insert(d: GaussDiagram, move: R1Insert) -> GaussDiagram:
    """The R1Insert branch of the earlier apply_move, with its gap and sign
    checks and its fresh label."""
    limit = max(1, len(d.endpoints))
    if type(move.gap) is not int or not 0 <= move.gap < limit:
        raise MoveNotApplicable(f"invalid gap {move.gap!r}: valid gaps are 0..{limit - 1}")
    if not (type(move.sign) is int and move.sign in (1, -1)):
        raise MoveNotApplicable(f"sign must be +1 or -1, got {move.sign!r}")
    (lab,) = itertools.islice((str(k) for k in itertools.count(1) if str(k) not in d.signs), 1)
    block = (
        [Endpoint(lab, HEAD), Endpoint(lab, TAIL)]
        if move.head_first
        else [Endpoint(lab, TAIL), Endpoint(lab, HEAD)]
    )
    eps = list(d.endpoints)
    eps[move.gap : move.gap] = block
    signs = dict(d.signs)
    signs[lab] = move.sign
    return make_diagram(eps, signs)


def oracle_r2_insert(d: GaussDiagram, move: R2Insert) -> GaussDiagram:
    """The R2Insert branch of the earlier apply_move, with its gap and
    sign checks and its fresh labels."""
    limit = max(1, len(d.endpoints))
    for gap in (move.head_gap, move.tail_gap):
        if type(gap) is not int or not 0 <= gap < limit:
            raise MoveNotApplicable(f"invalid gap {gap!r}: valid gaps are 0..{limit - 1}")
    if not (type(move.first_sign) is int and move.first_sign in (1, -1)):
        raise MoveNotApplicable(f"sign must be +1 or -1, got {move.first_sign!r}")
    x, y = itertools.islice((str(k) for k in itertools.count(1) if str(k) not in d.signs), 2)
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
    return make_diagram(eps, signs)


def oracle_r3_rewrite(d: GaussDiagram, move: R3) -> GaussDiagram:
    """The R3 branch of the earlier apply_move, through analyze_triple."""
    for c in move.chords:
        if c not in d.signs:
            raise MoveNotApplicable(f"chord {c} not in diagram")
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
    return make_diagram(eps, d.signs)


def oracle_r3_movable_triples(d: GaussDiagram) -> list:
    """All movable triples, as label tuples in sorted order."""
    labels = sorted(d.chords(), key=label_key)
    out = []
    for triple in itertools.combinations(labels, 3):
        if analyze_triple(d, triple).movable:
            out.append(triple)
    return out


def oracle_r3_candidates(d: GaussDiagram) -> set:
    """Candidate R3 triples, as frozensets of labels: every matched triple,
    and few others: for each head adjacency a, b, each chord whose tail is
    a cyclic neighbour of a's or b's tail."""
    eps = d.endpoints
    m = len(eps)
    pos = d._pos
    candidates = set()
    for x, y in zip(eps, eps[1:] + eps[:1]):
        if x.role == y.role == HEAD:
            a, b = x.chord, y.chord
            for t in (pos[a][TAIL], pos[b][TAIL]):
                for z in (eps[t - 1], eps[(t + 1) % m]):
                    c = z.chord
                    if z.role == TAIL and c != a and c != b:
                        candidates.add(frozenset((a, b, c)))
    return candidates


def oracle_enumerate_diagrams(n: int):
    """Every diagram on 2n positions with chords labeled 1..n by first
    appearance: all perfect matchings x orientations x signs."""
    labels = [str(i + 1) for i in range(n)]
    ends = [(Endpoint(lab, TAIL), Endpoint(lab, HEAD)) for lab in labels]
    sign_maps = [dict(zip(labels, signs)) for signs in itertools.product((1, -1), repeat=n)]
    for matching in _matchings(list(range(2 * n))):
        for tails in itertools.product((0, 1), repeat=n):
            eps = [None] * (2 * n)
            for (p, q), (tail, head), t in zip(matching, ends, tails):
                tp, hp = (p, q) if t == 0 else (q, p)
                eps[tp] = tail
                eps[hp] = head
            eps = tuple(eps)
            for signs in sign_maps:
                yield make_diagram(eps, signs)


def oracle_census(n: int) -> CensusResult:
    """The census walked diagram by diagram: every candidate triple of
    every diagram analysed, and every movable configuration keyed alone."""
    total = matched = movable = 0
    movable_orbits = set()
    for d in oracle_enumerate_diagrams(n):
        total += 1
        for triple in oracle_r3_candidates(d):
            for arcs, _numbers, is_movable in _qualifying_tilings(d, triple):
                matched += 1
                if is_movable:
                    movable += 1
                    movable_orbits.add(oracle_configuration_orbit_key(d, arcs))
    return CensusResult(n, total, matched, movable, len(movable_orbits))


def oracle_chords_cross(d: GaussDiagram, a: str, b: str) -> bool:
    """Interleaving test: exactly one endpoint of b lies strictly inside
    the counterclockwise arc between a's endpoints.  Symmetric in a, b."""
    if a == b:
        raise ValueError("chords_cross needs two distinct chords")
    p1, p2 = d.positions_of(a)
    inside = sum(1 for q in d.positions_of(b) if p1 < q < p2)
    return inside == 1


def oracle_classify_tiling(d: GaussDiagram, pairs):
    """Check one candidate tiling (three ccw-oriented position pairs).

    Returns (heads_arc, tails_arc, mixed_arc) when every pair is adjacent
    in the full diagram and the pairs classify as exactly one heads-pair,
    one tails-pair, and one mixed pair with head and tail of distinct
    chords; otherwise None.
    """
    m = len(d.endpoints)
    heads = tails = mixed = None
    for a, b in pairs:
        if b != (a + 1) % m:
            return None
        ra, rb = d.endpoints[a].role, d.endpoints[b].role
        if ra == HEAD and rb == HEAD:
            if heads is not None:
                return None
            heads = (a, b)
        elif ra == TAIL and rb == TAIL:
            if tails is not None:
                return None
            tails = (a, b)
        else:
            if mixed is not None:
                return None
            if d.endpoints[a].chord == d.endpoints[b].chord:
                return None
            mixed = (a, b)
    if heads is None or tails is None or mixed is None:
        return None
    return heads, tails, mixed


def oracle_chord_numbers(d: GaussDiagram, triple, arcs) -> dict:
    # arcs in ccw cyclic order = ascending start position (the wrap arc,
    # if any, starts at 2n-1 and sorts last)
    ordered = sorted(arcs)
    arc_of = {}
    for idx, (a, b) in enumerate(ordered):
        arc_of[a] = idx
        arc_of[b] = idx
    numbers = {}
    for c in triple:
        i = arc_of[d.tail_position(c)]
        j = arc_of[d.head_position(c)]
        direction = 1 if j == (i + 1) % 3 else -1
        crossings = sum(1 for x in triple if x != c and oracle_chords_cross(d, c, x))
        parity = 1 if crossings % 2 == 0 else -1
        sign = d.signs[c]
        numbers[c] = ChordNumbers(
            sign=sign, parity=parity, direction=direction,
            three_sign=sign * parity * direction,
        )
    return numbers


def oracle_qualifying_tilings(d: GaussDiagram, labels) -> list:
    """Both candidate tilings of the triple's six endpoints, filtered to
    the qualifying ones; each entry is (arcs, numbers, movable).

    The six positions, sorted as q0 < ... < q5, admit exactly two tilings
    into consecutive pairs: (q0 q1)(q2 q3)(q4 q5) and (q1 q2)(q3 q4)(q5 q0).
    Both can qualify only when the six endpoints fill the whole circle.
    """
    q = sorted(p for c in labels for p in d.positions_of(c))
    candidates = (
        ((q[0], q[1]), (q[2], q[3]), (q[4], q[5])),
        ((q[1], q[2]), (q[3], q[4]), (q[5], q[0])),
    )
    out = []
    for pairs in candidates:
        arcs = oracle_classify_tiling(d, pairs)
        if arcs is None:
            continue
        numbers = oracle_chord_numbers(d, labels, arcs)
        movable = len({rec.three_sign for rec in numbers.values()}) == 1
        out.append((arcs, numbers, movable))
    return out


def oracle_fresh_labels(d: GaussDiagram, count: int) -> list:
    out = []
    k = 1
    while len(out) < count:
        if str(k) not in d.signs:
            out.append(str(k))
        k += 1
    return out


def oracle_without(d: GaussDiagram, chords) -> tuple:
    """The parts (endpoints, signs) of ``d`` with ``chords`` removed."""
    eps = [ep for ep in d.endpoints if ep.chord not in chords]
    signs = {k: v for k, v in d.signs.items() if k not in chords}
    return eps, signs


def oracle_inserted(d: GaussDiagram, blocks, new_signs) -> tuple:
    """The parts (endpoints, signs) of ``d`` with each of the one or two
    (gap, endpoints) blocks spliced in at its gap and ``new_signs`` after
    the old signs.

    The later gap goes in first, so the earlier one keeps its index.  Two
    blocks sharing a gap go in as listed, so the second lands first."""
    eps = list(d.endpoints)
    for gap, block in blocks if blocks[0][0] >= blocks[-1][0] else blocks[::-1]:
        eps[gap:gap] = block
    return eps, {**d.signs, **new_signs}


def oracle_rewrite(d: GaussDiagram, move) -> tuple:
    """The parts (endpoints, signs) of ``apply_move(d, move)``, without the
    diagram: every precondition is checked here, so the search can key a
    child it never builds.  Raises MoveNotApplicable like apply_move."""
    if isinstance(move, R1Delete):
        c = move.chord
        _check_chords(d, (c,))
        t, h = d._pos[c][TAIL], d._pos[c][HEAD]
        if not _adjacent(len(d.endpoints), t, h):
            raise MoveNotApplicable(
                f"chord {c} endpoints are not adjacent (positions {t} and {h})"
            )
        return oracle_without(d, (c,))

    if isinstance(move, R2Delete):
        a, b = move.chords
        _check_chords(d, move.chords)
        blocker = _r2_blocker(d, a, b)
        if blocker is not None:
            raise MoveNotApplicable(blocker)
        return oracle_without(d, (a, b))

    if isinstance(move, R1Insert):
        _check_insertion(d, (move.gap,), move.sign, "head_first", move.head_first)
        (lab,) = oracle_fresh_labels(d, 1)
        head, tail = Endpoint(lab, HEAD), Endpoint(lab, TAIL)
        block = [head, tail] if move.head_first else [tail, head]
        return oracle_inserted(d, [(move.gap, block)], {lab: move.sign})

    if isinstance(move, R2Insert):
        gaps = (move.head_gap, move.tail_gap)
        _check_insertion(d, gaps, move.first_sign, "crossed", move.crossed)
        x, y = oracle_fresh_labels(d, 2)
        heads = [Endpoint(x, HEAD), Endpoint(y, HEAD)]
        tails = [Endpoint(x, TAIL), Endpoint(y, TAIL)]
        blocks = [(move.head_gap, heads), (move.tail_gap, tails if move.crossed else tails[::-1])]
        return oracle_inserted(d, blocks, {x: move.first_sign, y: -move.first_sign})

    if isinstance(move, R3):
        _check_chords(d, move.chords)
        tilings = _qualifying_tilings(d, move.chords)
        if not tilings:
            raise MoveNotApplicable(f"triple {move.chords} is not matched")
        arcs, _, movable = _witness(tilings)
        if not movable:
            raise MoveNotApplicable(
                f"triple {move.chords} is matched but its 3-signs differ"
            )
        eps = list(d.endpoints)
        for a, b in arcs:
            eps[a], eps[b] = eps[b], eps[a]
        return eps, d.signs

    raise MoveNotApplicable(f"unknown move {move!r}")


def oracle_insertion_moves(d: GaussDiagram, room: int):
    """The insertions that add at most ``room`` chords, in
    ``enumerate_moves`` order: every R1 insertion when room >= 1, then
    every R2 insertion when room >= 2."""
    for added, kind in ((1, R1Insert), (2, R2Insert)):
        if room >= added:
            yield from itertools.starmap(kind, _insertion_fields(len(d.endpoints), added))


def oracle_spliced_rows(rows, fresh, added: int):
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


def oracle_detected_rows(d: GaussDiagram, change: int):
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


def oracle_simplify(d: GaussDiagram, limits: SearchLimits = SearchLimits()) -> SimplifyResult:
    """Best-first search for a minimum-chord-count diagram.

    States are deduplicated by canonical form; the frontier is ordered by
    (chord count, canonical code), which fixes the expansion order and
    makes the result deterministic for given limits.  Ties among final
    states break toward the lexicographically least canonical code.
    """
    if limits.max_states < 1:
        raise ValueError("max_states must be positive")
    max_chords = limits.max_chords if limits.max_chords is not None else d.n + 2
    if limits.allow_insertions and max_chords < d.n:
        raise ValueError("max_chords must be at least the input's chord count")

    start_canon = canonical(d)
    start_key = serialize_gauss_code(start_canon)
    # key -> (concrete diagram, parent key, move from parent, canonical form)
    info = {start_key: (d, None, None, start_canon)}
    frontier = [(d.n, start_key)]
    best = (d.n, start_key)
    explored = 0
    limit_hit = False

    while frontier:
        if explored >= limits.max_states:
            limit_hit = True
            break
        count, key = heapq.heappop(frontier)
        state = info[key][0]
        explored += 1
        if count == 0:
            break
        for move in enumerate_moves(state, include_insertions=limits.allow_insertions):
            if isinstance(move, R1Insert) and state.n + 1 > max_chords:
                continue
            if isinstance(move, R2Insert) and state.n + 2 > max_chords:
                continue
            child = apply_move(state, move)
            child_canon = canonical(child)
            child_key = serialize_gauss_code(child_canon)
            if child_key in info:
                continue
            info[child_key] = (child, key, move, child_canon)
            entry = (child.n, child_key)
            if entry < best:
                best = entry
            heapq.heappush(frontier, entry)
        if best[0] == 0:
            break  # an empty diagram was found; nothing can beat it

    steps = []
    key = best[1]
    while info[key][1] is not None:
        _, parent, move, canon = info[key]
        steps.append((move, canon))
        key = parent
    steps.reverse()
    return SimplifyResult(
        final=info[best[1]][0],
        trace=tuple(steps),
        states_explored=explored,
        limit_hit=limit_hit,
    )


# -------------------------------------------------------------------- tests


def _outcome(apply, d, move):
    try:
        return apply(d, move)
    except MoveNotApplicable as exc:
        return str(exc)


def test_canonical_matches_oracle(exhaustive_corpus, random_corpus):
    for d in exhaustive_corpus + random_corpus:
        assert canonical(d) == oracle_canonical(d), d


def _decode(code):
    """The program's least-rotation entries as the oracle's (head, number,
    negative) tuples."""
    return None if code is None else tuple(map(_entry_parts, code))


def _symmetric_diagram(block: int, copies: int, seed: int) -> GaussDiagram:
    """A diagram that rotation by 2 * block positions carries onto itself:
    ``copies`` copies of a random template of ``block`` chords, template
    chord j of copy c running from one slot of copy c to another slot of
    copy c + delta_j (mod copies), with the sign of template chord j."""
    rng = random.Random(seed)
    width = 2 * block
    slots = rng.sample(range(width), width)
    template = [
        (slots[2 * j], slots[2 * j + 1], rng.randrange(copies), rng.choice((1, -1)))
        for j in range(block)
    ]
    eps = [None] * (width * copies)
    signs = {}
    for c in range(copies):
        for j, (tail_slot, head_slot, delta, sign) in enumerate(template):
            label = str(c * block + j + 1)
            eps[c * width + tail_slot] = Endpoint(label, TAIL)
            eps[(c + delta) % copies * width + head_slot] = Endpoint(label, HEAD)
            signs[label] = sign
    return make_diagram(eps, signs)


def test_least_rotations_match_oracle(exhaustive_corpus, random_corpus):
    large = [random_diagram(n, 30_000 + 100 * n + s) for n in range(16, 65) for s in range(3)]
    symmetric = [
        _symmetric_diagram(block, copies, seed)
        for block in range(1, 7) for copies in range(2, 7) for seed in range(4)
    ]
    symmetric += [parse_gauss_code("O1+ U1+ O2+ U2+ O3+ U3+"), parse_gauss_code("O1+ U2+ O2+ U1+")]
    for d in symmetric:
        assert len(oracle_least_rotations(d)[1]) >= 2, d
    for d in exhaustive_corpus + random_corpus + large + symmetric:
        code = _least_rotations(*_rows(d.endpoints, d.signs))
        assert _decode(code) == oracle_least_rotations(d)[0], d
        assert _canonical_code(*_rows(d.endpoints, d.signs)) == oracle_canonical_code(d), d


def test_least_rotations_stop_at_the_first_tie():
    # in the chain O1+ U1+ O2+ U2+ ... every positive tail's rotation ties;
    # the scan must read the period off the first tie, not compare each
    # rotation in full (quadratic: seconds at this size)
    chain = parse_gauss_code(" ".join(f"O{i}+ U{i}+" for i in range(1, 3001)))
    start = time.perf_counter()
    code = _least_rotations(*_rows(chain.endpoints, chain.signs))
    key = _canonical_code(*_rows(chain.endpoints, chain.signs))
    assert time.perf_counter() - start < 1.0
    assert _decode(code) == tuple((i % 2, i // 2 + 1, 0) for i in range(6000))
    assert key == serialize_gauss_code(chain)
    # smaller chains, periodic diagrams with many copies and their
    # rotations (the least rotation need not start at 0) against the oracle
    periodic = [
        parse_gauss_code(" ".join(f"O{i}+ U{i}+" for i in range(1, 301))),
        parse_gauss_code(" ".join(f"O{i}{'+-'[i % 2]} U{i}{'+-'[i % 2]}" for i in range(1, 301))),
    ]
    periodic += [_symmetric_diagram(block, 60, seed) for block in (1, 2, 3) for seed in range(3)]
    for d in periodic:
        for k in (0, 1, 5):
            r = rotate(d, k)
            code, shifts = oracle_least_rotations(r)
            assert len(shifts) >= 2, (d, k)
            assert _decode(_least_rotations(*_rows(r.endpoints, r.signs))) == code, (d, k)


def test_heads_arc_keys_partition_configurations_like_the_oracle():
    # two movable configurations share the census key iff they share the
    # oracle's key, minimised over every rotation: the pairs of keys that
    # occur are a bijection between the two key sets
    for n in (3, 4):
        pairs = set()
        for d in enumerate_diagrams(n):
            for triple in itertools.combinations(d.chords(), 3):
                for arcs, _numbers, movable in _qualifying_tilings(d, triple):
                    if movable:
                        key, read = _heads_arc_key(d.endpoints, arcs)
                        pairs.add((key + read(d.signs), oracle_configuration_orbit_key(d, arcs)))
        keys, oracle_keys = zip(*pairs)
        assert len(set(keys)) == len(set(oracle_keys)) == len(pairs)


def test_r2_pairs_and_messages_match_oracle(exhaustive_corpus, random_corpus):
    # labels "2" and "02" are the same number; the string breaks the tie
    tie = parse_gauss_code("O2+ U02- U2+ O02-")
    for d in exhaustive_corpus + random_corpus + [tie]:
        assert r2_removable_pairs(d) == oracle_r2_removable_pairs(d), d
        for pair in itertools.combinations(d.chords(), 2):
            move = R2Delete(pair)
            assert _outcome(apply_move, d, move) == _outcome(oracle_r2_delete, d, move)


def test_r1_chords_and_deletion_match_oracle(exhaustive_corpus, random_corpus):
    for d in exhaustive_corpus + random_corpus:
        assert r1_removable_chords(d) == oracle_r1_removable_chords(d), d
        # every chord, and "0", which no corpus diagram has
        for c in d.chords() + ["0"]:
            move = R1Delete(c)
            assert _outcome(apply_move, d, move) == _outcome(oracle_r1_delete, d, move), (d, c)


def _value_outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_adjacent_matches_oracle(exhaustive_corpus, random_corpus):
    # every position pair, one out of range on each side, up to 3 chords
    for d in [d for d in exhaustive_corpus + random_corpus if d.n <= 3]:
        positions = range(-1, len(d.endpoints) + 1)
        for p, q in itertools.product(positions, repeat=2):
            expected = _value_outcome(oracle_adjacent, d, p, q)
            assert _value_outcome(adjacent, d, p, q) == expected, (d, p, q)


def test_r2_insert_matches_oracle(exhaustive_corpus):
    # every gap pair, one invalid gap on each side, up to 2 chords
    for d in [d for d in exhaustive_corpus if d.n <= 2]:
        gaps = range(-1, max(1, len(d.endpoints)) + 1)
        for head_gap, tail_gap in itertools.product(gaps, repeat=2):
            for sign in (1, -1):
                for crossed in (True, False):
                    move = R2Insert(head_gap, tail_gap, sign, crossed)
                    expected = _outcome(oracle_r2_insert, d, move)
                    got = _outcome(apply_move, d, move)
                    assert got == expected, (d, move)
                    if not isinstance(got, str):
                        assert tuple(got.signs) == tuple(expected.signs), (d, move)


def test_r1_insert_matches_oracle(exhaustive_corpus):
    # every gap, one invalid gap on each side, up to 2 chords; sign 0 is
    # invalid too
    for d in [d for d in exhaustive_corpus if d.n <= 2]:
        for gap in range(-1, max(1, len(d.endpoints)) + 1):
            for sign in (1, -1, 0):
                for head_first in (True, False):
                    move = R1Insert(gap, sign, head_first)
                    expected = _outcome(oracle_r1_insert, d, move)
                    got = _outcome(apply_move, d, move)
                    assert got == expected, (d, move)
                    if not isinstance(got, str):
                        assert tuple(got.signs) == tuple(expected.signs), (d, move)


def test_r3_triples_match_oracle(exhaustive_corpus, random_corpus):
    seeded = [random_diagram(9 + s % 21, 20_000 + s) for s in range(300)]
    # labels "1" and "01" are the same number; the string breaks the tie
    ties = [
        parse_gauss_code("O3+ U01- O1+ U2- U1+ U3+ O2- O01-"),
        parse_gauss_code("O3+ U1- O01+ U2- U01+ U3+ O2- O1-"),
    ]
    for d in exhaustive_corpus + random_corpus + seeded + ties:
        assert r3_movable_triples(d) == oracle_r3_movable_triples(d), d


def test_r3_candidates_are_the_matched_triples(exhaustive_corpus, random_corpus):
    # and every one the earlier, wider generator yields that is matched
    for d in exhaustive_corpus + random_corpus:
        matched = {
            frozenset(t) for t in itertools.combinations(d.chords(), 3)
            if _qualifying_tilings(d, t)
        }
        assert _r3_candidates(d) == matched, d
        assert matched <= oracle_r3_candidates(d), d


def test_enumerate_diagrams_matches_oracle():
    # the same diagrams in the same order, sign maps in the same key order
    for n in range(5):
        got = [(d.endpoints, list(d.signs.items())) for d in enumerate_diagrams(n)]
        expected = [(d.endpoints, list(d.signs.items())) for d in oracle_enumerate_diagrams(n)]
        assert got == expected, n


@pytest.mark.parametrize("n", [3, 4])
def test_census_matches_oracle(n):
    assert census_movable_triples(n) == oracle_census(n)


def test_r3_rewrite_matches_oracle(exhaustive_corpus, random_corpus):
    # every triple in every label order up to 3 chords, the census's
    # candidate sets at n = 4, every triple of the seeded corpus
    cases = [
        (d, triple)
        for d in exhaustive_corpus if d.n <= 3
        for triple in itertools.permutations(d.chords(), 3)
    ]
    cases += [(d, triple) for d in enumerate_diagrams(4) for triple in oracle_r3_candidates(d)]
    cases += [
        (d, triple) for d in random_corpus for triple in itertools.combinations(d.chords(), 3)
    ]
    for d, triple in cases:
        move = R3(tuple(triple))
        assert _outcome(apply_move, d, move) == _outcome(oracle_r3_rewrite, d, move), (d, triple)


def _raised(fn, *args):
    """fn's result, or the type and message of the MoveNotApplicable it
    raised; any other exception fails the test."""
    try:
        return fn(*args)
    except MoveNotApplicable as exc:
        return type(exc), str(exc)


def _rewrite_cases(exhaustive_corpus, random_corpus):
    """(diagram, move) pairs: every deletion and R3, valid or not, with
    n <= 3 and on the seeded corpus, and every applicable one with n = 4;
    every insertion, invalid ones included, with n <= 2; every insertion
    that fits two chords on the seeded diagrams with 3 chords; and moves
    with a field of the wrong type, or no move at all."""
    cases = []
    for d in [d for d in exhaustive_corpus if d.n <= 3] + random_corpus:
        chords = d.chords() + ["0"]  # "0" names no chord of any corpus diagram
        moves = [R1Delete(c) for c in chords]
        moves += [R2Delete(pair) for pair in itertools.combinations(chords, 2)]
        moves += [R3(triple) for triple in itertools.combinations(chords, 3)]
        gaps = range(-1, max(1, len(d.endpoints)) + 1)
        if d.n <= 2:
            moves += [
                R1Insert(gap, sign, flag)
                for gap in gaps for sign in (1, -1, 0) for flag in (True, False)
            ]
            moves += [
                R2Insert(head_gap, tail_gap, sign, crossed)
                for head_gap, tail_gap in itertools.product(gaps, repeat=2)
                for sign in (1, -1) for crossed in (True, False)
            ]
        cases += [(d, move) for move in moves]
    cases += [
        (d, move) for d in random_corpus if d.n == 3 for move in oracle_insertion_moves(d, 2)
    ]
    cases += [(d, move) for d in exhaustive_corpus if d.n == 4 for move in enumerate_moves(d)]
    d = parse_gauss_code("O1+ U2- U1+ O2-")
    cases += [
        (d, move)
        for move in (R1Insert(True, 1, True), R1Insert(0, 1.0, True), R2Insert(0, 0, 1, "x"), "r1")
    ]
    return cases


CHANGE = {R1Delete: -1, R2Delete: -2, R3: 0, R1Insert: 1, R2Insert: 2}


def test_row_rewrite_matches_endpoint_oracle(exhaustive_corpus, random_corpus):
    # the rewrite returns the oracle's parts, sign order included, or raises
    # the same error with the same message; the search's row edit of each
    # applicable move, its family walk's rows, are the rows of the child
    # apply_move builds and key it as its serialized canonical form
    cases = _rewrite_cases(exhaustive_corpus, random_corpus)
    assert len(cases) > 100_000
    walks = {}  # (diagram's id, change) -> {move: rows}, walked once
    for d, move in cases:
        expected = _raised(oracle_rewrite, d, move)
        got = _raised(_rewrite, d, move)
        if isinstance(expected[0], type):
            assert got == expected, (d, move)
            continue
        assert (list(got[0]), list(got[1].items())) == (
            list(expected[0]), list(expected[1].items())), (d, move)
        kind = type(move)
        key = (id(d), CHANGE[kind])
        if key not in walks:
            walks[key] = {
                kind(*fields): (chords, bases) for fields, chords, bases in _family_rows(d, key[1])
            }
        rows = walks[key][move]
        child = apply_move(d, move)
        assert list(rows) == list(_rows(child.endpoints, child.signs)), (d, move)
        assert _canonical_code(*rows) == serialize_gauss_code(canonical(child)), (d, move)


def test_fresh_labels_match_oracle(exhaustive_corpus, random_corpus):
    relabelled = [parse_gauss_code("O2+ U2+ O4- U3- O3- U4-"), parse_gauss_code("O01+ U01+")]
    for d in [d for d in exhaustive_corpus if d.n <= 3] + random_corpus + relabelled:
        for count in (1, 2, 3):
            assert _fresh_labels(d, count) == oracle_fresh_labels(d, count), (d, count)
        assert _fresh_labels(d, 2)[:1] == _fresh_labels(d, 1), d


def _tilings_outcome(tilings):
    """Each qualifying tiling's arcs, its numbers as (label, (sign, parity,
    direction, 3-sign)) in dict order, and its movable flag."""
    return [
        (arcs, [(c, (r.sign, r.parity, r.direction, r.three_sign)) for c, r in numbers.items()],
         movable)
        for arcs, numbers, movable in tilings
    ]


def test_qualifying_tilings_match_oracle(exhaustive_corpus, random_corpus):
    # every triple in every label order up to 3 chords, the census's
    # candidate sets at n = 4, every triple of the seeded corpus
    cases = [
        (d, triple)
        for d in exhaustive_corpus if d.n <= 3
        for triple in itertools.permutations(d.chords(), 3)
    ]
    cases += [(d, triple) for d in enumerate_diagrams(4) for triple in oracle_r3_candidates(d)]
    cases += [
        (d, triple) for d in random_corpus for triple in itertools.combinations(d.chords(), 3)
    ]
    for d, triple in cases:
        expected = _tilings_outcome(oracle_qualifying_tilings(d, triple))
        assert _tilings_outcome(_qualifying_tilings(d, triple)) == expected, (d, triple)


def test_chords_cross_matches_oracle(exhaustive_corpus, random_corpus):
    for d in [d for d in exhaustive_corpus if d.n <= 3] + random_corpus:
        for a, b in itertools.permutations(d.chords(), 2):
            assert chords_cross(d, a, b) == oracle_chords_cross(d, a, b), (d, a, b)


def test_trusted_results_match_validated_construction(exhaustive_corpus, random_corpus):
    for d in [d for d in exhaustive_corpus if d.n <= 3] + random_corpus:
        half = max(1, len(d.endpoints)) // 2
        insertions = [
            R1Insert(0, 1, True),
            R1Insert(half, -1, False),
            R2Insert(0, half, 1, True),
            R2Insert(half, 0, -1, False),
            R2Insert(0, 0, 1, True),
        ]
        parsed = parse_gauss_code(serialize_gauss_code(d))
        assert parsed == make_diagram(d.endpoints, dict(d.signs)), d
        results = [d, parsed, canonical(d)]
        results += [rotate(d, k) for k in range(len(d.endpoints))]
        results += [apply_move(d, move) for move in enumerate_moves(d) + insertions]
        for out in results:
            rebuilt = make_diagram(out.endpoints, dict(out.signs))
            assert isinstance(out.signs, MappingProxyType), out
            assert out == rebuilt and out._pos == rebuilt._pos, out
            assert hash(out) == hash(rebuilt), out


def _search_outcome(result: SimplifyResult):
    """Everything a search returns, in comparable form: the final code and
    sign order, each trace move's spec with its canonical form's code and
    sign order, the expansion count and the truncation flag."""
    final = result.final
    return (
        serialize_gauss_code(final),
        tuple(final.signs),
        [(format_move(m), serialize_gauss_code(c), tuple(c.signs)) for m, c in result.trace],
        result.states_explored,
        result.limit_hit,
    )


def test_canonical_code_matches_serialized_canonical(exhaustive_corpus, random_corpus):
    for d in exhaustive_corpus + random_corpus:
        code = serialize_gauss_code(canonical(d))
        assert _canonical_code(*_rows(d.endpoints, d.signs)) == code, d
        for k in range(1, len(d.endpoints)):
            rotated = rotate(d, k)
            assert _canonical_code(*_rows(rotated.endpoints, rotated.signs)) == code, (d, k)


def test_simplify_matches_oracle_without_insertions(exhaustive_corpus):
    seeded = [random_diagram(5 + s % 6, 900 + s) for s in range(100)]
    for d in [d for d in exhaustive_corpus if d.n <= 3] + seeded:
        assert _search_outcome(simplify(d)) == _search_outcome(oracle_simplify(d)), d


def test_simplify_matches_oracle_with_insertions(exhaustive_corpus):
    for d in [d for d in exhaustive_corpus if d.n <= 2]:
        # default cap (room 2), room 1 (R1 insertions only) and room 0
        for max_chords in (None, d.n + 1, d.n):
            limits = SearchLimits(max_states=40, allow_insertions=True, max_chords=max_chords)
            expected = _search_outcome(oracle_simplify(d, limits))
            assert _search_outcome(simplify(d, limits)) == expected, (d, max_chords)


# with insertions, these searches walk far more insertions than they keep;
# each outcome was recorded from the search that stored every insertion
# move it generated, before insertions were walked lazily
STORED = "U1- O1- O2+ O3+ U2+ O4+ U4+ U3+"
STORED_OUTCOME = (
    "O2+ O3+ U2+ U3+",
    ("2", "3"),
    [
        ("r1:del:1", "O1+ O2+ U1+ O3+ U3+ U2+", ("1", "2", "3")),
        ("r1:del:4", "O1+ O2+ U1+ U2+", ("1", "2")),
    ],
)
PINNED_SEARCHES = [
    (
        lambda: random_diagram(16, 3),
        200,
        (
            "U1- O4+ O5+ U6+ U7- U8- O1- U4+ U9- O10- O8- U10- O11+ O12- O13- U14- U5+ "
            "U15- O14- U12- O9- O15- U11+ O7- U13- U16- O6+ O16-",
            ("1", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16"),
            [
                (
                    "r2:del:2,3",
                    "O1+ O2+ U3+ U4- U5- O6- U1+ U7- O8- O5- U8- O9+ O10- O11- U12- U2+ "
                    "U13- O12- U10- O7- O13- U9+ O4- U11- U14- O3+ O14- U6-",
                    tuple(str(i) for i in range(1, 15)),
                )
            ],
            200,
            True,
        ),
    ),
    (lambda: parse_gauss_code(STORED), 300, (*STORED_OUTCOME, 300, True)),
    (lambda: parse_gauss_code(STORED), 3000, (*STORED_OUTCOME, 3000, True)),
]


@pytest.mark.parametrize("start, max_states, expected", PINNED_SEARCHES)
def test_pinned_insertion_searches(start, max_states, expected):
    limits = SearchLimits(max_states=max_states, allow_insertions=True)
    assert _search_outcome(simplify(start(), limits)) == expected


def test_spliced_rows_match_rewrite(exhaustive_corpus, random_corpus):
    # the search's walk over the insertion families yields each insertion's
    # fields in enumerate_moves order, with the rows of the parts the
    # checked rewrite gives and of the child apply_move builds
    corpus = [d for d in exhaustive_corpus if d.n <= 3] + [d for d in random_corpus if d.n == 3]
    for d in corpus:
        walked = list(_family_rows(d, 1)) + list(_family_rows(d, 2))
        moves = [move for move in enumerate_moves(d, True) if CHANGE[type(move)] > 0]
        named = [(R1Insert if len(fields) == 3 else R2Insert)(*fields) for fields, _, _ in walked]
        assert named == moves, d
        for move, (_, chords, bases) in zip(moves, walked):
            assert [chords, bases] == list(_rows(*_rewrite(d, move))), (d, move)
            child = apply_move(d, move)
            assert [chords, bases] == list(_rows(child.endpoints, child.signs)), (d, move)


def test_detected_rows_match_rewrite(exhaustive_corpus, random_corpus):
    # the search's walk over a deletion or R3 family yields the family's
    # enumerate_moves moves in order, each with the rows of the parts the
    # checked rewrite gives and of the child apply_move builds
    families = {-1: R1Delete, -2: R2Delete, 0: R3}
    walked_moves = 0
    for d in exhaustive_corpus + random_corpus:
        moves = enumerate_moves(d)
        for change, kind in families.items():
            walked = list(_family_rows(d, change))
            named = [kind(*fields) for fields, _, _ in walked]
            assert named == [move for move in moves if type(move) is kind], (d, change)
            for move, (_, chords, bases) in zip(named, walked):
                assert [chords, bases] == list(_rows(*_rewrite(d, move))), (d, move)
                child = apply_move(d, move)
                child_rows = _rows(child.endpoints, child.signs)
                assert [chords, bases] == list(child_rows), (d, move)
            walked_moves += len(walked)
    assert walked_moves > 40_000


def test_family_rows_match_oracles(exhaustive_corpus, random_corpus):
    # the one walk yields what the two walks it replaced yielded for every
    # family: the same fields, the same rows, in the same order
    for d in [d for d in exhaustive_corpus if d.n <= 3] + random_corpus:
        rows, fresh = _rows(d.endpoints, d.signs), _fresh_labels(d, 2)
        for change in (-1, -2, 0, 1, 2):
            if change > 0:
                expected = oracle_spliced_rows(rows, fresh, change)
            else:
                expected = oracle_detected_rows(d, change)
            expected = [(fields, list(chords), list(bases)) for fields, chords, bases in expected]
            assert list(_family_rows(d, change)) == expected, (d, change)


def test_truncated_simplify_matches_oracle(exhaustive_corpus, monkeypatch):
    # every diagram with n <= 2 at room 0, 1 and 2, and seeded diagrams,
    # 3 chords at room 2 and 4 at room 1, each stopped after a few expansions
    small = [d for d in exhaustive_corpus if d.n <= 2]
    cases = [(d, max_chords) for d in small for max_chords in (d.n, d.n + 1, d.n + 2)]
    cases += [(random_diagram(3 + s % 2, 800 + s), 5) for s in range(12)]
    # spy on the keying: a chord count keyed between two pops that pushes
    # no new state is a pending count holding only duplicates
    search = importlib.import_module("gaussdiag.simplify")
    family_rows = search._family_rows
    keyed, pushed, all_duplicates = set(), set(), []

    def spy_family_rows(state, change):
        for fields, chords, bases in family_rows(state, change):
            keyed.add(len(chords) // 2)
            yield fields, chords, bases

    def spy_push(heap, entry):
        pushed.add(entry[0])
        heapq.heappush(heap, entry)

    def spy_pop(heap):
        all_duplicates.extend(keyed - pushed)
        keyed.clear()
        pushed.clear()
        return heapq.heappop(heap)

    monkeypatch.setattr(search, "_family_rows", spy_family_rows)
    monkeypatch.setattr(search, "heapq", SimpleNamespace(heappush=spy_push, heappop=spy_pop))
    for d, max_chords in cases:
        for max_states in (1, 2, 3, 5, 8, 13):
            limits = SearchLimits(max_states, allow_insertions=True, max_chords=max_chords)
            expected = _search_outcome(oracle_simplify(d, limits))
            assert _search_outcome(simplify(d, limits)) == expected, (d, max_chords, max_states)
    assert all_duplicates


def test_search_generates_only_insertions_that_fit(exhaustive_corpus, monkeypatch):
    # record every move simplify keys after expanding its start state, as
    # the moves its walk's fields name; yielding the state's own rows makes
    # each child a known state, so every chord count's children are keyed
    # in turn, fewest chords first
    search = importlib.import_module("gaussdiag.simplify")
    kind = {added: kind for kind, added in CHANGE.items()}
    family_rows = search._family_rows
    generated = []

    def record(state, change):
        rows = _rows(state.endpoints, state.signs)
        for fields, _, _ in family_rows(state, change):
            generated.append(kind[change](*fields))
            yield fields, rows[0], rows[1]

    monkeypatch.setattr(search, "_family_rows", record)
    for d in [d for d in exhaustive_corpus if d.n <= 3]:
        for room in (0, 1, 2):
            expected = [
                move for move in oracle_enumerate_moves(d, include_insertions=room >= 1)
                if room >= 2 or not isinstance(move, R2Insert)
            ]
            insertions = [move for move in expected if isinstance(move, (R1Insert, R2Insert))]
            assert list(oracle_insertion_moves(d, room)) == insertions, (d, room)
            if d.n == 0:
                continue  # the search never expands the empty diagram
            generated.clear()
            limits = SearchLimits(max_states=1, allow_insertions=True, max_chords=d.n + room)
            simplify(d, limits)
            assert generated == sorted(expected, key=lambda move: CHANGE[type(move)]), (d, room)
