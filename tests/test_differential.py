"""Differential tests: each layer of the library against one oracle, the
operation written straight from its definition.  "Both corpora" are the
exhaustive n <= 4 corpus and the 1000 seeded diagrams; n counts chords.

- Scan and canonical code: ``oracle_canonical``, the least encoding over
  all 2n rotations; both corpora under every rotation, seeded 16- to
  64-chord diagrams and symmetric and periodic ones with two or more least
  rotations, and a 3,000-chord chain in under 1 s
  (``test_canonical_matches_oracle``, ``test_least_rotations_*``).
- Detection: ``oracle_r1_removable_chords``, ``oracle_r2_removable_pairs``,
  ``oracle_r3_movable_triples`` (all C(n, 3) triples) and
  ``oracle_adjacent``; both corpora, label ties and 300 seeded 9- to
  29-chord diagrams (``test_r1_*``, ``test_r2_*``, ``test_r3_triples_*``,
  ``test_r3_candidates_*``, ``test_adjacent_*``).  The one triple next to
  a kink against the full find's triples that hold it, for every R1 chord
  of both corpora and every R1 insertion's kink with n <= 3
  (``test_kink_local_*``).
- R3 kernel: ``oracle_qualifying_tilings``, which classifies each tiling
  and counts crossings by ``oracle_chords_cross``; every triple in every
  label order with n <= 3, every triple with n = 4 and of the seeded
  corpus (``test_qualifying_tilings_*``, ``test_chords_cross_*``).
- Rewrite: the per-move ``REWRITES``, each an earlier ``apply_move``
  branch, with ``oracle_fresh_labels``; the kernel's triples, and every
  deletion and R3 with n <= 3 and of the seeded corpus, every applicable
  one with n = 4 and every insertion with n <= 2 and of the seeded
  three-chord diagrams, invalid ones included (``test_r3_rewrite_*``,
  ``test_row_rewrite_*``, ``test_fresh_labels_*``, ``test_trusted_*``).
  The search's unchecked edit, ``moves._edit``, against ``apply_move``:
  every move with n <= 3, every insertion gap and variant included, every
  deletion and R3 with n = 4 and of the seeded corpus, and every insertion
  of the seeded diagrams with n <= 4 (``test_unchecked_edit_*``).
- Walk: the rewrite oracle's children in ``oracle_enumerate_moves`` order;
  every family with n <= 3 and of the seeded corpus, and every deletion
  and R3 family with n = 4 (``test_family_rows_match_oracles``).  The
  tables the walk and the sites read, kept for the process, against the
  layouts ``_insertion_layout`` makes afresh and against ``label_key``:
  every layout the n <= 3 insertion searches read, of which there are
  none at a head gap after its tail gap, and every label of both corpora
  with ties and labels that are not numbers (``test_layout_table_*``,
  ``test_label_key_table_*``).
- Shared sites and rewrites: each enumerated diagram's moves and deletion
  and R3 walks, read through the sign-free sites its arrangement shares,
  and its ``apply_move`` results and errors for every move any sign map of
  its arrangement offers, made through the edits the holder keeps, against
  its unshared parsed copy; every diagram with n <= 4, each arrangement's
  sign maps visited forward and reversed (``test_shared_sites_*``,
  ``test_shared_rewrites_*``).
- Layout: ``oracle_positions``, each chord's (tail, head) pair read off the
  endpoints; both corpora as built by every library path, ``make_diagram``,
  ``pickle`` and ``deepcopy``, with the library's diagrams holding the
  shared endpoint tables' objects and the public constructors the
  caller's (``test_position_layout_*``, ``test_public_constructors_*``).
- Census: ``oracle_census``, every triple of every
  ``oracle_enumerate_diagrams`` diagram keyed by
  ``oracle_configuration_orbit_key``; n = 3 and 4
  (``test_enumerate_diagrams_*``, ``test_census_*``).
- Search: ``oracle_simplify``, which builds and keys every child; every
  diagram with n <= 3, with insertions at caps leaving room 0 to 2 with
  n <= 2, 100 seeded 5- to 10-chord diagrams, and 1 to 13 expansions on
  n <= 2 and 12 seeded 3- and 4-chord diagrams; three searches pinned
  (``test_simplify_*``, ``test_truncated_*``, ``test_search_generates_*``,
  ``test_pinned_insertion_searches``).  Each differential, truncated and
  pinned search also keeps the start's affine index polynomial P and ends
  at no fewer chords than its bound B (see ``invariants``).  A spy on the
  same stopped searches, up to 200 expansions, checks that a state an R1
  insertion built walks no deletion family, whose children are all keyed
  at its expansion, and that every other state's deletion walks drop only
  the deletion that undoes an R2 insertion
  (``test_search_walks_no_deletion_*``).  A second spy, over the same
  searches, the benchmark's ``insertion`` inputs at seeds 1 to 5 and the
  two-chord diagrams with room for three insertions, checks that only a
  state an R1 insertion built leaves out R3s and R1 insertions, and that
  each child it leaves out is keyed then; and that such a state pushes an
  R3 family exactly when a movable triple holds its kink, every R3 child
  of a triple without the kink being keyed at its expansion
  (``test_search_skips_only_*``).
"""

from __future__ import annotations

import collections
import copy
import heapq
import importlib
import itertools
import pickle
import random
import time
from pathlib import Path
from types import MappingProxyType, SimpleNamespace

import pytest
from invariants import keeps_the_invariants

from gaussdiag import (
    EMPTY,
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
from gaussdiag.codec import _canonical_code, _read_canonical_code, from_structured, to_structured
from gaussdiag.diagram import (
    HEAD,
    TAIL,
    _HEADS,
    _LABEL_KEYS,
    _TAILS,
    _entry_parts,
    _least_rotations,
    _matchings,
    _rows,
    _trusted,
    label_key,
)
from gaussdiag.moves import (
    _LAYOUTS,
    _edit,
    _family_rows,
    _fresh_labels,
    _insertion_layout,
    _qualifying_tilings,
)
from gaussdiag.sites import _kink_triple, _r1_sites, _r3_candidates, _r3_sites, _tilings

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


def _rotation_encodings(d: GaussDiagram) -> list:
    """The ``_encode`` (encoding, chord mapping) of each rotation of d, by
    shift k (basepoint at position k)."""
    return [_encode(rotate(d, k)) for k in range(len(d.endpoints))]


def oracle_positions(d: GaussDiagram) -> dict:
    """chord -> (tail position, head position), read off the endpoints in
    order of first appearance."""
    found = {}
    for i, ep in enumerate(d.endpoints):
        found.setdefault(ep.chord, {})[ep.role] = i
    return {c: (roles[TAIL], roles[HEAD]) for c, roles in found.items()}


def oracle_canonical(d: GaussDiagram) -> GaussDiagram:
    """Canonical representative under rotation and relabeling.

    Among all 2n rotations, relabel chords by order of first appearance and
    keep the rotation whose encoded endpoint sequence is lexicographically
    least.  Idempotent and rotation-invariant; mirror images are NOT
    identified.
    """
    if d.n == 0:
        return d
    encodings = _rotation_encodings(d)
    k = min(range(len(encodings)), key=lambda k: encodings[k][0])
    relabel = {old: str(new) for old, new in encodings[k][1].items()}
    rot = rotate(d, k)
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
    for k, (code, _) in enumerate(_rotation_encodings(d)):
        shifted = tuple(sorted(((a - k) % m, (b - k) % m) for a, b in pair_positions))
        key = (code, shifted)
        if best is None or key < best:
            best = key
    return best


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


def oracle_r2_delete(d: GaussDiagram, move: R2Delete) -> tuple:
    """The R2Delete branch of the earlier apply_move, giving the parts
    (endpoints, signs) of its result."""
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
    return eps, signs


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


def oracle_r1_delete(d: GaussDiagram, move: R1Delete) -> tuple:
    """The R1Delete branch of the earlier apply_move, giving the parts
    (endpoints, signs) of its result."""
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
    return eps, signs


def oracle_r1_insert(d: GaussDiagram, move: R1Insert) -> tuple:
    """The R1Insert branch of the earlier apply_move, with its gap, sign and
    flag checks and its fresh label, giving the parts of its result."""
    limit = max(1, len(d.endpoints))
    if type(move.gap) is not int or not 0 <= move.gap < limit:
        raise MoveNotApplicable(f"invalid gap {move.gap!r}: valid gaps are 0..{limit - 1}")
    if not (type(move.sign) is int and move.sign in (1, -1)):
        raise MoveNotApplicable(f"sign must be +1 or -1, got {move.sign!r}")
    if type(move.head_first) is not bool:
        raise MoveNotApplicable(f"head_first must be True or False, got {move.head_first!r}")
    (lab,) = oracle_fresh_labels(d, 1)
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


def oracle_r2_insert(d: GaussDiagram, move: R2Insert) -> tuple:
    """The R2Insert branch of the earlier apply_move, with its gap, sign
    and flag checks and its fresh labels, giving the parts of its result."""
    limit = max(1, len(d.endpoints))
    for gap in (move.head_gap, move.tail_gap):
        if type(gap) is not int or not 0 <= gap < limit:
            raise MoveNotApplicable(f"invalid gap {gap!r}: valid gaps are 0..{limit - 1}")
    if not (type(move.first_sign) is int and move.first_sign in (1, -1)):
        raise MoveNotApplicable(f"sign must be +1 or -1, got {move.first_sign!r}")
    if type(move.crossed) is not bool:
        raise MoveNotApplicable(f"crossed must be True or False, got {move.crossed!r}")
    x, y = oracle_fresh_labels(d, 2)
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


def oracle_r3_rewrite(d: GaussDiagram, move: R3) -> tuple:
    """The R3 branch of the earlier apply_move, through analyze_triple,
    giving the parts of its result."""
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
    return eps, d.signs


# the rewrite oracle of each kind of move
REWRITES = {
    R1Delete: oracle_r1_delete,
    R2Delete: oracle_r2_delete,
    R1Insert: oracle_r1_insert,
    R2Insert: oracle_r2_insert,
    R3: oracle_r3_rewrite,
}


def oracle_apply_move(d: GaussDiagram, move) -> GaussDiagram:
    """apply_move by the rewrite oracle of the move's kind, its parts
    validated by make_diagram; MoveNotApplicable for what is not a move."""
    if type(move) not in REWRITES:
        raise MoveNotApplicable(f"unknown move {move!r}")
    return make_diagram(*REWRITES[type(move)](d, move))


def oracle_r3_movable_triples(d: GaussDiagram) -> list:
    """All movable triples, as label tuples in sorted order."""
    labels = sorted(d.chords(), key=label_key)
    out = []
    for triple in itertools.combinations(labels, 3):
        if analyze_triple(d, triple).movable:
            out.append(triple)
    return out


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
    """The census walked diagram by diagram: every triple of every diagram
    analysed, and every movable configuration keyed alone."""
    total = matched = movable = 0
    movable_orbits = set()
    for d in oracle_enumerate_diagrams(n):
        total += 1
        for triple in itertools.combinations(d.chords(), 3):
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


def _raised(fn, *args):
    """fn's result, or the type and message of the MoveNotApplicable it
    raised; any other exception fails the test."""
    try:
        return fn(*args)
    except MoveNotApplicable as exc:
        return type(exc), str(exc)


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


def _rotated_codes(d: GaussDiagram, shifts) -> list:
    """The canonical code the search keys d by, spelled from the rows of d
    rotated by each of these shifts."""
    chords, bases = _rows(d.endpoints, d.signs)
    return [_canonical_code(chords[k:] + chords[:k], bases[k:] + bases[:k]) for k in shifts]


def test_canonical_matches_oracle(exhaustive_corpus, random_corpus):
    # canonical, and under every rotation the code the search keys by
    for d in exhaustive_corpus + random_corpus:
        expected = oracle_canonical(d)
        assert canonical(d) == expected, d
        shifts = range(max(1, len(d.endpoints)))
        assert _rotated_codes(d, shifts) == [serialize_gauss_code(expected)] * len(shifts), d


def _scan_cases() -> tuple:
    """Larger diagrams, and diagrams that a rotation carries onto
    themselves, so with two or more least rotations: symmetric ones, two
    300-chord chains and periodic diagrams with many copies."""
    large = [random_diagram(n, 30_000 + 100 * n + s) for n in range(16, 65) for s in range(3)]
    symmetric = [
        _symmetric_diagram(block, copies, seed)
        for block in range(1, 7) for copies in range(2, 7) for seed in range(4)
    ]
    symmetric += [parse_gauss_code("O1+ U1+ O2+ U2+ O3+ U3+"), parse_gauss_code("O1+ U2+ O2+ U1+")]
    symmetric += [
        parse_gauss_code(" ".join(f"O{i}+ U{i}+" for i in range(1, 301))),
        parse_gauss_code(" ".join(f"O{i}{'+-'[i % 2]} U{i}{'+-'[i % 2]}" for i in range(1, 301))),
    ]
    symmetric += [_symmetric_diagram(block, 60, seed) for block in (1, 2, 3) for seed in range(3)]
    return large, symmetric


def test_least_rotations_match_oracle():
    # the same at shifts 0, 1 and 5 on the larger and symmetric diagrams
    large, symmetric = _scan_cases()
    for d in symmetric:
        encodings = [encoding for encoding, _ in _rotation_encodings(d)]
        assert encodings.count(min(encodings)) >= 2, d
    for d in large + symmetric:
        expected = oracle_canonical(d)
        assert canonical(d) == expected, d
        assert _rotated_codes(d, (0, 1, 5)) == [serialize_gauss_code(expected)] * 3, d


def _entry_one_cases() -> dict:
    """Diagrams by the way the scan's entry-1 screen meets their starts."""
    _, symmetric = _scan_cases()
    return {
        # the start chord's own head next, numbered 1: it beats another's
        # head, and ties with a later such start, which wins further on in
        # the last case
        "own head": [parse_gauss_code(code) for code in (
            "O1+ U1+ O2+ U3+ O3+ U2+", "O1+ U2+ O2+ U1+ O3+ U3+", "O1- U1- O2- U3- O3- U2-",
            "O1+ U1+ O2- U2- O3+ U3+",
        )],
        # the 300-chord chains: every start ties at entry 1, so each is
        # compared further
        "all tie": [d for d in symmetric if d.n == 300],
        # two endpoints: one start, whose entry 1 is its own head
        "one chord": list(enumerate_diagrams(1)),
        # the first start in row order loses at entry 1 to a later one
        "later wins": [parse_gauss_code(code) for code in (
            "O1+ U2+ O2+ O3+ U1+ U3+", "O1+ U2- O2- O3+ U3+ U1+",
        )],
    }


def test_least_rotations_entry_one_screen():
    # the starts' entries 1, read off the oracle's encodings of their
    # rotations, are as each case says; the scan and the search's code
    # agree with the oracle at every shift (the chains at 0, 1 and 5)
    cases = _entry_one_cases()
    for name, diagrams in cases.items():
        for d in diagrams:
            # the starts: the tails of the least sign
            sign = max(d.signs.values())
            starts = [k for k, ep in enumerate(d.endpoints)
                      if ep.role == TAIL and d.signs[ep.chord] == sign]
            ones = [_encode(rotate(d, k))[0][1] for k in starts]
            expected = oracle_canonical(d)
            if name == "own head":
                assert _encode(expected)[0][1] == (1, 1, int(sign < 0)), d
            elif name == "all tie":
                assert len(set(ones)) == 1 and len(starts) >= 150, d
            elif name == "one chord":
                assert len(starts) == 1, d
            else:
                assert ones.index(min(ones)) > 0, d
            assert canonical(d) == expected, d
            shifts = (0, 1, 5) if name == "all tie" else range(len(d.endpoints))
            assert _rotated_codes(d, shifts) == [serialize_gauss_code(expected)] * len(shifts), d


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


def _form_outcome(d: GaussDiagram) -> tuple:
    """A diagram, its sign order and position map, and whether it holds the
    tables' shared endpoints."""
    return d, tuple(d.signs), d._pos, all(ep is _table_end(ep) for ep in d.endpoints)


def test_read_canonical_code_matches_canonical(exhaustive_corpus, random_corpus):
    # the canonical form read back from the code the search keys by, also
    # with labels of 10 and up on the larger and symmetric diagrams
    large, symmetric = _scan_cases()
    for d in exhaustive_corpus + random_corpus + large + symmetric:
        read = _read_canonical_code(_canonical_code(*_rows(d.endpoints, d.signs)))
        assert _form_outcome(read) == _form_outcome(canonical(d)), d
    assert _form_outcome(_read_canonical_code("")) == _form_outcome(EMPTY)


def test_trace_forms_match_a_canonical_replay():
    # each trace step's form, read from its stored code, against the
    # canonical form of the diagram the trace's moves replay to
    seeded = [random_diagram(5 + s % 6, 900 + s) for s in range(100)]
    replayed = 0
    for insertions in (False, True):  # without insertions every search ends within 16 states
        limits = SearchLimits(max_states=40, allow_insertions=insertions)
        for start in seeded:
            trace, d, expected = simplify(start, limits).trace, start, []
            for move, _ in trace:
                d = apply_move(d, move)
                expected.append((move, *_form_outcome(canonical(d))))
            assert [(move, *_form_outcome(form)) for move, form in trace] == expected, start
            replayed += len(trace)
    assert replayed > 300, replayed


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


def test_r1_chords_and_deletion_match_oracle(exhaustive_corpus, random_corpus):
    for d in exhaustive_corpus + random_corpus:
        assert r1_removable_chords(d) == oracle_r1_removable_chords(d), d
        # every chord, and "0", which no corpus diagram has
        for c in d.chords() + ["0"]:
            move = R1Delete(c)
            assert _raised(apply_move, d, move) == _raised(oracle_apply_move, d, move), (d, c)


def test_r2_pairs_and_messages_match_oracle(exhaustive_corpus, random_corpus):
    # labels "2" and "02" are the same number; the string breaks the tie
    tie = parse_gauss_code("O2+ U02- U2+ O02-")
    for d in exhaustive_corpus + random_corpus + [tie]:
        assert r2_removable_pairs(d) == oracle_r2_removable_pairs(d), d
        for pair in itertools.combinations(d.chords(), 2):
            move = R2Delete(pair)
            assert _raised(apply_move, d, move) == _raised(oracle_apply_move, d, move)


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
    for d in exhaustive_corpus + random_corpus:
        matched = {
            frozenset(t) for t in itertools.combinations(d.chords(), 3)
            if _qualifying_tilings(d, t)
        }
        assert _r3_candidates(d) == matched, d


def test_kink_local_r3_find_is_the_full_find_restricted(exhaustive_corpus, random_corpus):
    # the one triple next to a kink k, with its tilings, is the full find's
    # entries for the triples that hold k: none when there is no such
    # triple or it is not matched.  For each R1 chord of each diagram of
    # both corpora, and for the kink of each R1 insertion child of each
    # diagram up to 3 chords, as the search's walk asks for it
    cases = [(d, k) for d in exhaustive_corpus + random_corpus for k in _r1_sites(d)]
    for d in exhaustive_corpus:
        if d.n <= 3:
            kink = _fresh_labels(d, 1)[0]
            cases += [(apply_move(d, R1Insert(gap, sign, head_first)), kink)
                      for gap in range(max(1, 2 * d.n))
                      for sign, head_first in itertools.product((1, -1), (True, False))]
    kinds = collections.Counter()
    for d, k in cases:
        triple = _kink_triple(d, k)
        tilings = _tilings(d, triple) if triple else []
        found = [(triple, tilings)] if tilings else []
        assert found == [entry for entry in _r3_sites(d).items() if k in entry[0]], (d, k)
        kinds["none" if triple is None else "matched" if tilings else "unmatched"] += 1
    assert min(kinds["none"], kinds["matched"], kinds["unmatched"]) > 10_000, kinds


def _triple_cases(exhaustive_corpus, random_corpus):
    """(diagram, triple) pairs: every triple in every label order with
    n <= 3, and every triple with n = 4 and of the seeded corpus."""
    cases = [
        (d, triple)
        for d in exhaustive_corpus if d.n <= 3
        for triple in itertools.permutations(d.chords(), 3)
    ]
    cases += [
        (d, triple)
        for d in [d for d in exhaustive_corpus if d.n == 4] + random_corpus
        for triple in itertools.combinations(d.chords(), 3)
    ]
    return cases


def _tilings_outcome(tilings):
    """Each qualifying tiling's arcs, its numbers as (label, (sign, parity,
    direction, 3-sign)) in dict order, and its movable flag."""
    return [
        (arcs, [(c, (r.sign, r.parity, r.direction, r.three_sign)) for c, r in numbers.items()],
         movable)
        for arcs, numbers, movable in tilings
    ]


def test_qualifying_tilings_match_oracle(exhaustive_corpus, random_corpus):
    for d, triple in _triple_cases(exhaustive_corpus, random_corpus):
        expected = _tilings_outcome(oracle_qualifying_tilings(d, triple))
        assert _tilings_outcome(_qualifying_tilings(d, triple)) == expected, (d, triple)


def test_chords_cross_matches_oracle(exhaustive_corpus, random_corpus):
    for d in [d for d in exhaustive_corpus if d.n <= 3] + random_corpus:
        for a, b in itertools.permutations(d.chords(), 2):
            assert chords_cross(d, a, b) == oracle_chords_cross(d, a, b), (d, a, b)


def test_r3_rewrite_matches_oracle(exhaustive_corpus, random_corpus):
    for d, triple in _triple_cases(exhaustive_corpus, random_corpus):
        move = R3(tuple(triple))
        assert _raised(apply_move, d, move) == _raised(oracle_apply_move, d, move), (d, triple)


def _rewrite_cases(exhaustive_corpus, random_corpus):
    """(diagram, move) pairs: every deletion and R3, valid or not, with
    n <= 3 and on the seeded corpus, and every applicable one with n = 4;
    every insertion, invalid ones included, with n <= 2; every insertion on
    the seeded diagrams with 3 chords; and moves with a field of the wrong
    type, or no move at all."""
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
        (d, move)
        for d in random_corpus if d.n == 3
        for move in oracle_enumerate_moves(d, include_insertions=True)
        if isinstance(move, (R1Insert, R2Insert))
    ]
    cases += [
        (d, move) for d in exhaustive_corpus if d.n == 4 for move in oracle_enumerate_moves(d)
    ]
    d = parse_gauss_code("O1+ U2- U1+ O2-")
    cases += [
        (d, move)
        for move in (R1Insert(True, 1, True), R1Insert(0, 1.0, True), R2Insert(0, 0, 1, "x"), "r1")
    ]
    return cases


def test_row_rewrite_matches_endpoint_oracle(exhaustive_corpus, random_corpus):
    # apply_move builds the rewrite oracle's diagram, sign order included,
    # or raises the same error with the same message
    cases = _rewrite_cases(exhaustive_corpus, random_corpus)
    assert len(cases) > 100_000
    for d, move in cases:
        expected = _raised(oracle_apply_move, d, move)
        got = _raised(apply_move, d, move)
        assert got == expected, (d, move)
        if isinstance(got, GaussDiagram):
            assert tuple(got.signs) == tuple(expected.signs), (d, move)


def test_fresh_labels_match_oracle(exhaustive_corpus, random_corpus):
    relabelled = [parse_gauss_code("O2+ U2+ O4- U3- O3- U4-"), parse_gauss_code("O01+ U01+")]
    for d in [d for d in exhaustive_corpus if d.n <= 3] + random_corpus + relabelled:
        for count in (1, 2, 3):
            assert _fresh_labels(d, count) == oracle_fresh_labels(d, count), (d, count)
        assert _fresh_labels(d, 2)[:1] == _fresh_labels(d, 1), d


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


def _table_end(ep: Endpoint) -> Endpoint:
    """The one shared endpoint of ep's label and role."""
    return (_HEADS if ep.role == HEAD else _TAILS)[ep.chord]


def test_position_layout_matches_oracle(exhaustive_corpus, random_corpus):
    # every way a diagram is built stores each chord's (tail, head) pair;
    # every diagram the library builds shares the tables' endpoints, and
    # pickle and deepcopy give back an equal diagram with an equal map
    built = 0
    for d in exhaustive_corpus + random_corpus:
        half = max(1, len(d.endpoints)) // 2
        insertions = [R1Insert(half, -1, False), R2Insert(0, half, 1, True)]
        library = [d, parse_gauss_code(serialize_gauss_code(d)), canonical(d), rotate(d, 1)]
        library += [apply_move(d, move) for move in enumerate_moves(d) + insertions]
        for out in library:
            assert out._pos == oracle_positions(out), out
            assert all(ep is _table_end(ep) for ep in out.endpoints), out
        for out in (make_diagram(d.endpoints, d.signs), pickle.loads(pickle.dumps(d)),
                    copy.deepcopy(d)):
            assert out == d and out._pos == oracle_positions(out) == d._pos, d
        built += len(library) + 3
    assert built > 200_000, built


def test_public_constructors_keep_the_callers_endpoints(random_corpus):
    for d in random_corpus:
        ends = [Endpoint(ep.chord, ep.role) for ep in d.endpoints]
        made = make_diagram(ends, d.signs)
        assert all(a is b for a, b in zip(made.endpoints, ends)), d
        for out in (made, from_structured(to_structured(d))):
            assert out == d and out._pos == oracle_positions(d), d
            assert not any(ep is _table_end(ep) for ep in out.endpoints), d


CHANGE = {R1Delete: -1, R2Delete: -2, R3: 0, R1Insert: 1, R2Insert: 2}


def test_family_rows_match_oracles(exhaustive_corpus, random_corpus):
    # the search's one walk over a move family yields the family's moves in
    # oracle_enumerate_moves order, as their fields, each with the rows of
    # the child's parts that the rewrite oracle gives: every family of every diagram
    # with n <= 3 and of the seeded corpus, and the deletion and R3 families
    # with n = 4
    cases = [(d, True) for d in exhaustive_corpus if d.n <= 3] + [(d, True) for d in random_corpus]
    cases += [(d, False) for d in exhaustive_corpus if d.n == 4]
    walked_moves = 0
    for d, insertions in cases:
        moves = oracle_enumerate_moves(d, insertions)
        for kind, change in CHANGE.items():
            if change > 0 and not insertions:
                continue
            walked = list(_family_rows(d, change))
            family = [move for move in moves if type(move) is kind]
            assert [kind(*fields) for fields, _, _ in walked] == family, (d, change)
            for move, (_, chords, bases) in zip(family, walked):
                assert [chords, bases] == list(_rows(*REWRITES[kind](d, move))), (d, move)
            walked_moves += len(walked)
    assert walked_moves > 40_000


# the sample gaps of every insertion layout: R1's one gap, and R2's head gap
# before its tail gap, and at it, which serves a head gap after it too
LAYOUT_GAPS = ((0,), (0, 1), (0, 0))


def test_layout_table_matches_fresh_layouts(exhaustive_corpus, monkeypatch):
    # the walk reads each insertion layout from a table kept for the
    # process, whose blocks every family with those fresh labels shares:
    # each entry the n <= 3 insertion searches read equals the layout made
    # afresh, and so does every entry after them, so a shared block that a
    # caller changed shows up
    moves = importlib.import_module("gaussdiag.moves")
    fresh_labels = moves._fresh_labels
    used = set()

    def spy(d, count):
        labels = fresh_labels(d, count)
        used.add(tuple(labels))
        return labels

    monkeypatch.setattr(moves, "_fresh_labels", spy)
    for d in [d for d in exhaustive_corpus if d.n <= 3]:
        for max_chords in (d.n + 1, d.n + 2):
            simplify(d, SearchLimits(max_states=12, allow_insertions=True, max_chords=max_chords))
    assert len(used) >= 4, used
    for fresh in used:
        for gaps in LAYOUT_GAPS:
            assert _LAYOUTS[gaps, fresh] == _insertion_layout(gaps, fresh), (gaps, fresh)
        # a head gap after its tail gap reads the blocks as a shared gap does
        assert _insertion_layout((1, 0), fresh) == _insertion_layout((0, 0), fresh), fresh
    # every layout is kept under its sample gaps and both fresh labels: no
    # search keys one at a head gap after its tail gap
    assert all(len(key) == 2 and key[0] in LAYOUT_GAPS and len(key[1]) == 2 for key in _LAYOUTS)
    for (gaps, fresh), layout in _LAYOUTS.items():
        assert layout == _insertion_layout(gaps, fresh), (gaps, fresh)


def test_label_key_table_matches_label_key(exhaustive_corpus, random_corpus):
    # the table the sites and the search sort by holds each label's
    # label_key: the corpora's labels, number ties ("02" before "2") and
    # labels that are not numbers
    labels = {c for d in exhaustive_corpus + random_corpus for c in d.signs}
    labels |= {"2", "02", "002", "10", "010", "a", "A", "_", "a1", "1a", "Z9"}
    for label in labels:
        assert _LABEL_KEYS[label] == label_key(label), label
    assert sorted(labels, key=_LABEL_KEYS.__getitem__)[:4] == ["1", "002", "02", "2"]
    for label, key in _LABEL_KEYS.items():
        assert key == label_key(label), label


def _site_outcome(d: GaussDiagram) -> tuple:
    """What a diagram's move sites decide: its moves, in order, and the
    search's walks over its deletion and R3 families."""
    return enumerate_moves(d), [list(_family_rows(d, change)) for change in (-1, -2, 0)]


def _sign_map_groups(n: int):
    """Each endpoint arrangement's 2^n enumerated diagrams, from two
    enumerations, so with two holders: (group, again)."""
    forward, backward = enumerate_diagrams(n), enumerate_diagrams(n)
    while group := list(itertools.islice(forward, 2 ** n)):
        yield group, list(itertools.islice(backward, 2 ** n))


def test_shared_sites_match_unshared_copies():
    # an arrangement's 2^n diagrams share one holder of sign-free sites,
    # which the first sign map to ask fills; each diagram's moves and walks
    # equal its unshared copy's, with every arrangement's sign maps asking
    # first to last and, in a second enumeration, last to first
    checked = 0
    for n in range(5):
        for group, again in _sign_map_groups(n):
            assert again == group and again[0]._sites is not group[0]._sites
            for shared in (group, again):
                assert all(d._sites is shared[0]._sites is not None for d in shared), group[0]
            expected = []
            for d in group:
                copy = parse_gauss_code(serialize_gauss_code(d))
                assert copy._sites is None
                expected.append(_site_outcome(copy))
            for d, outcome in [*zip(group, expected), *zip(again[::-1], expected[::-1])]:
                assert _site_outcome(d) == outcome, d
                checked += 1
    assert checked == 2 * (1 + 4 + 48 + 960 + 26880)


def _applied(result):
    """An ``apply_move`` result as its endpoints, sign items, position
    items and holder; a raised ``_raised`` (type, message) as it is."""
    if isinstance(result, GaussDiagram):
        signs, pos = list(result.signs.items()), list(result._pos.items())
        return result.endpoints, signs, pos, result._sites
    return result


def test_shared_rewrites_match_unshared_copies():
    # an arrangement's diagrams share each deletion's and R3's edited
    # endpoints and position map in their holder, where the first sign map
    # to make the edit keeps them; every result, and every error message,
    # equals the unshared copy's, with the sign maps asking first to last
    # and, in a second enumeration, last to first.  Each sign map is asked
    # every move that some sign map of its arrangement offers, so it also
    # meets R2 pairs of equal signs and matched triples whose 3-signs
    # differ, and a failed check keeps nothing in the holder
    errors = collections.Counter()
    results = 0
    for n in range(5):
        for group, again in _sign_map_groups(n):
            copies = [parse_gauss_code(serialize_gauss_code(d)) for d in group]
            moves = list(dict.fromkeys(m for c in copies for m in enumerate_moves(c)))
            expected = [[_applied(_raised(apply_move, c, move)) for move in moves] for c in copies]
            for shared in (group, again):
                enumerate_moves(shared[0])  # the holder's finds, made before any move
            children = collections.defaultdict(list)  # (holder, move) -> its results
            for d, outcome in [*zip(group, expected), *zip(again[::-1], expected[::-1])]:
                for move, want in zip(moves, outcome):
                    kept = dict(d._sites)
                    got = _raised(apply_move, d, move)
                    assert _applied(got) == want, (d, move)
                    if isinstance(got, GaussDiagram):
                        children[id(d._sites), move].append(got)
                        results += 1
                    else:
                        assert d._sites == kept, (d, move)
                        errors[type(move)] += 1
            # one position map per child: the sign maps whose edit is the
            # same read the one the first of them kept
            for made in children.values():
                assert len({id(c._pos) for c in made}) == len({c.endpoints for c in made})
    assert results == 2 * 46_248 and errors == {R2Delete: 2 * 7_984, R3: 2 * 18_876}


def test_unchecked_edit_builds_what_apply_move_builds(exhaustive_corpus, random_corpus):
    # the search builds each state it expands by the move's edit alone, with
    # no check, from the fields its walk found on the same diagram (the
    # walk's fields are the moves' fields: see test_family_rows_match_oracles).
    # For every move of both corpora, every insertion gap and variant of
    # every diagram with n <= 3 and of the seeded diagrams with n <= 4, the
    # edit of a copy with no holder builds apply_move's diagram: the same
    # endpoints, sign map in the same order, position map and chords its
    # insertion added (``made``).  An R3's edit finds by itself the arcs
    # apply_move's check hands it
    checked = collections.Counter()
    cases = [(d, d.n <= 3) for d in exhaustive_corpus] + [(d, d.n <= 4) for d in random_corpus]
    for d, insertions in cases:
        bare = _trusted(d.endpoints, d.signs)
        for move in enumerate_moves(d, insertions):
            change = CHANGE[type(move)]
            got, expected = _edit(bare, change, move._values()), apply_move(d, move)
            assert _applied(got) == _applied(expected), (d, move)
            assert tuple(got.signs)[d.n:] == tuple(expected.signs)[d.n:], (d, move)
            checked[type(move)] += 1
    assert checked == {R1Delete: 32_932, R2Delete: 8_201, R3: 6_478, R1Insert: 33_172,
                       R2Insert: 195_108}, checked


def test_enumerate_diagrams_matches_oracle():
    # the same diagrams in the same order, sign maps in the same key order
    for n in range(5):
        got = [(d.endpoints, list(d.signs.items())) for d in enumerate_diagrams(n)]
        expected = [(d.endpoints, list(d.signs.items())) for d in oracle_enumerate_diagrams(n)]
        assert got == expected, n


@pytest.mark.parametrize("n", [3, 4])
def test_census_matches_oracle(n):
    assert census_movable_triples(n) == oracle_census(n)


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


def test_simplify_matches_oracle_without_insertions(exhaustive_corpus):
    seeded = [random_diagram(5 + s % 6, 900 + s) for s in range(100)]
    for d in [d for d in exhaustive_corpus if d.n <= 3] + seeded:
        result = simplify(d)
        assert _search_outcome(result) == _search_outcome(oracle_simplify(d)), d
        assert keeps_the_invariants(d, result.final), d


def test_simplify_matches_oracle_with_insertions(exhaustive_corpus):
    for d in [d for d in exhaustive_corpus if d.n <= 2]:
        # default cap (room 2), room 1 (R1 insertions only) and room 0
        for max_chords in (None, d.n + 1, d.n):
            limits = SearchLimits(max_states=40, allow_insertions=True, max_chords=max_chords)
            expected = _search_outcome(oracle_simplify(d, limits))
            result = simplify(d, limits)
            assert _search_outcome(result) == expected, (d, max_chords)
            assert keeps_the_invariants(d, result.final), (d, max_chords)


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
    result = simplify(start(), limits)
    assert _search_outcome(result) == expected
    assert keeps_the_invariants(start(), result.final)


def _truncated_cases(exhaustive_corpus) -> list:
    """Every diagram with n <= 2 at room 0, 1 and 2, and seeded diagrams,
    3 chords at room 2 and 4 at room 1, each with its chord cap."""
    small = [d for d in exhaustive_corpus if d.n <= 2]
    cases = [(d, max_chords) for d in small for max_chords in (d.n, d.n + 1, d.n + 2)]
    return cases + [(random_diagram(3 + s % 2, 800 + s), 5) for s in range(12)]


TRUNCATED_BUDGETS = (1, 2, 3, 5, 8, 13)


def test_truncated_simplify_matches_oracle(exhaustive_corpus, monkeypatch):
    # the _truncated_cases, each stopped after a few expansions
    cases = _truncated_cases(exhaustive_corpus)
    # spy on the keying: a chord count keyed between two pops that pushes
    # no new state is a family whose children are all duplicates
    search = importlib.import_module("gaussdiag.simplify")
    family_rows = search._family_rows
    keyed, pushed, all_duplicates = set(), set(), []

    def spy_family_rows(state, change, *walk):
        for fields, chords, bases in family_rows(state, change, *walk):
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
        for max_states in TRUNCATED_BUDGETS:
            limits = SearchLimits(max_states, allow_insertions=True, max_chords=max_chords)
            expected = _search_outcome(oracle_simplify(d, limits))
            result = simplify(d, limits)
            assert _search_outcome(result) == expected, (d, max_chords, max_states)
            assert keeps_the_invariants(d, result.final), (d, max_chords, max_states)
    assert all_duplicates


def test_search_walks_no_deletion_whose_children_are_not_keyed(exhaustive_corpus, monkeypatch):
    # a state an R1 insertion built pushes and walks no deletion family: at
    # its expansion every child of both is keyed already.  Every other
    # expanded state pushes both deletion families where its count allows,
    # and a state an R2 insertion built drops only the deletion of the two
    # chords it added, whose child has its parent's code.  Spy on the
    # search, over the _truncated_cases
    search = importlib.import_module("gaussdiag.simplify")
    edit, family_rows, canonical_code = search._edit, search._family_rows, search._canonical_code
    kinds = {change: kind for kind, change in CHANGE.items()}
    made_from = {}  # each built state's id: (its parent, the move)
    # per expansion's edit: (the state, and if an R1 insertion made it, how
    # many deletion children it has and the codes of those not yet keyed)
    built = []
    keyed = set()  # every code the search has made
    pushed = collections.defaultdict(set)  # a diagram's id: the chords its pushed families add
    seen = collections.Counter()

    def spy_canonical_code(chords, bases):
        code = canonical_code(chords, bases)
        keyed.add(code)
        return code

    def build(parent, change, fields):
        state, move = edit(parent, change, fields), kinds[change](*fields)
        made_from[id(state)] = parent, move
        codes = []
        if type(move) is R1Insert:
            for change in (-1, -2):
                codes += [canonical_code(*rows) for _, *rows in family_rows(state, change)]
        built.append((state, len(codes), [code for code in codes if code not in keyed]))
        return state

    def spy_push(heap, entry):
        if not entry[1]:  # a family: its parent's diagram and the chords it adds
            pushed[id(entry[5])].add(entry[4])
        heapq.heappush(heap, entry)

    def spy_family_rows(state, change, *walk):
        kept = list(family_rows(state, change, *walk))
        if change >= 0:
            return iter(kept)
        parent, move = made_from.get(id(state), (None, None))
        assert type(move) is not R1Insert, (state, change)
        every = list(family_rows(state, change))
        dropped = [row for row in every if row not in kept]
        assert [row for row in every if row not in dropped] == kept, (state, change)
        expected = []
        if type(move) is R2Insert and change == -2:
            expected = [(tuple(sorted(state.signs.keys() - parent.signs.keys(), key=label_key)),)]
        assert [fields for fields, _, _ in dropped] == expected, (state, change)
        for fields, _, _ in dropped:
            child = apply_move(state, kinds[change](*fields))
            assert canonical(child) == canonical(parent), (state, change)
            seen["undo"] += 1
        return iter(kept)

    monkeypatch.setattr(search, "_edit", build)
    monkeypatch.setattr(search, "_canonical_code", spy_canonical_code)
    monkeypatch.setattr(search, "_family_rows", spy_family_rows)
    monkeypatch.setattr(search, "heapq", SimpleNamespace(heappush=spy_push, heappop=heapq.heappop))
    for d, max_chords in _truncated_cases(exhaustive_corpus):
        for max_states in (*TRUNCATED_BUDGETS, 40, 200):
            for store in (made_from, built, keyed, pushed):
                store.clear()
            limits = SearchLimits(max_states, allow_insertions=True, max_chords=max_chords)
            explored = simplify(d, limits).states_explored
            # the expanded states: the start, then the states the search's
            # edits built (apply_move builds the final diagram)
            assert len(built) == explored - 1, (d, max_chords, max_states)
            for state, children, unkeyed in [(d, 0, []), *built]:
                deletions = {change for change in pushed[id(state)] if change < 0}
                if type(made_from.get(id(state), (None, None))[1]) is R1Insert:
                    assert not deletions and not unkeyed, (d, max_chords, max_states, state)
                    seen["r1-made"] += 1
                    seen["keyed"] += children
                else:
                    expected = {change for change in (-1, -2) if state.n + change >= 0}
                    assert deletions == expected, (d, max_chords, max_states, state)
                    seen["other"] += 1
    assert seen["r1-made"] > 2_000 and seen["keyed"] > 3_000, seen
    assert seen["other"] > 2_000 and seen["undo"] > 400, seen


def _insertion_workload_inputs(monkeypatch) -> list:
    """The benchmark's ``insertion`` inputs at seeds 1 to 5, each parsed."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    inputs = importlib.import_module("inputs")
    return [parse_gauss_code(code) for seed in range(1, 6) for _, code in inputs.insertion_inputs(seed)]


def test_search_skips_only_children_it_has_keyed(exhaustive_corpus, monkeypatch):
    # a state an R1 insertion built pushes its R3 family only when the one
    # triple that can hold its kink is movable, walks only that triple's R3,
    # and walks no R1 insertion that a sibling, expanded first, keys; no
    # other state leaves out an R3 or an R1 insertion.  At such a state's
    # expansion every R3 child of a triple without its kink is keyed, and
    # it pushes an R3 family exactly when the full find has a movable
    # triple that holds the kink; each child a walk leaves out is keyed
    # when its family is walked.  Spy on the search, over the
    # _truncated_cases, the benchmark's insertion inputs and the two-chord
    # diagrams with room for three insertions: only there does an R1-made
    # state's R1 walk read a child its parent's walk left out, which holds
    # a code above every code and so makes no sibling skip
    search = importlib.import_module("gaussdiag.simplify")
    edit, family_rows, canonical_code = search._edit, search._family_rows, search._canonical_code
    keyed = set()  # every code the search has made
    # each state the search's edits built, kept so that no id is reused, and
    # for an R1-made state whether a movable triple holds its kink, else None
    built = []
    pushed = set()  # the ids of the diagrams whose R3 family was pushed
    seen = collections.Counter()

    def spy_canonical_code(chords, bases):
        code = canonical_code(chords, bases)
        keyed.add(code)
        return code

    def build(parent, change, fields):
        state, movable = edit(parent, change, fields), None
        if change == 1:
            (kink,) = state.signs.keys() - parent.signs.keys()
            r3s = list(family_rows(state, 0))
            for (triple,), chords, bases in r3s:
                if kink not in triple:
                    assert canonical_code(chords, bases) in keyed, (state, triple)
                    seen["keyed at expansion"] += 1
            movable = any(kink in triple for (triple,), _, _ in r3s)
        built.append((state, movable))
        return state

    def spy_push(heap, entry):
        if not entry[1] and entry[4] == 0:  # an R3 family: its parent's diagram
            pushed.add(id(entry[5]))
        heapq.heappush(heap, entry)

    def spy_family_rows(state, change, made, skip):
        kept = list(family_rows(state, change, made, skip))
        if change not in (0, 1):  # the R2 deletion that undoes an insertion: see above
            return iter(kept)
        every = list(family_rows(state, change))
        left_out = [row for row in every if row not in kept]
        assert [row for row in every if row not in left_out] == kept, (state, change)
        assert len(made) == 1 or not left_out, (state, change, made)
        for fields, chords, bases in left_out:
            assert canonical_code(chords, bases) in keyed, (state, change, made, fields)
            seen[change] += 1
        seen["walked", change] += len(kept)
        return iter(kept)

    monkeypatch.setattr(search, "_edit", build)
    monkeypatch.setattr(search, "_canonical_code", spy_canonical_code)
    monkeypatch.setattr(search, "_family_rows", spy_family_rows)
    monkeypatch.setattr(search, "heapq", SimpleNamespace(heappush=spy_push, heappop=heapq.heappop))
    cases = [
        (d, max_chords, max_states)
        for d, max_chords in _truncated_cases(exhaustive_corpus)
        for max_states in (*TRUNCATED_BUDGETS, 40, 200)
    ]
    cases += [(d, d.n + 2, 60) for d in _insertion_workload_inputs(monkeypatch)]
    cases += [(d, d.n + 3, 400) for d in exhaustive_corpus if d.n == 2]
    for d, max_chords, max_states in cases:
        for store in (keyed, built, pushed):
            store.clear()
        simplify(d, SearchLimits(max_states, allow_insertions=True, max_chords=max_chords))
        for state, movable in built:
            if movable is not None:
                assert (id(state) in pushed) == movable, (d, max_chords, max_states, state)
                seen["r3 family" if movable else "no r3 family"] += 1
    assert seen["keyed at expansion"] > 1_000 and seen[0] > 50 and seen[1] > 10_000, seen
    assert seen["r3 family"] > 300 and seen["no r3 family"] > 5_000, seen


def test_search_generates_only_insertions_that_fit(exhaustive_corpus, monkeypatch):
    # record every move simplify keys after expanding its start state, as
    # the moves its walk's fields name; yielding the state's own rows makes
    # each child a known state, so every chord count's children are keyed
    # in turn, fewest chords first
    search = importlib.import_module("gaussdiag.simplify")
    kind = {added: kind for kind, added in CHANGE.items()}
    family_rows = search._family_rows
    generated = []

    def record(state, change, *walk):
        rows = _rows(state.endpoints, state.signs)
        for fields, _, _ in family_rows(state, change, *walk):
            generated.append(kind[change](*fields))
            yield fields, rows[0], rows[1]

    monkeypatch.setattr(search, "_family_rows", record)
    for d in [d for d in exhaustive_corpus if 1 <= d.n <= 3]:  # the empty one is never expanded
        for room in (0, 1, 2):
            expected = [
                move for move in oracle_enumerate_moves(d, include_insertions=room >= 1)
                if room >= 2 or not isinstance(move, R2Insert)
            ]
            generated.clear()
            limits = SearchLimits(max_states=1, allow_insertions=True, max_chords=d.n + room)
            simplify(d, limits)
            assert generated == sorted(expected, key=lambda move: CHANGE[type(move)]), (d, room)
