"""Where moves can be made, read from the endpoints alone: the sign-free
move sites.

A move's site depends on where a diagram's endpoints sit, except for one
sign test that ``moves`` applies last.  An R1 chord has its head and tail
adjacent and needs no sign test.  An R2 pair has adjacent heads and
adjacent tails; ``moves.r2_removable_pairs`` keeps the pairs of opposite
signs.  An R3 triple is matched when its six endpoints tile into adjacent
pairs, and each chord's 3-sign is its sign times a sign-free factor,
parity * direction (see ``moves``); ``moves`` keeps a triple when some
tiling's three signed factors agree.  The finds here are those sites:
``_r1_sites``, ``_r2_sites`` and ``_r3_sites``, which holds every matched
triple with each qualifying tiling's arcs, parities and factors from the
one sign-free kernel ``_tilings``.

An endpoint arrangement of n chords carries 2^n sign maps, and its
diagrams from ``diagram.enumerate_diagrams`` share one holder, their
``_sites`` dict, so the exhaustive corpus finds each kind of site once
per arrangement, not once per sign map (``_sign_free``).  Any other
diagram (parsed, rewritten, canonical, random or constructed) holds none
and keeps nothing, so the search's R3 walk calls the detector on its
parent itself, or for a state an R1 insertion made reads the one triple
next to its kink (``_kink_triple``), and copies no diagram to share a
find.  The holder also keeps ``moves.apply_move``'s deletion and R3
rewrites, which are sign-free too.  A holder never keeps signs.

The R2 pair order and the R3 triple order are ``label_key`` order, read
from the table ``diagram._LABEL_KEYS``, which grows by one entry per
label seen.

Every precondition is an adjacency, read one way: the finds walk
``_adjacent_pairs``, and a test on two positions is ``diagram._adjacent``
on the diagram's position map.
"""

from __future__ import annotations

from .diagram import HEAD, TAIL, GaussDiagram, _LABEL_KEYS, _adjacent, _interleaved


def _adjacent_pairs(d: GaussDiagram):
    """Each cyclically adjacent endpoint pair: the endpoints at positions p
    and p + 1 (mod 2n), for p = 0 .. 2n - 1."""
    eps = d.endpoints
    return zip(eps, eps[1:] + eps[:1])


def _sign_free(d: GaussDiagram, find):
    """``find(d)``, sites of one kind that d's endpoints alone determine:
    kept in the holder d shares with its arrangement's other sign maps,
    where the first to ask finds them, or found afresh when d has none."""
    sites = d._sites
    if sites is None:
        return find(d)
    found = sites.get(find)
    if found is None:
        found = sites[find] = find(d)
    return found


def _r1_sites(d: GaussDiagram) -> dict:
    """The chords whose head and tail are adjacent, as the keys of a dict,
    ordered by the position where the adjacent pair starts (the p of the
    (p, p+1) adjacency)."""
    return dict.fromkeys(x.chord for x, y in _adjacent_pairs(d) if x.chord == y.chord)


def _r2_sites(d: GaussDiagram) -> list:
    """The R2 candidates: chord pairs with adjacent heads and adjacent
    tails, ordered by their sorted endpoint positions, each pair in
    ``label_key`` order."""
    m = len(d.endpoints)
    pos = d._pos
    keys = _LABEL_KEYS
    found = []
    # adjacent heads never share a chord
    for x, y in _adjacent_pairs(d):
        if x.role == y.role == HEAD:
            (ta, ha), (tb, hb) = pos[x.chord], pos[y.chord]
            if _adjacent(m, ta, tb):
                a, b = x.chord, y.chord
                pair = (a, b) if keys[a] < keys[b] else (b, a)
                found.append((sorted((ta, ha, tb, hb)), pair))
    return [pair for _, pair in sorted(found)]


def _tilings(d: GaussDiagram, labels) -> list:
    """The sign-free kernel: the qualifying tilings of the triple's six
    endpoints, each as (arcs, parities, factors) with arcs = (heads_arc,
    tails_arc, mixed_arc), and each chord's parity and factor parity *
    direction in the order of ``labels``.  A chord's 3-sign is its sign
    times its factor.

    The six positions, sorted as q0 < ... < q5, admit exactly two tilings
    into consecutive pairs: (q0 q1)(q2 q3)(q4 q5) and (q1 q2)(q3 q4)(q5 q0).
    Both can qualify only when the six endpoints fill the whole circle.  A
    tiling qualifies when each pair is adjacent in the full diagram, one
    pair joins two heads (then another joins two tails, and the third a
    head and a tail) and the mixed pair joins distinct chords.

    Everything is read from the endpoint positions: a chord's direction
    from the indices of the arcs holding its tail and head (arcs in ccw
    order = ascending start), its parity from the interleaving of its
    positions with those of the other two chords.
    """
    eps = d.endpoints
    m = len(eps)
    pos = d._pos
    a, b, c = labels
    ends = (ta, ha), (tb, hb), (tc, hc) = pos[a], pos[b], pos[c]
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
        factors = []
        for (t, h), parity in zip(ends, parities):
            i = (t >= s0) + (t >= s1) + (t >= s2)
            j = (h >= s0) + (h >= s1) + (h >= s2)
            direction = 1 if (j - i) % 3 == 1 else -1
            factors.append(parity * direction)
        out.append(((heads, tails, mixed), parities, factors))
    return out


def _r3_candidates(d: GaussDiagram) -> set:
    """The matched triples, as frozensets of labels.

    Candidates come from head adjacencies.  A qualifying tiling pairs the
    heads of two chords a, b on its heads arc, so the third chord c has its
    head on the mixed arc, next to a tail of a or b, and its tail on the
    tails arc (the mixed arc joins two distinct chords), next to the other
    tail of a or b.  So c's tail is a cyclic neighbour of one tail of a, b
    and c's head of the other: at most four candidates per head adjacency,
    O(n) triples in all.  Conversely, three disjoint adjacent pairs of six
    endpoints always form one of the two tilings ``_tilings`` tries, and
    these pairs qualify, so every candidate is matched.  The walk visits
    every head adjacency; the triples that hold a kink need none of it
    (see ``_kink_triple``).
    """
    eps = d.endpoints
    m = len(eps)
    pos = d._pos
    candidates = set()
    for x, y in _adjacent_pairs(d):
        if x.role == y.role == HEAD:
            a, b = x.chord, y.chord
            ta, tb = pos[a][0], pos[b][0]
            for t, other in ((ta, tb), (tb, ta)):
                for z in (eps[t - 1], eps[(t + 1) % m]):
                    c = z.chord
                    if (z.role == TAIL and c != a and c != b
                            and _adjacent(m, pos[c][1], other)):
                        candidates.add(frozenset((a, b, c)))
    return candidates


def _r3_sites(d: GaussDiagram) -> dict:
    """The R3 find: each of the ``_r3_candidates``, as its labels in
    ``label_key`` order, mapped to its ``_tilings``, which the kernel finds
    once per candidate.  The triples come in detection order, by their
    labels' keys, which is ``itertools.combinations`` order over the
    labels sorted by ``label_key``.  Its entries for the triples that hold
    a kink are at most one, ``_kink_triple``'s, which the search's R3 walk
    of a state an R1 insertion made reads instead."""
    found = {}
    for a, b, c in sorted([sorted(map(_LABEL_KEYS.__getitem__, t)) for t in _r3_candidates(d)]):
        t = a[2], b[2], c[2]  # a label is the last entry of its key
        found[t] = _tilings(d, t)
    return found


def _kink_triple(d: GaussDiagram, kink):
    """The one triple that can be matched holding ``kink``, a chord whose
    endpoints sit at adjacent positions p and p + 1 (mod 2n): the kink and
    the chords at p - 1 and p + 2, in ``label_key`` order, or None when
    those two are one chord (as they are at n <= 2).

    A qualifying tiling (see ``_tilings``) of a triple holding the kink
    cannot pair the kink's two endpoints with each other: a mixed pair
    must join distinct chords, and a heads or tails pair needs two equal
    roles.  Each pair joins positions adjacent in d, so the endpoint at p
    pairs with the one at p - 1, and the endpoint at p + 1 with the one at
    p + 2: their chords are the triple's other two.  So the full find's
    entries for the triples that hold the kink are this triple's, when its
    ``_tilings`` are not empty, and none otherwise.  The triple is read
    in O(1), whatever the size of d.
    """
    eps = d.endpoints
    m = len(eps)
    tail, head = d._pos[kink]
    p = tail if head == (tail + 1) % m else head
    a, b = eps[p - 1].chord, eps[(p + 2) % m].chord
    keys = sorted(map(_LABEL_KEYS.__getitem__, (kink, a, b)))
    return None if a == b else tuple(key[2] for key in keys)  # a label is its key's last entry
