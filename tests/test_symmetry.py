"""Metamorphic checks: move detection commutes with the knot's symmetries.

Three involutions of Gauss diagrams map a virtual knot to its reverse or
to a mirror image (Kauffman, *Virtual knot theory*, 1999):

- *reverse*: read the circle the other way, keeping roles and signs;
- *flip*: swap each chord's head and tail, keeping signs;
- *negate*: negate every sign.

Each keeps every chord label, and each carries R1 sites (a chord with
adjacent ends), R2 pairs (opposite signs, adjacent heads, adjacent tails)
and movable triples (equal 3-signs, each the product of sign, parity and
direction, of which each map negates all three or none) to sites of the
same kind on the same chords.  So the R1 chords, the R2 pairs and the
movable triples of a diagram and of its image must be the same sets.

Each map also carries a move's child to the child of the same move on
the image: a deletion cuts the same chords, and R3 swaps the same arcs,
read the other way by *reverse*.  So, move by move, the image of a child
is the image's child up to rotation.  So without insertions the states a
search can reach from a diagram and from its image correspond one to
one, chord count for chord count, and an exhaustive ``simplify`` of the
two must reach the same final chord count and the same ``limit_hit``.
The offered R2 insertions do not commute with *reverse* and *flip* (a
shared gap takes its two pairs in one order only), yet exhaustive
searches with insertions agree too, on the small diagrams checked.

Every offered move should also have an offered inverse.  An R1 or R2
insertion is undone exactly by deleting the chords it added, which the
child offers; the search relies on this to skip that deletion.  An R1
deletion is undone, up to rotation, by some offered R1 insertion, and an
R3 move by some offered R3 move, except twelve moves, each into one of the
twelve three-chord diagrams with two movable pairings, where R3 swaps the
first pairing and the way back is the other one.

No oracle is needed: the detectors, ``apply_move`` and the search are
checked against themselves.  The images are built by the public
constructor from the corpus diagrams, which the library built, so every
detector reads position maps made both ways, and ``apply_move`` runs
both with the holder that the enumerated corpus diagrams share and
without one.
"""

from __future__ import annotations

import collections

import pytest

from gaussdiag import (
    HEAD,
    TAIL,
    Endpoint,
    R1Delete,
    R1Insert,
    R2Delete,
    R2Insert,
    R3,
    SearchLimits,
    apply_move,
    canonical,
    enumerate_moves,
    make_diagram,
    r1_removable_chords,
    r2_removable_pairs,
    r3_movable_triples,
    simplify,
)
from gaussdiag.diagram import label_key
from gaussdiag.moves import _qualifying_tilings


def reverse(d):
    return make_diagram(d.endpoints[::-1], d.signs)


def flip(d):
    ends = [Endpoint(ep.chord, HEAD if ep.role == TAIL else TAIL) for ep in d.endpoints]
    return make_diagram(ends, d.signs)


def negate(d):
    return make_diagram(d.endpoints, {c: -s for c, s in d.signs.items()})


MAPS = {"reverse": reverse, "flip": flip, "negate": negate}


def _sites(d) -> tuple:
    """The R1 chords, the R2 pairs and the movable triples of d, as sets."""
    return set(r1_removable_chords(d)), set(r2_removable_pairs(d)), set(r3_movable_triples(d))


@pytest.mark.parametrize("name", MAPS)
def test_detection_commutes_with_the_symmetries(name, exhaustive_corpus, random_corpus):
    image = MAPS[name]
    found = [0, 0, 0]
    for d in exhaustive_corpus + random_corpus:
        mapped = image(d)
        assert image(mapped) == d, d  # an involution
        sites = _sites(d)
        assert _sites(mapped) == sites, (name, d)
        found = [total + len(s) for total, s in zip(found, sites)]
    # the corpora hold many sites of each kind, so the check is not vacuous
    assert min(found) > 5_000, found


def _up_to_rotation(d) -> tuple:
    """d's least rotation, as (label, role) pairs, with its signs."""
    ends = [(ep.chord, ep.role) for ep in d.endpoints]
    return min((ends[k:] + ends[:k] for k in range(len(ends))), default=[]), dict(d.signs)


@pytest.mark.parametrize("name", MAPS)
def test_children_commute_with_the_symmetries(name, exhaustive_corpus, random_corpus):
    image = MAPS[name]
    children = collections.Counter()
    for d in [d for d in exhaustive_corpus if d.n <= 3] + random_corpus:
        mapped = image(d)
        moves = enumerate_moves(d)
        assert set(enumerate_moves(mapped)) == set(moves), (name, d)
        for move in moves:
            child = _up_to_rotation(apply_move(mapped, move))
            assert child == _up_to_rotation(image(apply_move(d, move))), (name, d, move)
        children.update(type(move).__name__ for move in moves)
    # every kind of child occurs often, so the check is not vacuous
    assert len(children) == 3 and min(children.values()) > 300, children


# the inverse checks walk every 13th insertion of each diagram, from an
# offset that cycles with the diagram's index, so each gap and variant is
# checked across the corpus and the run stays at a few seconds
STRIDE = 13


def _corpus(exhaustive_corpus, random_corpus) -> list:
    return [d for d in exhaustive_corpus if d.n <= 3] + random_corpus


def _insertions(d, i: int) -> list:
    moves = enumerate_moves(d, include_insertions=True)
    return [m for m in moves if isinstance(m, (R1Insert, R2Insert))][i % STRIDE::STRIDE]


def test_insertions_are_undone_by_deleting_their_chords(exhaustive_corpus, random_corpus):
    # exactly: the endpoints, the sign order and the position map come
    # back, and the child offers the deletion
    undone = collections.Counter()
    for i, d in enumerate(_corpus(exhaustive_corpus, random_corpus)):
        for move in _insertions(d, i):
            child = apply_move(d, move)
            added = tuple(sorted(child.signs.keys() - d.signs.keys(), key=label_key))
            if isinstance(move, R1Insert):
                undo, offered = R1Delete(*added), [(c,) for c in r1_removable_chords(child)]
            else:
                undo, offered = R2Delete(added), r2_removable_pairs(child)
            assert added in offered, (d, move)
            back = apply_move(child, undo)
            assert back.endpoints == d.endpoints, (d, move)
            assert tuple(back.signs.items()) == tuple(d.signs.items()), (d, move)
            assert back._pos == d._pos, (d, move)
            undone[type(move).__name__] += 1
    assert min(undone.values()) > 4_000, undone


def test_r1_deletions_are_undone_by_an_offered_insertion(exhaustive_corpus, random_corpus):
    # up to rotation: the insertion puts the chord back at some gap
    undone = 0
    for d in _corpus(exhaustive_corpus, random_corpus):
        form = canonical(d)
        for c in r1_removable_chords(d):
            child = apply_move(d, R1Delete(c))
            inserts = [m for m in enumerate_moves(child, True) if isinstance(m, R1Insert)]
            assert any(canonical(apply_move(child, m)) == form for m in inserts), (d, c)
            undone += 1
    assert undone > 2_000, undone


def _two_pairings(d) -> bool:
    """Whether some triple of d has two movable tilings."""
    return any(
        sum(movable for _, _, movable in _qualifying_tilings(d, t)) == 2
        for t in r3_movable_triples(d)
    )


def test_r3_moves_are_undone_by_an_offered_r3(exhaustive_corpus, random_corpus):
    # up to rotation, for every move but twelve, each into a diagram with
    # two movable pairings whose offered R3 swaps the other pairing
    undone, stuck = 0, []
    for d in _corpus(exhaustive_corpus, random_corpus):
        form = canonical(d)
        for t in r3_movable_triples(d):
            child = apply_move(d, R3(t))
            back = [canonical(apply_move(child, R3(u))) for u in r3_movable_triples(child)]
            if form in back:
                undone += 1
            else:
                stuck.append((d, child))
    # the seeded corpus repeats two of the twelve
    assert all(d.n == 3 and _two_pairings(c) for d, c in stuck), stuck
    assert len(set(stuck)) == 12, stuck
    assert undone > 300, undone


# a budget no search below reaches, so each is exhaustive
EXHAUSTIVE = 200_000


@pytest.mark.parametrize("name", MAPS)
def test_searches_commute_with_the_symmetries(name, exhaustive_corpus, random_corpus):
    # each diagram with n <= 4 up to rotation and the seeded corpus without
    # insertions, and each diagram with n <= 2 up to rotation with them
    # (the chord cap is n + 2 for both)
    image = MAPS[name]
    forms = {}
    for d in exhaustive_corpus:
        forms.setdefault(canonical(d), d)
    cases = [(d, False) for d in [*forms.values(), *random_corpus]]
    cases += [(d, True) for d in forms.values() if d.n <= 2]
    finals = collections.Counter()
    for d, insertions in cases:
        limits = SearchLimits(EXHAUSTIVE, insertions)
        found, mapped = simplify(d, limits), simplify(image(d), limits)
        assert not found.limit_hit, d
        assert (mapped.final.n, mapped.limit_hit) == (found.final.n, found.limit_hit), (name, d)
        finals[insertions, found.final.n > 0] += 1
    # knots that stop short of the unknot occur with insertions and without
    assert min(finals.values()) >= 2 and len(finals) == 4, finals
