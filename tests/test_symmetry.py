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
is the image's child up to rotation.

No oracle is needed: the detectors and ``apply_move`` are checked against
themselves.  The images are built by the public constructor from the
corpus diagrams, which the library built, so every detector reads
position maps made both ways, and ``apply_move`` runs both with the holder
that the enumerated corpus diagrams share and without one.
"""

from __future__ import annotations

import collections

import pytest

from gaussdiag import (
    HEAD,
    TAIL,
    Endpoint,
    apply_move,
    enumerate_moves,
    make_diagram,
    r1_removable_chords,
    r2_removable_pairs,
    r3_movable_triples,
)


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
