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

No oracle is needed: the detectors are checked against themselves.  The
images are built by the public constructor from the corpus diagrams,
which the library built, so every detector reads position maps made both
ways.
"""

from __future__ import annotations

import pytest

from gaussdiag import (
    HEAD,
    TAIL,
    Endpoint,
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
