"""Virtual knot invariants written from their definitions, as test oracles.

Kauffman's affine index polynomial (*An affine index polynomial invariant
of virtual knots*, JKTR 2013) reads a Gauss diagram chord by chord.  Take a
chord c and the counterclockwise arc from its tail to its head.  A chord
that crosses c has exactly one endpoint on that arc; any other chord has
none or both.  The index W(c) sums, over the endpoints on the arc, +sign(e)
for the head of a chord e and -sign(e) for its tail, so a chord with both
ends on the arc adds nothing.  W(c) is not multiplied by sign(c): that
variant is not invariant under R2.  Then

    P = sum over chords c of sign(c) * (t^W(c) - 1),

held here as ``{k: a_k}``, the coefficient a_k of t^k, zero coefficients
left out.  The odd writhe J sums the signs of the odd chords, those that
cross an odd number of other chords; a chord is odd iff W(c) is, so J is
the sum of P's odd coefficients.  Each chord adds its sign to at most one
coefficient a_k with k != 0, so B = sum over k != 0 of |a_k| is a lower
bound on the chord count of the diagram and of every diagram its moves
reach.  ``keeps_the_invariants`` checks a search result against both.
"""

from __future__ import annotations

from collections import Counter

from gaussdiag import HEAD


def _arcs(d) -> dict:
    """Each chord's label -> the endpoints on the counterclockwise arc from
    its tail to its head, both left out."""
    eps = d.endpoints
    m = len(eps)
    at = {(ep.chord, ep.role == HEAD): i for i, ep in enumerate(eps)}
    return {
        c: [eps[(at[c, False] + k) % m] for k in range(1, (at[c, True] - at[c, False]) % m)]
        for c in d.signs
    }


def index(d) -> dict:
    """Each chord's label -> W(c)."""
    signs = d.signs
    return {
        c: sum(signs[ep.chord] if ep.role == HEAD else -signs[ep.chord] for ep in arc)
        for c, arc in _arcs(d).items()
    }


def affine_index_polynomial(d, weight=lambda sign, w: w) -> dict:
    """P as ``{k: a_k}``, each chord's exponent being ``weight(sign(c),
    W(c))``: W(c) itself, unless a test asks for another convention."""
    p = Counter()
    for c, w in index(d).items():
        sign = d.signs[c]
        p[weight(sign, w)] += sign
        p[0] -= sign
    return {k: a for k, a in p.items() if a}


def odd_writhe(d) -> int:
    """J: the sum of the signs of the chords that cross an odd number of
    other chords, each crossing chord having one endpoint on the arc."""
    odd = 0
    for c, arc in _arcs(d).items():
        ends = Counter(ep.chord for ep in arc)
        if sum(count == 1 for count in ends.values()) % 2:
            odd += d.signs[c]
    return odd


def chord_bound(d) -> int:
    """B: the sum of |a_k| over P's coefficients with k != 0, at most the
    chord count of every diagram with d's P."""
    return sum(abs(a) for k, a in affine_index_polynomial(d).items() if k)


def keeps_the_invariants(start, final) -> bool:
    """Whether ``final`` has ``start``'s P and at least B(start) chords, as
    every diagram that moves reach from ``start`` must."""
    return (affine_index_polynomial(final) == affine_index_polynomial(start)
            and final.n >= chord_bound(start))
