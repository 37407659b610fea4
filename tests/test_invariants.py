"""Knot invariants as oracles for the moves: every move the library offers
keeps Kauffman's affine index polynomial P (see ``invariants``), and so the
odd writhe J, which is the sum of P's odd coefficients."""

from __future__ import annotations

from invariants import affine_index_polynomial, index, odd_writhe

from gaussdiag import EMPTY, R2Insert, apply_move, enumerate_moves, parse_gauss_code


def test_virtual_trefoil():
    # chord 1's arc holds chord 2's tail, chord 2's arc chord 1's head
    trefoil = parse_gauss_code("O1- O2- U1- U2-")
    assert index(trefoil) == {"1": 1, "2": -1}
    assert affine_index_polynomial(trefoil) == {1: -1, 0: 2, -1: -1}
    assert odd_writhe(trefoil) == -2


def test_index_is_not_multiplied_by_the_chords_sign():
    # the R2 pair x, y = 1, 2 put into the empty diagram has W = 1 for both,
    # so its terms cancel; weighting each index by its chord's sign would
    # give the pair the exponents 1 and -1, and a polynomial R2 changes
    pair = apply_move(EMPTY, R2Insert(0, 0, 1, True))
    assert index(pair) == {"1": 1, "2": 1}
    assert affine_index_polynomial(pair) == affine_index_polynomial(EMPTY) == {}
    assert affine_index_polynomial(pair, lambda sign, w: sign * w) == {1: 1, -1: -1}


def test_odd_writhe_is_the_sum_of_the_odd_coefficients(exhaustive_corpus, random_corpus):
    for d in exhaustive_corpus[::7] + random_corpus:
        p = affine_index_polynomial(d)
        assert odd_writhe(d) == sum(a for k, a in p.items() if k % 2), d


def test_every_offered_move_keeps_the_affine_index_polynomial(exhaustive_corpus):
    # every diagram with n <= 4: each deletion and R3, and for n <= 2 each
    # insertion too
    applied = 0
    for d in exhaustive_corpus:
        p = affine_index_polynomial(d)
        for move in enumerate_moves(d, d.n <= 2):
            assert affine_index_polynomial(apply_move(d, move)) == p, (d, move)
            applied += 1
    assert applied == 50_192


def test_insertions_keep_it_on_seeded_diagrams(random_corpus):
    # every fifth insertion into a dozen seeded diagrams of up to 8 chords
    for d in random_corpus[:12]:
        p = affine_index_polynomial(d)
        for move in enumerate_moves(d, True)[::5]:
            assert affine_index_polynomial(apply_move(d, move)) == p, (d, move)
