"""Core diagram type: validation, positions, crossing, canonical form,
enumeration, and the seeded generator."""

from __future__ import annotations

import copy
import pickle
import re

import pytest

from gaussdiag import (
    EMPTY,
    HEAD,
    TAIL,
    Endpoint,
    adjacent,
    canonical,
    chords_cross,
    enumerate_diagrams,
    make_diagram,
    parse_gauss_code,
    random_diagram,
    rotate,
    same_diagram,
    serialize_gauss_code,
    writhe,
)

TREFOIL = "O1- O2- U1- U2-"


def trefoil():
    return parse_gauss_code(TREFOIL)


# ------------------------------------------------------------- construction


def test_make_diagram_trefoil():
    d = make_diagram(
        [Endpoint("1", TAIL), Endpoint("2", TAIL), Endpoint("1", HEAD), Endpoint("2", HEAD)],
        {"1": -1, "2": -1},
    )
    assert d.n == 2
    assert d.chords() == ["1", "2"]
    assert serialize_gauss_code(d) == TREFOIL


def test_empty_diagram():
    assert EMPTY.n == 0
    assert EMPTY.endpoints == ()
    assert serialize_gauss_code(EMPTY) == ""


@pytest.mark.parametrize(
    "endpoints, signs, message",
    [
        ([("1", TAIL), ("1", TAIL), ("1", HEAD), ("2", HEAD)], {"1": 1, "2": 1},
         "duplicate tail for chord 1"),
        ([("1", TAIL), ("1", HEAD), ("2", TAIL)], {"1": 1, "2": 1},
         "chord 2 appears only once"),
        ([("1", TAIL), ("1", HEAD)], {"1": 1, "2": 1},
         "sign given for unknown chord 2"),
        ([("1", TAIL), ("1", HEAD)], {"1": 0},
         "sign for chord 1 must be +1 or -1, got 0"),
        ([("1", TAIL), ("1", HEAD)], {},
         "missing sign for chord 1"),
        ([("a b", TAIL), ("a b", HEAD)], {"a b": 1},
         "invalid chord label 'a b'"),
        ([("1", "mid"), ("1", HEAD)], {"1": 1},
         "invalid role 'mid' for chord 1"),
    ],
)
def test_validation_errors(endpoints, signs, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        make_diagram([Endpoint(c, r) for c, r in endpoints], signs)


@pytest.mark.parametrize("sign", [True, 1.0, -1.0])
def test_signs_must_be_exact_ints(sign):
    with pytest.raises(ValueError, match=re.escape(f"must be +1 or -1, got {sign!r}")):
        make_diagram([Endpoint("1", TAIL), Endpoint("1", HEAD)], {"1": sign})


def test_diagram_is_immutable_and_hashable():
    d = trefoil()
    with pytest.raises(Exception):
        d.endpoints = ()
    assert hash(d) == hash(trefoil())
    assert d == trefoil()


def test_endpoint_repr():
    assert repr(Endpoint("1", TAIL)) == "T1"
    assert repr(Endpoint("2", HEAD)) == "H2"


def test_diagram_repr_shows_code():
    assert repr(trefoil()) == "GaussDiagram('O1- O2- U1- U2-')"
    assert repr(EMPTY) == "GaussDiagram('')"


def test_pickle_and_deepcopy_roundtrip():
    for d in [trefoil(), EMPTY] + [random_diagram(seed % 6, seed) for seed in range(6)]:
        for clone in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
            assert clone == d
            assert hash(clone) == hash(d)


# ----------------------------------------------------------------- accessors


def test_positions_and_signs():
    d = trefoil()
    assert d.tail_position("1") == 0
    assert d.head_position("1") == 2
    assert d.positions_of("2") == (1, 3)
    assert d.sign_of("1") == -1
    with pytest.raises(ValueError, match="unknown chord"):
        d.sign_of("9")


def test_chords_first_appearance_order():
    d = parse_gauss_code("O3+ U4- O1+ U2- U1+ U3+ O2- O4-")
    assert d.chords() == ["3", "4", "1", "2"]


def test_adjacency_wraps():
    d = trefoil()
    assert adjacent(d, 3, 0)
    assert adjacent(d, 0, 3)
    assert not adjacent(d, 0, 2)
    with pytest.raises(ValueError, match="positions must differ"):
        adjacent(d, 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        adjacent(d, 0, 4)


def test_chords_cross_trefoil():
    d = trefoil()
    assert chords_cross(d, "1", "2")
    assert chords_cross(d, "2", "1")


def test_chords_cross_nested_pair():
    d = parse_gauss_code("O1+ O2+ U2+ U1+")
    assert not chords_cross(d, "1", "2")


def test_writhe():
    assert writhe(trefoil()) == -2
    assert writhe(EMPTY) == 0
    assert writhe(parse_gauss_code("O1+ U2- U1+ O2-")) == 0


# ------------------------------------------------------- rotation, canonical


def test_rotate_cycles_reading_point():
    d = trefoil()
    assert serialize_gauss_code(rotate(d, 1)) == "O2- U1- U2- O1-"
    assert rotate(d, 4) == d
    assert rotate(rotate(d, 3), 1) == d


def test_canonical_trefoil_value():
    assert serialize_gauss_code(canonical(trefoil())) == "O1- O2- U1- U2-"


def test_canonical_idempotent_and_rotation_invariant():
    d = parse_gauss_code("O3+ U4- O1+ U2- U1+ U3+ O2- O4-")
    c = canonical(d)
    assert canonical(c) == c
    for k in range(len(d.endpoints)):
        assert canonical(rotate(d, k)) == c


def test_same_diagram_accepts_relabeling():
    a = parse_gauss_code("O1+ U2- U1+ O2-")
    b = parse_gauss_code("O7+ Ux- U7+ Ox-")
    assert same_diagram(a, b)
    assert not same_diagram(a, trefoil())


def test_same_diagram_reverse_reading():
    # reading the trefoil code backwards lands in the same rotation class
    assert same_diagram(trefoil(), parse_gauss_code("U2- U1- O2- O1-"))


def test_same_diagram_empty():
    assert same_diagram(parse_gauss_code(""), EMPTY)
    assert not same_diagram(parse_gauss_code(""), trefoil())
    assert not same_diagram(trefoil(), parse_gauss_code(""))


# ------------------------------------------------------ enumeration, random


def test_enumeration_counts():
    assert [sum(1 for _ in enumerate_diagrams(n)) for n in range(4)] == [1, 4, 48, 960]


def test_enumeration_distinct_and_valid():
    seen = set()
    for d in enumerate_diagrams(3):
        code = serialize_gauss_code(d)
        assert code not in seen
        seen.add(code)
        assert d.n == 3
    assert len(seen) == 960


def test_random_diagram_deterministic():
    a = random_diagram(5, 123)
    b = random_diagram(5, 123)
    assert a == b
    assert a != random_diagram(5, 124)


def test_random_diagram_valid_and_sized():
    for seed in range(30):
        d = random_diagram(seed % 7, seed)
        assert d.n == seed % 7
        # reconstructing through make_diagram re-runs all invariants
        assert make_diagram(d.endpoints, dict(d.signs)) == d


def test_random_diagram_zero_chords():
    assert random_diagram(0, 42) == EMPTY
