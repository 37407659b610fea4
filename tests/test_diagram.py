"""Core diagram type: validation, positions, crossing, canonical form,
enumeration, and the seeded generator; the value types' shared record
behaviour (equality, hash, repr, pickling, immutability)."""

from __future__ import annotations

import copy
import inspect
import pickle
import re

import pytest

from gaussdiag import diagram
from gaussdiag import (
    EMPTY,
    HEAD,
    TAIL,
    CensusResult,
    ChordNumbers,
    Endpoint,
    R1Delete,
    R1Insert,
    R2Delete,
    R2Insert,
    R3,
    RenderOptions,
    SearchLimits,
    SimplifyResult,
    TraceCheck,
    TripleAnalysis,
    adjacent,
    analyze_triple,
    canonical,
    chords_cross,
    enumerate_diagrams,
    make_diagram,
    parse_gauss_code,
    random_diagram,
    reduce_greedy,
    rotate,
    same_diagram,
    serialize_gauss_code,
    writhe,
)

TREFOIL = "O1- O2- U1- U2-"


def trefoil():
    return parse_gauss_code(TREFOIL)


def _movable_triple():
    return analyze_triple(parse_gauss_code("O1- O2- U1- O3- U2- U3-"), ("1", "2", "3"))


# every value type: (a builder of one value, a value that differs from it,
# in its last field where it has more than one, the builder's value's repr,
# and the fields in order)
RECORDS = {
    "Endpoint": (lambda: Endpoint("1", TAIL), Endpoint("1", HEAD), "T1", ("chord", "role")),
    "GaussDiagram": (
        trefoil, parse_gauss_code("O1+ O2+ U1+ U2+"),
        "GaussDiagram('O1- O2- U1- U2-')", ("endpoints", "signs"),
    ),
    "R1Delete": (lambda: R1Delete("1"), R1Delete("2"), "R1Delete(chord='1')", ("chord",)),
    "R1Insert": (
        lambda: R1Insert(0, 1, True), R1Insert(0, 1, False),
        "R1Insert(gap=0, sign=1, head_first=True)", ("gap", "sign", "head_first"),
    ),
    "R2Delete": (
        lambda: R2Delete(("2", "1")), R2Delete(("1", "3")),
        "R2Delete(chords=('1', '2'))", ("chords",),
    ),
    "R2Insert": (
        lambda: R2Insert(0, 1, -1, False), R2Insert(0, 1, -1, True),
        "R2Insert(head_gap=0, tail_gap=1, first_sign=-1, crossed=False)",
        ("head_gap", "tail_gap", "first_sign", "crossed"),
    ),
    "R3": (lambda: R3(("3", "1", "2")), R3(("1", "2", "4")), "R3(chords=('1', '2', '3'))", ("chords",)),
    "ChordNumbers": (
        lambda: ChordNumbers(1, -1, 1, -1), ChordNumbers(1, -1, 1, 1),
        "ChordNumbers(sign=1, parity=-1, direction=1, three_sign=-1)",
        ("sign", "parity", "direction", "three_sign"),
    ),
    "TripleAnalysis": (
        _movable_triple, TripleAnalysis(True, True, (4, 5), (0, 1), (2, 3), {}),
        "TripleAnalysis(matched=True, movable=True, heads_arc=(4, 5), tails_arc=(0, 1), "
        "mixed_arc=(2, 3), chords={"
        "'1': ChordNumbers(sign=-1, parity=-1, direction=1, three_sign=1), "
        "'2': ChordNumbers(sign=-1, parity=1, direction=-1, three_sign=1), "
        "'3': ChordNumbers(sign=-1, parity=-1, direction=1, three_sign=1)})",
        ("matched", "movable", "heads_arc", "tails_arc", "mixed_arc", "chords"),
    ),
    "CensusResult": (
        lambda: CensusResult(3, 960, 768, 192, 32), CensusResult(3, 960, 768, 192, 31),
        "CensusResult(chords=3, total=960, matched=768, movable=192, movable_up_to_rotation=32)",
        ("chords", "total", "matched", "movable", "movable_up_to_rotation"),
    ),
    "SearchLimits": (
        SearchLimits, SearchLimits(max_chords=4),
        "SearchLimits(max_states=100000, allow_insertions=False, max_chords=None)",
        ("max_states", "allow_insertions", "max_chords"),
    ),
    "SimplifyResult": (
        lambda: reduce_greedy(parse_gauss_code("O1+ U1+ O2- U2-")),
        SimplifyResult(EMPTY, (), 3, True),
        "SimplifyResult(final=GaussDiagram(''), trace=((R1Delete(chord='1'), "
        "GaussDiagram('O1- U1-')), (R1Delete(chord='2'), GaussDiagram(''))), "
        "states_explored=3, limit_hit=False)",
        ("final", "trace", "states_explored", "limit_hit"),
    ),
    "TraceCheck": (
        lambda: TraceCheck(True), TraceCheck(True, 0), "TraceCheck(ok=True, failed_step=None)",
        ("ok", "failed_step"),
    ),
    "RenderOptions": (
        RenderOptions, RenderOptions(size=100), "RenderOptions(format='ascii', size=480)",
        ("format", "size"),
    ),
}


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
    # every value type: no field can be set or deleted, nor a new attribute
    # added; equal values hash alike, but a dict field cannot hash
    for make, _, _, fields in RECORDS.values():
        value = make()
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        if isinstance(value, TripleAnalysis):
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(make())


def test_endpoint_repr():
    assert repr(Endpoint("1", TAIL)) == "T1"
    assert repr(Endpoint("2", HEAD)) == "H2"


def test_diagram_repr_shows_code():
    assert repr(trefoil()) == "GaussDiagram('O1- O2- U1- U2-')"
    assert repr(EMPTY) == "GaussDiagram('')"


def test_copies_hold_the_shared_endpoints():
    # pickle and deepcopy give back the one shared endpoint of each label
    # and role, for a diagram's endpoints and for an endpoint alone; an
    # endpoint no diagram can hold comes back as a new one, outside the tables
    d = trefoil()
    for clone in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert clone.endpoints[0] is diagram._TAILS["1"]
        assert all(
            ep is (diagram._TAILS if ep.role == TAIL else diagram._HEADS)[ep.chord]
            for ep in clone.endpoints
        )
    for clone in (pickle.loads(pickle.dumps(Endpoint("2", HEAD))), copy.copy(Endpoint("2", HEAD))):
        assert clone is diagram._HEADS["2"]
    for odd in (Endpoint("not a label", TAIL), Endpoint("1", "over")):
        clone = pickle.loads(pickle.dumps(odd))
        assert clone == odd and clone is not odd
    assert "not a label" not in diagram._TAILS


def test_pickle_and_deepcopy_roundtrip():
    for d in [trefoil(), EMPTY] + [random_diagram(seed % 6, seed) for seed in range(6)]:
        for clone in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
            assert clone == d
            assert hash(clone) == hash(d)
    for make, _, _, _ in RECORDS.values():
        value = make()
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is type(value)
            assert clone == value and repr(clone) == repr(value)


@pytest.mark.parametrize("name", RECORDS)
def test_value_type_parity(name):
    # each value type behaves as it did as a frozen dataclass: equal only to
    # an equal value of its class, the same repr, keyword construction with
    # the same defaults, and __match_args__ in field order
    make, other, text, fields = RECORDS[name]
    value = make()
    assert type(value).__name__ == name
    assert value == make() and not value != make()
    assert value != other and not value == other
    for foreign in (object(), None, text, dict(zip(fields, fields))):
        assert value.__eq__(foreign) is NotImplemented
        assert value != foreign and not value == foreign
    assert repr(value) == text
    assert type(value).__match_args__ == fields
    assert type(value)(**{field: getattr(value, field) for field in fields}) == value
    # the constructor's parameters are the fields in order, so a record that
    # forwards its arguments positionally to the base puts each in its field
    assert tuple(inspect.signature(type(value).__init__).parameters)[1:] == fields


@pytest.mark.parametrize("name", [
    "Endpoint", "R1Insert", "R2Insert", "ChordNumbers", "TripleAnalysis", "CensusResult",
    "SearchLimits", "SimplifyResult", "TraceCheck", "RenderOptions",
])
def test_records_that_only_store_keep_each_argument_in_its_field(name):
    # distinct arguments, so a constructor that swaps two of them is seen
    # even where the pinned values of the parity test are equal
    cls = type(RECORDS[name][1])
    values = [object() for _ in cls._fields]
    record = cls(*values)
    assert all(getattr(record, field) is value for field, value in zip(cls._fields, values))


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
    # a position must be an int: a float or a bool is not read as one
    for p, q in ((0.5, 1), (1.0, 2), (True, 1)):
        with pytest.raises(ValueError, match=f"position {p!r} is not an int"):
            adjacent(d, p, q)


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
    assert rotate(d, -1) == rotate(d, 3)
    # a shift must be an int: a float, a string or a bool is not read as one
    for k in (1.5, "1", True):
        with pytest.raises(ValueError, match=f"shift {k!r} is not an int"):
            rotate(d, k)


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


@pytest.mark.parametrize("seed", [None, 2.0, True, "2"])
def test_seeds_must_be_exact_ints(seed):
    # random.Random takes each of these: None seeds from the clock, so the
    # diagram would change from run to run, and 2.0 and True would pass as
    # the seeds 2 and 1
    with pytest.raises(ValueError, match=f"^seed {re.escape(repr(seed))} is not an int$"):
        random_diagram(4, seed)


@pytest.mark.parametrize("n", [2.0, True, False, "2", None])
def test_chord_counts_must_be_exact_ints(n):
    # a float, a bool, a string or None is not read as a chord count, as a
    # shift is not by rotate: no TypeError, and True does not run as n = 1
    message = f"^chord count {re.escape(repr(n))} is not an int$"
    with pytest.raises(ValueError, match=message):
        random_diagram(n, 1)
    with pytest.raises(ValueError, match=message):
        list(enumerate_diagrams(n))


@pytest.mark.parametrize("n", [-1, 2.0, True, "2", None])
def test_enumerate_diagrams_checks_its_chord_count_at_the_call(n):
    # as random_diagram and census_movable_triples do: a bad chord count
    # raises when enumerate_diagrams is called, not at the first next()
    if n == -1:
        message = "^chord count must be nonnegative$"
    else:
        message = f"^chord count {re.escape(repr(n))} is not an int$"
    with pytest.raises(ValueError, match=message):
        enumerate_diagrams(n)
