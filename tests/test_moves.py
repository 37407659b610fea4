"""Move detection, triple analysis, rewriting, and the small-n census.

The worked diagrams reused throughout:

    EX1  O1- U2- O3- U1- U4+ U3- O2- O4+   (reduces to the unknot)
    EX2  O3+ U4- O1+ U2- U1+ U3+ O2- O4-   (has rearrangeable triples)
    FIG_A/B/C                              (three-chord triple classifications)
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import gaussdiag.moves
import gaussdiag.sites

from gaussdiag import (
    EMPTY,
    MoveNotApplicable,
    R1Delete,
    R1Insert,
    R2Delete,
    R2Insert,
    R3,
    analyze_triple,
    apply_move,
    census_movable_triples,
    enumerate_diagrams,
    enumerate_moves,
    format_move,
    parse_gauss_code,
    parse_move,
    r1_removable_chords,
    r2_removable_pairs,
    r3_movable_triples,
    random_diagram,
    rotate,
    serialize_gauss_code,
)
from gaussdiag.diagram import _arrangements, make_diagram

EX1 = "O1- U2- O3- U1- U4+ U3- O2- O4+"
EX2 = "O3+ U4- O1+ U2- U1+ U3+ O2- O4-"
FIG_A = "U3+ U2- O1- O2- O3+ U1-"
FIG_B = "U3+ U2- U1- O2- O3+ O1-"
FIG_C = "U3+ U2- O1- O2- U1- O3+"


def d(code):
    return parse_gauss_code(code)


# -------------------------------------------------------------- R1 detection


def test_r1_detection_none_on_trefoil():
    assert r1_removable_chords(d("O1-O2-U1-U2-")) == []


def test_r1_detection_order_by_arc_start():
    # chord 3 sits across positions 1,2 and chord 2 wraps across 3,0;
    # the wrap arc starts at position 3, so chord 3 is reported first
    assert r1_removable_chords(d("U2- O3- U3- O2-")) == ["3", "2"]


def test_r1_detection_single_kink():
    assert r1_removable_chords(d("O1+ U1+")) == ["1"]


# -------------------------------------------------------------- R2 detection


def test_r2_detection_example_1():
    assert r2_removable_pairs(d(EX1)) == [("1", "4")]


def test_r2_requires_opposite_signs():
    assert r2_removable_pairs(d("O1-O2-U1-U2-")) == []


def test_r2_requires_adjacent_heads_and_tails():
    # chords 2,3 have opposite signs and adjacent heads, but their tails
    # are separated by chord 1's head; no pair qualifies
    assert r2_removable_pairs(d("O1+ O2+ U1+ O3- U2+ U3-")) == []


def test_r2_detection_nested_pair():
    assert r2_removable_pairs(d("O1+ O2- U2- U1+")) == [("1", "2")]


def test_r2_detection_crossed_pair():
    # adjacent tails, adjacent heads, opposite signs — the chords crossing
    # each other does not disqualify the pair
    assert r2_removable_pairs(d("O1+ O2- U1+ U2-")) == [("1", "2")]


# ----------------------------------------------------------- triple analysis


def test_fig_a_movable_all_minus():
    a = analyze_triple(d(FIG_A), ("1", "2", "3"))
    assert a.matched and a.movable
    assert (a.heads_arc, a.tails_arc, a.mixed_arc) == ((0, 1), (2, 3), (4, 5))
    got = {c: (r.sign, r.parity, r.direction, r.three_sign) for c, r in a.chords.items()}
    assert got == {
        "1": (-1, 1, 1, -1),
        "2": (-1, -1, -1, -1),
        "3": (1, -1, 1, -1),
    }


def test_fig_b_movable_through_wrap_pairing():
    # fig-b's endpoints split two qualifying ways: (0,1)(2,3)(4,5) has
    # 3-signs +1, -1, -1 and is not movable; the split whose mixed pair
    # wraps past position 0 has equal 3-signs, so it is the witness
    a = analyze_triple(d(FIG_B), ("1", "2", "3"))
    assert a.matched and a.movable
    assert (a.heads_arc, a.tails_arc, a.mixed_arc) == ((1, 2), (3, 4), (5, 0))
    assert {r.three_sign for r in a.chords.values()} == {-1}


def test_fig_c_matched_but_not_movable():
    a = analyze_triple(d(FIG_C), ("1", "2", "3"))
    assert a.matched and not a.movable
    got = {c: r.three_sign for c, r in a.chords.items()}
    assert got == {"1": 1, "2": -1, "3": 1}


def test_unmatched_triple():
    a = analyze_triple(d(EX2), ("1", "2", "3"))
    assert not a.matched and not a.movable
    assert a.chords == {}
    assert a.heads_arc is None


def test_ex2_triple_134_numbers():
    a = analyze_triple(d(EX2), ("1", "3", "4"))
    assert a.movable
    got = {c: (r.sign, r.parity, r.direction, r.three_sign) for c, r in a.chords.items()}
    assert got == {
        "1": (1, 1, 1, 1),
        "3": (1, -1, -1, 1),
        "4": (-1, -1, 1, 1),
    }


def test_ex2_triple_124_numbers():
    a = analyze_triple(d(EX2), ("1", "2", "4"))
    assert a.movable
    assert {r.three_sign for r in a.chords.values()} == {-1}


def test_r3_movable_triples_ex2():
    assert r3_movable_triples(d(EX2)) == [("1", "2", "4"), ("1", "3", "4")]


def test_analysis_is_rotation_invariant():
    base = d(FIG_B)
    for k in range(6):
        a = analyze_triple(rotate(base, k), ("1", "2", "3"))
        assert a.matched and a.movable


def test_analyze_triple_rejects_duplicates():
    # a repeated label, a bare string of three labels, four labels of
    # which three are distinct, and no iterable at all
    for triple in (("1", "1", "2"), "123", ["1", "1", "2", "3"], 5):
        with pytest.raises(ValueError, match="three distinct chords"):
            analyze_triple(d(FIG_A), triple)


def test_analyze_triple_rejects_unknown_chord():
    with pytest.raises(ValueError, match="unknown chord"):
        analyze_triple(d(FIG_A), ("1", "2", "9"))


# ------------------------------------------------------------------ applying


def test_apply_r1_delete():
    assert apply_move(d("O1+ U1+"), R1Delete("1")) == EMPTY
    out = apply_move(d("U2- O3- U3- O2-"), R1Delete("3"))
    assert serialize_gauss_code(out) == "U2- O2-"


def test_apply_r1_delete_not_adjacent():
    with pytest.raises(MoveNotApplicable, match=re.escape(
            "chord 1 endpoints are not adjacent (positions 0 and 2)")):
        apply_move(d("O1-O2-U1-U2-"), R1Delete("1"))


def test_apply_r2_delete_example_1():
    out = apply_move(d(EX1), R2Delete(("1", "4")))
    assert serialize_gauss_code(out) == "U2- O3- U3- O2-"


def test_apply_r2_delete_same_sign_rejected():
    with pytest.raises(MoveNotApplicable, match="have the same sign"):
        apply_move(d("O1-O2-U1-U2-"), R2Delete(("1", "2")))


def test_apply_r2_delete_not_adjacent_rejected():
    blocked = d("O1+ O2+ U1+ O3- U2+ U3-")
    with pytest.raises(MoveNotApplicable, match="tails of chords 2 and 3 are not adjacent"):
        apply_move(blocked, R2Delete(("2", "3")))
    with pytest.raises(MoveNotApplicable, match="heads of chords 1 and 3 are not adjacent"):
        apply_move(blocked, R2Delete(("1", "3")))


def test_apply_r3_example_2():
    out = apply_move(d(EX2), R3(("1", "3", "4")))
    assert serialize_gauss_code(out) == "O4- O1+ U4- U2- U3+ U1+ O2- O3+"


def test_apply_r3_fig_a():
    out = apply_move(d(FIG_A), R3(("1", "2", "3")))
    assert serialize_gauss_code(out) == "U2- U3+ O2- O1- U1- O3+"


def test_apply_r3_fig_a_is_involution():
    start = d(FIG_A)
    twice = apply_move(apply_move(start, R3(("1", "2", "3"))), R3(("1", "2", "3")))
    assert twice == start


def test_apply_r3_preserves_numbers_fig_a():
    before = analyze_triple(d(FIG_A), ("1", "2", "3"))
    after = analyze_triple(apply_move(d(FIG_A), R3(("1", "2", "3"))), ("1", "2", "3"))
    assert before.chords == after.chords


def test_apply_r3_unmatched_rejected():
    with pytest.raises(MoveNotApplicable, match=re.escape(
            "triple ('1', '2', '3') is not matched")):
        apply_move(d(EX2), R3(("1", "2", "3")))


def test_apply_r3_unknown_chord_rejected():
    with pytest.raises(MoveNotApplicable, match=re.escape("chord 9 not in diagram")):
        apply_move(d("O1-O2-U1-U2-"), R3(("1", "2", "9")))


def test_apply_r3_unequal_signs_rejected():
    with pytest.raises(MoveNotApplicable, match="3-signs differ"):
        apply_move(d(FIG_C), R3(("1", "2", "3")))


# ---------------------------------------------------------------- insertions


@pytest.mark.parametrize(
    "move, expected",
    [
        (R1Insert(0, 1, True), "U3+ O3+ O1- O2- U1- U2-"),
        (R1Insert(0, 1, False), "O3+ U3+ O1- O2- U1- U2-"),
        (R1Insert(2, -1, True), "O1- O2- U3- O3- U1- U2-"),
        (R2Insert(0, 2, 1, True), "U3+ U4- O1- O2- O3+ O4- U1- U2-"),
        (R2Insert(0, 2, 1, False), "U3+ U4- O1- O2- O4- O3+ U1- U2-"),
        (R2Insert(1, 1, -1, True), "O1- O3- O4+ U3- U4+ O2- U1- U2-"),
        (R2Insert(3, 0, 1, False), "O4- O3+ O1- O2- U1- U3+ U4- U2-"),
    ],
)
def test_insertion_placement(move, expected):
    assert serialize_gauss_code(apply_move(d("O1-O2-U1-U2-"), move)) == expected


def test_insertion_into_empty_diagram():
    assert serialize_gauss_code(apply_move(EMPTY, R1Insert(0, -1, True))) == "U1- O1-"
    assert serialize_gauss_code(apply_move(EMPTY, R2Insert(0, 0, 1, True))) == "O1+ O2- U1+ U2-"


@pytest.mark.parametrize(
    "move, sign",
    [
        (R1Insert(0, True, True), True),
        (R1Insert(0, -1.0, False), -1.0),
        (R2Insert(0, 0, 1.0, True), 1.0),
        (R2Insert(0, 0, True, False), True),
    ],
)
def test_insertion_sign_must_be_an_exact_int(move, sign):
    with pytest.raises(MoveNotApplicable, match=re.escape(f"sign must be +1 or -1, got {sign!r}")):
        apply_move(EMPTY, move)


@pytest.mark.parametrize(
    "move, flag",
    [
        (R1Insert(0, 1, "x"), "head_first must be True or False, got 'x'"),
        (R1Insert(0, -1, 1), "head_first must be True or False, got 1"),
        (R2Insert(0, 0, 1, None), "crossed must be True or False, got None"),
        (R2Insert(0, 0, -1, 0), "crossed must be True or False, got 0"),
    ],
)
def test_insertion_flag_must_be_a_bool(move, flag):
    with pytest.raises(MoveNotApplicable, match="^" + re.escape(flag) + "$"):
        apply_move(EMPTY, move)


def test_insertion_checks_gaps_then_sign_then_flag():
    with pytest.raises(MoveNotApplicable, match=re.escape("invalid gap 5: valid gaps are 0..0")):
        apply_move(EMPTY, R2Insert(0, 5, 2, "x"))
    with pytest.raises(MoveNotApplicable, match=re.escape("sign must be +1 or -1, got 2")):
        apply_move(EMPTY, R1Insert(0, 2, "x"))


def test_insertion_picks_smallest_free_labels():
    out = apply_move(d("O2+ U2+"), R2Insert(0, 1, 1, False))
    assert serialize_gauss_code(out) == "U1+ U3- O2+ O3- O1+ U2+"


def test_insertion_invalid_gap():
    with pytest.raises(MoveNotApplicable, match=re.escape("invalid gap 4: valid gaps are 0..3")):
        apply_move(d("O1-O2-U1-U2-"), R1Insert(4, 1, True))


@pytest.mark.parametrize(
    "move, gap",
    [
        (R1Insert(1.5, 1, True), 1.5),
        (R1Insert(True, 1, True), True),
        (R1Insert(1.0, -1, False), 1.0),
        (R2Insert(0.5, 0, 1, True), 0.5),
        (R2Insert(0, True, 1, False), True),
        (R2Insert("0", 0, -1, True), "0"),
    ],
)
def test_insertion_gap_must_be_an_exact_int(move, gap):
    with pytest.raises(MoveNotApplicable, match=re.escape(f"invalid gap {gap!r}: valid gaps are 0..1")):
        apply_move(d("O1+U1+"), move)


def test_inserted_pair_is_immediately_removable():
    out = apply_move(d("O1-O2-U1-U2-"), R2Insert(0, 2, 1, True))
    assert ("3", "4") in r2_removable_pairs(out)
    assert apply_move(out, R2Delete(("3", "4"))) == d("O1-O2-U1-U2-")


# --------------------------------------------------------------- enumeration


def test_enumerate_moves_deletions_only_by_default():
    moves = enumerate_moves(d(EX1))
    assert moves == [R2Delete(("1", "4"))]


def test_enumerate_moves_empty_diagram_insertions():
    moves = enumerate_moves(EMPTY, include_insertions=True)
    assert moves == [
        R1Insert(0, 1, True),
        R1Insert(0, 1, False),
        R1Insert(0, -1, True),
        R1Insert(0, -1, False),
        R2Insert(0, 0, 1, True),
        R2Insert(0, 0, 1, False),
        R2Insert(0, 0, -1, True),
        R2Insert(0, 0, -1, False),
    ]


def test_enumerate_moves_trefoil_insertion_count():
    # 4 gaps: 4*2*2 single-chord variants + 4*4*2*2 pair variants
    moves = enumerate_moves(d("O1-O2-U1-U2-"), include_insertions=True)
    assert len(moves) == 16 + 64
    # only a bool turns insertions on: "x" or 1 is not read as True
    for flag in ("x", 1, None):
        with pytest.raises(ValueError, match=f"include_insertions must be True or False, got {flag!r}"):
            enumerate_moves(d("O1-O2-U1-U2-"), flag)


# --------------------------------------------------------------- move specs


@pytest.mark.parametrize(
    "move, text",
    [
        (R1Delete("7"), "r1:del:7"),
        (R1Insert(3, -1, False), "r1:ins:3:-:tf"),
        (R1Insert(0, 1, True), "r1:ins:0:+:hf"),
        (R2Delete(("2", "5")), "r2:del:2,5"),
        (R2Insert(0, 2, 1, True), "r2:ins:0:2:+:x"),
        (R2Insert(1, 1, -1, False), "r2:ins:1:1:-:u"),
        (R3(("a", "b", "c")), "r3:a,b,c"),
    ],
)
def test_move_spec_roundtrip(move, text):
    assert format_move(move) == text
    assert parse_move(text) == move


@pytest.mark.parametrize(
    "text, shown",
    [
        ("r1:del:7", "R1Delete(chord='7')"),
        ("r2:del:5,2", "R2Delete(chords=('2', '5'))"),
        ("r3:c,a,b", "R3(chords=('a', 'b', 'c'))"),
        ("r1:ins:3:-:tf", "R1Insert(gap=3, sign=-1, head_first=False)"),
        ("r2:ins:0:2:+:x", "R2Insert(head_gap=0, tail_gap=2, first_sign=1, crossed=True)"),
    ],
)
def test_move_spec_roundtrip_repr(text, shown):
    # one spec per kind, in enumerate_moves order: the move it reads as,
    # shown by its repr, and the spec that move writes back
    move = parse_move(text)
    assert repr(move) == shown
    assert parse_move(format_move(move)) == move


@pytest.mark.parametrize(
    "spec, message",
    [
        ("r9:del:1", "move spec 'r9:del:1': unknown move kind"),
        ("r1:del", "move spec 'r1:del': r1:del needs a chord label"),
        ("r1:ins:x:+:hf", "move spec 'r1:ins:x:+:hf': gap must be a nonnegative integer"),
        ("r1:ins:\u0663:+:hf", "move spec 'r1:ins:\u0663:+:hf': gap must be a nonnegative integer"),
        ("r1:ins:\u00b2:+:hf", "move spec 'r1:ins:\u00b2:+:hf': gap must be a nonnegative integer"),
        ("r2:del:1", "move spec 'r2:del:1': r2:del needs chord,chord"),
        ("r3:1,2", "move spec 'r3:1,2': r3 needs chord,chord,chord"),
        ("", "move spec '': unknown move kind"),
        # a well-formed spec whose label no diagram can hold
        ("r1:del:\u00e9", "move spec 'r1:del:\u00e9': invalid chord label '\u00e9'"),
        ("r2:del:\u00b2,1", "move spec 'r2:del:\u00b2,1': invalid chord label '\u00b2'"),
        ("r3:\u00b2,1,2", "move spec 'r3:\u00b2,1,2': invalid chord label '\u00b2'"),
        ("r2:del:1,a b", "move spec 'r2:del:1,a b': invalid chord label 'a b'"),
        ("r1:del:a,b", "move spec 'r1:del:a,b': invalid chord label 'a,b'"),
        # a wrong field count
        ("r1:ins:0:+", "move spec 'r1:ins:0:+': r1:ins needs gap:sign:hf|tf"),
        ("r2:ins:0:0:+", "move spec 'r2:ins:0:0:+': r2:ins needs hgap:tgap:sign:x|u"),
        ("r3", "move spec 'r3': r3 needs chord,chord,chord"),
        ("r2:del:a:b", "move spec 'r2:del:a:b': r2:del needs chord,chord"),
        # an empty label
        ("r2:del:1,,2", "move spec 'r2:del:1,,2': r2:del needs chord,chord"),
        # a malformed sign, flag or gap
        ("r1:ins:0:*:hf", "move spec 'r1:ins:0:*:hf': sign must be + or -, got '*'"),
        ("r1:ins:0:\u2212:hf", "move spec 'r1:ins:0:\u2212:hf': sign must be + or -, got '\u2212'"),
        ("r1:ins:0:+:xx", "move spec 'r1:ins:0:+:xx': order must be hf or tf"),
        ("r2:ins:0:0:+:y", "move spec 'r2:ins:0:0:+:y': pattern must be x or u"),
        ("r2:ins:a:0:+:x", "move spec 'r2:ins:a:0:+:x': head gap must be a nonnegative integer"),
        ("r2:ins:0:a:+:x", "move spec 'r2:ins:0:a:+:x': tail gap must be a nonnegative integer"),
        # a prefix that is not a kind's, whole and in lower case
        ("r1", "move spec 'r1': unknown move kind"),
        ("r1:foo:1", "move spec 'r1:foo:1': unknown move kind"),
        ("R1:del:1", "move spec 'R1:del:1': unknown move kind"),
    ],
)
def test_move_spec_errors(spec, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        parse_move(spec)


@pytest.mark.parametrize(
    "move, message",
    [
        (R1Insert(0, 2, True), "sign must be +1 or -1, got 2"),
        (R1Insert(0, True, True), "sign must be +1 or -1, got True"),
        (R1Insert(0, 1, "x"), "head_first must be True or False, got 'x'"),
        (R2Insert(0, 0, -1.0, True), "sign must be +1 or -1, got -1.0"),
        (R2Insert(0, 0, 1, None), "crossed must be True or False, got None"),
        # fields that a spec would not carry back: parse_move rejects the
        # spec, or reads back another move
        (R1Insert(-1, 1, True), "move spec 'r1:ins:-1:+:hf': gap must be a nonnegative integer"),
        (R1Insert("x", 1, True), "move spec 'r1:ins:x:+:hf': gap must be a nonnegative integer"),
        (R1Insert(True, 1, True),
         "move spec 'r1:ins:True:+:hf': gap must be a nonnegative integer"),
        (R2Insert(0, True, 1, False),
         "move spec 'r2:ins:0:True:+:u': tail gap must be a nonnegative integer"),
        (R2Insert(1.0, 0, -1, True),
         "move spec 'r2:ins:1.0:0:-:x': head gap must be a nonnegative integer"),
        (R2Delete(("a,b", "c")), "move spec 'r2:del:a,b,c': r2:del needs chord,chord"),
        (R1Delete("a:b"), "move spec 'r1:del:a:b': r1:del needs a chord label"),
        (R3(("a", "b", "c:d")), "move spec 'r3:a,b,c:d': r3 needs chord,chord,chord"),
        (R1Delete(""), "move spec 'r1:del:': r1:del needs a chord label"),
        (R1Delete("\u00e9"), "move spec 'r1:del:\u00e9': invalid chord label '\u00e9'"),
        (R1Delete("a "), "R1Delete(chord='a ') has no spec: 'r1:del:a ' parses to another move"),
    ],
)
def test_format_move_rejects_what_has_no_spec(move, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        format_move(move)


@pytest.mark.parametrize(
    "make, chords",
    [
        (R2Delete, (1, 2)),
        (R2Delete, ("1", None)),
        (R2Delete, "12"),
        (R2Delete, 12),
        (R3, "abc"),
        (R3, ("a", 2, "c")),
    ],
)
def test_chords_must_be_a_tuple_of_label_strings(make, chords):
    message = f"{make.__name__} needs a tuple of label strings, got {chords!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        make(chords)


@pytest.mark.parametrize("chord", [5, ["1"], None, ("1",)])
def test_chord_must_be_a_label_string(chord):
    message = f"R1Delete needs a label string, got {chord!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        R1Delete(chord)


def test_move_normalization():
    assert R2Delete(("5", "2")).chords == ("2", "5")
    assert R3(("c", "a", "b")).chords == ("a", "b", "c")
    with pytest.raises(ValueError):
        R3(("1", "2", "1"))


def test_numerically_equal_labels_have_one_order():
    # "02" and "2" are the same number: the string breaks the tie
    assert R2Delete(("2", "02")) == R2Delete(("02", "2"))
    assert format_move(R2Delete(("2", "02"))) == "r2:del:02,2"
    assert format_move(R2Delete(("02", "2"))) == "r2:del:02,2"
    assert format_move(R3(("2", "02", "1"))) == "r3:1,02,2"
    assert format_move(R3(("02", "2", "1"))) == "r3:1,02,2"
    assert r2_removable_pairs(d("O2+ U02- U2+ O02-")) == [("02", "2")]
    # both label orders of the tie give the same list
    for code in ("O3+ U01- O1+ U2- U1+ U3+ O2- O01-", "O3+ U1- O01+ U2- U01+ U3+ O2- O1-"):
        assert r3_movable_triples(d(code)) == [("01", "1", "2"), ("01", "1", "3")]


# -------------------------------------------------------------------- census


# movable == 2n * movable_up_to_rotation in every pin: a rotation that fixes
# a configuration fixes its single heads arc, so it is the identity


def test_census_three_chords():
    res = census_movable_triples(3)
    assert res.chords == 3
    assert res.total == 960
    assert res.matched == 768
    assert res.movable == 192
    assert res.movable_up_to_rotation == 32


def test_census_four_chords():
    res = census_movable_triples(4)
    assert res.chords == 4
    assert res.total == 26_880
    assert res.matched == 24_576
    assert res.movable == 6_144
    assert res.movable_up_to_rotation == 768


def test_census_five_chords():
    # the README's figures; the only check of the census key at five
    # chords, where the oracle's rotation-minimised key is too slow to run
    res = census_movable_triples(5)
    assert res.chords == 5
    assert res.total == 967_680
    assert res.matched == 921_600
    assert res.movable == 230_400
    assert res.movable_up_to_rotation == 23_040


def test_three_sign_factors_into_sign_and_a_sign_free_part():
    # every matched configuration with n <= 4: the 3-sign is sign * parity
    # * direction, and arcs, parity and direction are the same for every
    # sign map of one endpoint arrangement, which the census relies on
    configurations = 0
    for n in range(5):
        for endpoints, sign_maps in _arrangements(n):
            views = []
            for signs in sign_maps:
                g = make_diagram(endpoints, signs)
                view = []
                for triple in sorted(map(sorted, gaussdiag.sites._r3_candidates(g))):
                    for arcs, numbers, _ in gaussdiag.moves._qualifying_tilings(g, triple):
                        for c, r in numbers.items():
                            assert r.sign == signs[c], (g, triple)
                            assert r.three_sign == r.sign * r.parity * r.direction, (g, triple)
                        view.append((arcs, [(c, r.parity, r.direction) for c, r in numbers.items()]))
                views.append(view)
                configurations += len(view)
            assert all(view == views[0] for view in views), endpoints
    assert configurations == 768 + 24_576


def test_r3_walk_runs_the_kernel_once_per_candidate_and_kept_triple(monkeypatch):
    # the search's R3 walk calls the detector on its parent, then runs the
    # sign-free kernel again on each triple the detector keeps, in the
    # detector's order.  On a diagram that shares no sites, the detector's
    # find runs the kernel once per candidate triple on every walk; among
    # the sign maps of one enumerated arrangement, only the first walk's
    # find runs it
    kernel = gaussdiag.sites._tilings
    calls = {"find": [], "walk": []}

    def spy(caller):
        def run(g, labels):
            calls[caller].append(tuple(labels))
            return kernel(g, labels)
        return run

    monkeypatch.setattr(gaussdiag.sites, "_tilings", spy("find"))
    monkeypatch.setattr(gaussdiag.moves, "_tilings", spy("walk"))

    def walk(g):
        calls["find"].clear()
        calls["walk"].clear()
        rows = list(gaussdiag.moves._family_rows(g, 0))
        found, ran = sorted(map(frozenset, calls["find"]), key=sorted), calls["walk"][:]
        kept = r3_movable_triples(g)
        assert [fields for fields, _, _ in rows] == [(t,) for t in kept], g
        assert ran == kept, g
        return found

    walked = 0
    unshared = [d(code) for code in (EX1, EX2, FIG_A, FIG_B, FIG_C)]
    unshared += [random_diagram(3 + seed % 6, seed) for seed in range(60)]
    for g in unshared:
        candidates = sorted(gaussdiag.sites._r3_candidates(g), key=sorted)
        for _ in range(2):
            assert walk(g) == candidates, g
        walked += len(calls["walk"])
    assert walked > 0
    for n in (3, 4):
        for i, g in enumerate(enumerate_diagrams(n)):
            first = i % 2 ** n == 0
            expected = gaussdiag.sites._r3_candidates(g) if first else set()
            assert walk(g) == sorted(expected, key=sorted), g


def test_census_bounds():
    with pytest.raises(ValueError, match="at least 3"):
        census_movable_triples(2)
    with pytest.raises(ValueError, match="capped at 5"):
        census_movable_triples(6)


@pytest.mark.parametrize("n", [3.0, True, "3", None])
def test_census_chord_count_must_be_an_exact_int(n):
    # checked before the bounds: 3.0 is no TypeError and True no "at least 3"
    with pytest.raises(ValueError, match=f"^chord count {re.escape(repr(n))} is not an int$"):
        census_movable_triples(n)


def test_only_analyze_triple_uses_the_validating_accessors():
    # the code of moves and of the sign-free sites reads the position map;
    # the accessors that validate their chord or positions are for outside
    # callers, and analyze_triple is the public report that validates its
    # labels
    validating = {"adjacent", "head_position", "positions_of", "sign_of", "tail_position"}
    uses = set()
    for module in (gaussdiag.moves, gaussdiag.sites):
        for stmt in ast.parse(Path(module.__file__).read_text()).body:
            owner = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                for field in ("id", "attr", "name"):  # a name, an attribute, an import
                    if getattr(node, field, None) in validating:
                        uses.add((owner, getattr(node, field)))
    assert uses == {("analyze_triple", "sign_of")}


def test_chord_change_matches_every_rewrite(exhaustive_corpus):
    # the search files each move family under count + the chords it adds:
    # every child that family's walk yields has that many chords more
    moves = gaussdiag.moves
    seen = set()
    for g in exhaustive_corpus:
        if g.n > 3:
            continue
        for change in (-1, -2, 0, 1, 2):
            for _, chords, bases in moves._family_rows(g, change):
                assert len(chords) == len(bases) == 2 * (g.n + change), (g, change)
                seen.add(change)
    assert seen == {-1, -2, 0, 1, 2}
