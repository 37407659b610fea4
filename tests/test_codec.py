"""Gauss-code text codec and the structured-document form.

The malformed-input table below is the rejection contract: twenty cases
covering sign mismatch, triple occurrence, lone occurrence, empty label,
and bad character, each pinned to its exact diagnostic.  The location
table pins where each error is reported, and which error wins when a
text has two.
"""

from __future__ import annotations

import re

import pytest

from gaussdiag import (
    EMPTY,
    HEAD,
    TAIL,
    ParseError,
    from_structured,
    parse_gauss_code,
    serialize_gauss_code,
    to_structured,
)

# (input, exact diagnostic) — four cases per failure class
ERROR_TABLE = [
    # sign mismatch
    ("O1+ U1-", "token 1: sign mismatch for chord 1"),
    ("U2- O2+", "token 1: sign mismatch for chord 2"),
    ("O1- U2+ U1+ O2+", "token 2: sign mismatch for chord 1"),
    ("Oa+ Ua− Ua+", "token 1: sign mismatch for chord a"),
    # triple occurrence
    ("O1+ U1+ O1+", "token 2: chord 1 has two O occurrences"),
    ("O1+ U1+ U1+", "token 2: chord 1 has two U occurrences"),
    ("O1- O1-", "token 1: chord 1 has two O occurrences"),
    ("U3+ U3+ O3+", "token 1: chord 3 has two U occurrences"),
    # lone occurrence
    ("O1+", "token 0: chord 1 appears only once"),
    ("O1+ U2+", "token 0: chord 1 appears only once"),
    ("O1- U1- O5+", "token 2: chord 5 appears only once"),
    ("U2- O2- O4+", "token 2: chord 4 appears only once"),
    # empty label
    ("O+ U+", "token 0 (char 0): empty label"),
    ("O1+ U+", "token 1 (char 4): empty label"),
    ("U- O-", "token 0 (char 0): empty label"),
    ("O1+U1+O-U-", "token 2 (char 6): empty label"),
    # bad character
    ("X1+ U1+", "token 0 (char 0): expected role letter O or U, found 'X'"),
    ("O1* U1*", "token 0 (char 0): missing sign after label '1', found '*'"),
    ("O1", "token 0 (char 0): missing sign after label '1', found end of input"),
    ("O1!+ U1+", "token 0 (char 0): missing sign after label '1', found '!'"),
]


def test_error_table_has_twenty_cases():
    assert len(ERROR_TABLE) == 20


@pytest.mark.parametrize("text, message", ERROR_TABLE, ids=range(len(ERROR_TABLE)))
def test_malformed_input_rejected(text, message):
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        parse_gauss_code(text)


# (input, token_index, position): every ERROR_TABLE input, in its order,
# then texts with two errors.  An unreadable token wins over a chord error
# before it, the first chord error over a later one, and a chord error
# over a lone chord ("O1+ U2+" above: the first lone chord wins).  Chord
# errors give their token's char offset, a lone chord none.
LOCATION_TABLE = [
    ("O1+ U1-", 1, 4),
    ("U2- O2+", 1, 4),
    ("O1- U2+ U1+ O2+", 2, 8),
    ("Oa+ Ua− Ua+", 1, 4),
    ("O1+ U1+ O1+", 2, 8),
    ("O1+ U1+ U1+", 2, 8),
    ("O1- O1-", 1, 4),
    ("U3+ U3+ O3+", 1, 4),
    ("O1+", 0, None),
    ("O1+ U2+", 0, None),
    ("O1- U1- O5+", 2, None),
    ("U2- O2- O4+", 2, None),
    ("O+ U+", 0, 0),
    ("O1+ U+", 1, 4),
    ("U- O-", 0, 0),
    ("O1+U1+O-U-", 2, 6),
    ("X1+ U1+", 0, 0),
    ("O1* U1*", 0, 0),
    ("O1", 0, 0),
    ("O1!+ U1+", 0, 0),
    # two errors
    ("O1+ O1+ X", 2, 8),  # the role letter, not two O occurrences
    ("O1+ U1- O2", 2, 8),  # the missing sign, not the sign mismatch
    ("O1+ O1+ U1-", 1, 4),  # two O occurrences, not the sign mismatch
    ("O1+ O1+ U2+", 1, 4),  # two O occurrences, not the lone chord 2
    ("O1+ U1- U2+", 1, 4),  # the sign mismatch, not the lone chord 2
]


def test_location_table_has_twenty_five_cases():
    assert len(LOCATION_TABLE) == 25
    assert [text for text, _, _ in LOCATION_TABLE[:20]] == [text for text, _ in ERROR_TABLE]


@pytest.mark.parametrize(
    "text, token_index, position", LOCATION_TABLE, ids=range(len(LOCATION_TABLE))
)
def test_error_location(text, token_index, position):
    with pytest.raises(ParseError) as caught:
        parse_gauss_code(text)
    assert (caught.value.token_index, caught.value.position) == (token_index, position)
    assert str(caught.value).startswith(f"token {token_index}")


def test_parse_error_is_value_error():
    assert issubclass(ParseError, ValueError)


# -------------------------------------------------------------------- happy


def test_parse_trefoil_structure():
    d = parse_gauss_code("O1-O2-U1-U2-")
    assert [(e.chord, e.role) for e in d.endpoints] == [
        ("1", TAIL), ("2", TAIL), ("1", HEAD), ("2", HEAD),
    ]
    assert dict(d.signs) == {"1": -1, "2": -1}


def test_serialize_trefoil():
    d = parse_gauss_code("O1-O2-U1-U2-")
    assert serialize_gauss_code(d) == "O1- O2- U1- U2-"


@pytest.mark.parametrize(
    "variant",
    [
        "O1- O2- U1- U2-",
        "O1-O2-U1-U2-",
        "o1- o2- u1- u2-",
        "O1− O2− U1− U2−",
        "O1-,O2-,U1-,U2-",
        "  O1-\tO2-\nU1- U2-  ",
    ],
)
def test_accepted_spellings_normalize(variant):
    assert serialize_gauss_code(parse_gauss_code(variant)) == "O1- O2- U1- U2-"


def test_empty_input_is_empty_diagram():
    assert parse_gauss_code("") == EMPTY
    assert parse_gauss_code("  \n ") == EMPTY


def test_multicharacter_labels():
    d = parse_gauss_code("Ofoo_1+ U2- Ufoo_1+ O2-")
    assert d.chords() == ["foo_1", "2"]
    assert serialize_gauss_code(d) == "Ofoo_1+ U2- Ufoo_1+ O2-"


def test_parse_serialize_identity_small():
    for code in ("", "O1+ U1+", "O1- U2- U1- O2-", "Oa+ Ob- Ua+ Ub-"):
        assert serialize_gauss_code(parse_gauss_code(code)) == code


# --------------------------------------------------------------- structured


def test_structured_roundtrip():
    d = parse_gauss_code("O3+ U4- O1+ U2- U1+ U3+ O2- O4-")
    doc = to_structured(d)
    assert from_structured(doc) == d


def test_structured_shape():
    doc = to_structured(parse_gauss_code("O1-O2-U1-U2-"))
    assert doc == {
        "endpoints": [
            {"chord": "1", "role": "tail"},
            {"chord": "2", "role": "tail"},
            {"chord": "1", "role": "head"},
            {"chord": "2", "role": "head"},
        ],
        "signs": {"1": -1, "2": -1},
    }


def test_structured_rejects_bad_documents():
    good = to_structured(parse_gauss_code("O1+ U1+"))
    for mutate in (
        lambda doc: doc.pop("signs"),
        lambda doc: doc["endpoints"][0].pop("role"),
        lambda doc: doc["endpoints"][0].update(role="over"),
        lambda doc: doc["signs"].update({"1": "plus"}),
        lambda doc: doc["signs"].update({"1": True}),
        lambda doc: doc["signs"].update({"1": 1.0}),
    ):
        doc = {"endpoints": [dict(e) for e in good["endpoints"]], "signs": dict(good["signs"])}
        mutate(doc)
        with pytest.raises(ValueError):
            from_structured(doc)


def test_rejected_text_adds_no_shared_endpoints():
    # the parser looks up the shared endpoint tables only once the whole
    # text is accepted: 1,000 rejected texts, each with a fresh label and
    # each rejected for one of five reasons, leave the tables' sizes as they
    # were, and accepting a text then adds its labels
    from gaussdiag.diagram import _HEADS, _TAILS

    sizes = len(_TAILS), len(_HEADS)
    for i in range(1000):
        label = f"rejected{i}"
        text = [
            f"O{label}+ O{label}+",  # a repeated role
            f"O{label}+ U{label}-",  # a sign mismatch
            f"O{label}+ U{label}+ O1+",  # a lone chord
            f"O{label}+ U{label}+ X1+",  # an unreadable token after a good chord
            f"O{label}- U{label}- O{label}- U1+ x",  # a held error, then an unreadable token
        ][i % 5]
        with pytest.raises(ParseError):
            parse_gauss_code(text)
    assert (len(_TAILS), len(_HEADS)) == sizes
    parse_gauss_code("Oaccepted0+ Uaccepted0+")
    assert (len(_TAILS), len(_HEADS)) == (sizes[0] + 1, sizes[1] + 1)
