"""Greedy reduction and best-first search toward the unknot."""

from __future__ import annotations

import importlib

import pytest

from gaussdiag import (
    EMPTY,
    R1Delete,
    R2Delete,
    R3,
    SearchLimits,
    apply_move,
    canonical,
    format_trace,
    parse_gauss_code,
    reduce_greedy,
    serialize_gauss_code,
    simplify,
    verify_trace,
)

EX1 = "O1- U2- O3- U1- U4+ U3- O2- O4+"
EX2 = "O3+ U4- O1+ U2- U1+ U3+ O2- O4-"
TREFOIL = "O1- O2- U1- U2-"
# with insertions, 100 expansions generate over 26,000 children
STORED = "U1- O1- O2+ O3+ U2+ O4+ U4+ U3+"


def d(code):
    return parse_gauss_code(code)


# -------------------------------------------------------------------- greedy


def test_greedy_example_1_trace():
    res = reduce_greedy(d(EX1))
    assert res.final == EMPTY
    assert [m for m, _ in res.trace] == [
        R2Delete(("1", "4")),
        R1Delete("3"),
        R1Delete("2"),
    ]
    assert [serialize_gauss_code(c) for _, c in res.trace] == [
        "O1- U1- O2- U2-",
        "O1- U1-",
        "",
    ]
    assert res.states_explored == 4
    assert not res.limit_hit


def test_greedy_prefers_pair_removal_over_kink():
    # both a kink and a removable pair exist; the pair goes first
    start = d("O3+ U3+ O1+ O2- U1+ U2-")
    res = reduce_greedy(start)
    assert res.trace[0][0] == R2Delete(("1", "2"))
    assert res.final == EMPTY


def test_greedy_stops_when_stuck():
    res = reduce_greedy(d(TREFOIL))
    assert res.final == d(TREFOIL)
    assert res.trace == ()
    assert res.states_explored == 1


def test_greedy_empty_input():
    res = reduce_greedy(EMPTY)
    assert res.final == EMPTY and res.trace == ()


# --------------------------------------------------------------------- search


def test_simplify_example_1():
    res = simplify(d(EX1))
    assert res.final == EMPTY
    assert len(res.trace) == 3
    assert res.trace[0][0] == R2Delete(("1", "4"))
    assert not res.limit_hit
    assert verify_trace(d(EX1), res.trace)


def test_simplify_example_2_reaches_unknot():
    res = simplify(d(EX2))
    assert res.final == EMPTY
    assert [m for m, _ in res.trace] == [
        R3(("1", "2", "4")),
        R2Delete(("2", "3")),
        R2Delete(("1", "4")),
    ]
    assert verify_trace(d(EX2), res.trace)


def test_simplify_trefoil_is_stuck_without_insertions():
    res = simplify(d(TREFOIL))
    assert res.final == d(TREFOIL)
    assert res.trace == ()
    assert res.states_explored == 1
    assert not res.limit_hit


def test_simplify_empty_is_instant():
    res = simplify(EMPTY, SearchLimits(allow_insertions=True))
    assert res.final == EMPTY
    assert res.trace == () and res.states_explored == 1 and not res.limit_hit


def test_simplify_truncation_reports_limit():
    res = simplify(d(TREFOIL), SearchLimits(max_states=50, allow_insertions=True))
    assert res.limit_hit
    assert res.states_explored == 50
    assert res.final.n == 2  # nothing better than the start was found


def test_simplify_truncated_trace_still_verifies():
    res = simplify(d(EX2), SearchLimits(max_states=1))
    assert res.limit_hit and res.states_explored == 1
    assert res.final.n == 4
    assert verify_trace(d(EX2), res.trace)


def test_simplify_chord_cap_blocks_all_insertions():
    res = simplify(d(TREFOIL), SearchLimits(allow_insertions=True, max_chords=2))
    assert res.final == d(TREFOIL)
    assert res.states_explored == 1
    assert not res.limit_hit


def test_simplify_rejects_nonpositive_state_budget():
    with pytest.raises(ValueError, match="max_states must be positive"):
        simplify(d(EX1), SearchLimits(max_states=0))


def test_simplify_rejects_chord_cap_below_input():
    with pytest.raises(ValueError, match="max_chords must be at least"):
        simplify(d(TREFOIL), SearchLimits(allow_insertions=True, max_chords=1))


def test_search_never_worse_than_greedy_exhaustive_small():
    from gaussdiag import enumerate_diagrams

    for n in range(4):
        for start in enumerate_diagrams(n):
            assert simplify(start).final.n <= reduce_greedy(start).final.n


def test_search_builds_only_popped_states_and_the_trace(monkeypatch):
    # every popped state but the start is built once, and so is every
    # trace step; children are keyed without being built
    search = importlib.import_module("gaussdiag.simplify")
    built = []

    def apply_and_count(state, move):
        built.append(move)
        return apply_move(state, move)

    monkeypatch.setattr(search, "apply_move", apply_and_count)
    cases = [
        (EX1, SearchLimits()),
        (EX2, SearchLimits()),
        (TREFOIL, SearchLimits(max_states=50, allow_insertions=True)),
        (STORED, SearchLimits(max_states=30, allow_insertions=True)),
    ]
    for code, limits in cases:
        built.clear()
        res = simplify(d(code), limits)
        assert len(built) <= res.states_explored - 1 + len(res.trace), code
        assert verify_trace(d(code), res.trace), code


def test_search_limit_defaults():
    limits = SearchLimits()
    assert limits.max_states == 100000
    assert limits.allow_insertions is False
    assert limits.max_chords is None


# --------------------------------------------------------------------- traces


def test_verify_trace_catches_wrong_move():
    res = reduce_greedy(d(EX1))
    bad = list(res.trace)
    bad[1] = (R1Delete("2"), bad[1][1])  # right chord count, wrong order
    check = verify_trace(d(EX1), bad)
    assert not check.ok
    assert check.failed_step == 2


def test_verify_trace_catches_wrong_recorded_diagram():
    res = reduce_greedy(d(EX1))
    bad = [(res.trace[0][0], canonical(d(TREFOIL)))] + list(res.trace[1:])
    check = verify_trace(d(EX1), bad)
    assert not check.ok
    assert check.failed_step == 0


def test_verify_trace_empty_trace_is_ok():
    check = verify_trace(d(TREFOIL), [])
    assert check.ok and check.failed_step is None
    assert bool(check)


def test_verify_trace_inapplicable_first_move():
    # chords 2,3 only become a removable pair after the triple is rearranged
    check = verify_trace(d(EX2), [(R2Delete(("2", "3")), canonical(EMPTY))])
    assert not check.ok
    assert check.failed_step == 0


def test_format_trace_example_1():
    res = reduce_greedy(d(EX1))
    assert format_trace(res.trace).splitlines() == [
        "r2:del:1,4 => O1- U1- O2- U2-",
        "r1:del:3 => O1- U1-",
        "r1:del:2 => ",
    ]


def test_trace_canonicals_match_replay():
    res = simplify(d(EX2))
    assert canonical(res.final) == res.trace[-1][1]
