"""Each benchmark check rejects a deliberately wrong result.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import pytest  # noqa: E402

import inputs  # noqa: E402
import reference as ref  # noqa: E402
from workloads import Checker, Program, Sweep, search_errors  # noqa: E402


def toks(code):
    """Reference tokens of a Gauss code such as 'O1- O2- U1- U2-'."""
    out = []
    for token in code.split():
        out.append((token[1:-1], token[0] == "U", 1 if token[-1] == "+" else -1))
    return out


def test_writhe_and_odd_writhe():
    assert ref.writhe(toks("O1- O2- U1- U2-")) == -2
    assert ref.odd_writhe(toks("O1- O2- U1- U2-")) == -2
    assert ref.odd_writhe(toks("O1+ U1+")) == 0
    # three mutually crossing chords each cross two: none is odd
    assert ref.odd_writhe(toks("O1+ U2+ O3+ U1+ O2+ U3+")) == 0
    assert ref.writhe(toks("O1+ U2+ O3+ U1+ O2+ U3+")) == 3


def test_site_check_rejects_wrong_sites():
    t = toks("O1+ U1+ O2+ O3+ U2+ U3+")  # chord 1 is an R1 site; {2, 3} is not R2
    assert ref.r1_sites(t) == {"1"}
    assert ref.site_errors(t, ["1"], []) == []
    assert ref.site_errors(t, [], [])  # missing
    assert ref.site_errors(t, ["1", "2"], [])  # extra
    assert ref.site_errors(t, ["1", "1"], [])  # listed twice
    r2 = toks("U1+ U2- O2- O1+")
    assert ref.r2_sites(r2) == {frozenset(("1", "2"))}
    assert ref.site_errors(r2, ["1", "2"], [("1", "2")]) == []
    assert ref.site_errors(r2, ["1", "2"], [])
    same_sign = toks("U1+ U2+ O2+ O1+")
    assert ref.site_errors(same_sign, ["1", "2"], [("1", "2")])


def test_deletion_check_rejects_wrong_results():
    before = toks("O1+ U1+ O2+ O3- U2+ U3-")
    assert ref.deletion_errors(before, toks("O2+ O3- U2+ U3-"), {"1"}) == []
    assert ref.deletion_errors(before, toks("O2+ U2+ O3- U3-"), {"1"})  # reordered
    assert ref.deletion_errors(before, toks("O2- O3- U2- U3-"), {"1"})  # sign flipped
    r2 = toks("U1+ U2- O2- O1+ O3+ U3+")
    assert ref.deletion_errors(r2, toks("O3+ U3+"), {"1", "2"}) == []
    same = toks("U1+ U2+ O2+ O1+")
    assert ref.deletion_errors(same, [], {"1", "2"})  # not opposite signs


def test_r3_check_rejects_wrong_rewrites():
    before = toks("U1+ U2+ O1+ O3+ O2+ U3+")
    # swapping (0,1), (2,3), (4,5): three adjacent pairs of distinct chords
    good = toks("U2+ U1+ O3+ O1+ U3+ O2+")
    assert ref.r3_errors(before, good, {"1", "2", "3"}) == []
    two_pairs = toks("U2+ U1+ O3+ O1+ O2+ U3+")
    assert ref.r3_errors(before, two_pairs, {"1", "2", "3"})
    far = toks("O1+ U2+ U1+ O3+ O2+ U3+")  # positions 0 and 2 swapped
    assert ref.r3_errors(before, far, {"1", "2", "3"})
    resigned = toks("U2- U1+ O3+ O1+ U3+ O2-")
    assert ref.r3_errors(before, resigned, {"1", "2", "3"})
    assert ref.r3_errors(before, good, {"1", "2", "4"})  # chord 3 not in the triple


def test_insertion_check_rejects_wrong_results():
    before = toks("O1- O2- U1- U2-")
    good, new = ref.insertion_errors(before, toks("O1- O3+ U3+ O2- U1- U2-"), "R1")
    assert good == [] and new == ["3"]
    apart, _ = ref.insertion_errors(before, toks("O3+ O1- U3+ O2- U1- U2-"), "R1")
    assert apart  # not adjacent: not an R1 site, and J changes
    moved, _ = ref.insertion_errors(before, toks("O2- O1- O3+ U3+ U1- U2-"), "R1")
    assert moved
    r2, new = ref.insertion_errors(before, toks("U3+ U4- O1- O2- O4- O3+ U1- U2-"), "R2")
    assert r2 == [] and new == ["3", "4"]
    same, _ = ref.insertion_errors(before, toks("U3+ U4+ O1- O2- O4+ O3+ U1- U2-"), "R2")
    assert same  # same signs: not an R2 site, writhe changes
    too_many, _ = ref.insertion_errors(before, toks("O3+ U3+ O1- O2- U1- U2-"), "R2")
    assert too_many


def test_step_check_rejects_wrong_steps():
    before = toks("O1+ U1+ O2- O3+ U2- U3+")
    assert ref.step_errors(before, toks("O2- O3+ U2- U3+"), "R1Delete") == []
    assert ref.step_errors(before, toks("O2- O3+ U2- U3+"), "R2Delete")  # wrong delta
    assert ref.step_errors(before, toks("O1+ U1+ O2- O3- U2- U3-"), "R3")  # writhe
    # J: the crossing pair {2, 3} has signs -1, +1, so J = 0; make them equal
    assert ref.step_errors(before, toks("O1- U1- O2+ O3+ U2+ U3+"), "R3")


def test_census_check_rejects_broken_identities():
    assert ref.census_errors(3, 960, 768, 192, 32, 768) == []
    assert ref.census_errors(3, 959, 768, 192, 32)  # total
    assert ref.census_errors(3, 960, 769, 192, 32)  # matched != 4 movable
    assert ref.census_errors(3, 960, 768, 192, 31)  # movable != 2n up to rotation
    assert ref.census_errors(3, 960, 760, 190, 32)  # paper's figures, identity too
    assert ref.census_errors(4, 26880, 100, 25, 4, 104)  # recount disagrees
    assert ref.diagram_count(4) == 26880


def test_matched_recount_matches_the_paper():
    assert ref.matched_configurations(3) == 4 * 192


def test_inputs_repeat_and_fall_in_their_classes():
    assert inputs.descent_inputs(7) == inputs.descent_inputs(7)
    assert inputs.insertion_inputs(7) == inputs.insertion_inputs(7)
    assert inputs.sweep_random(7, 20) == inputs.sweep_random(7, 20)
    assert inputs.descent_inputs(7) != inputs.descent_inputs(8)
    for name, code in inputs.descent_inputs(7):
        assert ref.odd_writhe(toks(code)) == (-2 if name == "trefoil" else 0)
    for name, code in inputs.insertion_inputs(7):
        assert (ref.odd_writhe(toks(code)) != 0) == (name == "odd")


# ------------------------------------------- checks that read the program


@pytest.fixture(scope="module")
def P():
    return Program()


def result(P, final, trace=(), states=1):
    return P.simplify.SimplifyResult(final=final, trace=tuple(trace),
                                     states_explored=states, limit_hit=False)


def test_search_check_accepts_a_real_search(P):
    d = P.codec.parse_gauss_code("U3+ U4- O1- O2- O4- O3+ U1- U2-")
    res = P.simplify.simplify(d)
    assert search_errors(P, d, res, 100000, "trefoil") == []


def test_search_check_rejects_wrong_results(P):
    d = P.codec.parse_gauss_code("U3+ U4- O1- O2- O4- O3+ U1- U2-")
    empty = P.diagram.EMPTY
    # the empty diagram has J = 0 and 0 < |J| chords, and no trace reaches it
    assert search_errors(P, d, result(P, empty), 10, "trefoil")
    # stopping at the input itself: 4 chords, not the trefoil's 2
    assert search_errors(P, d, result(P, d), 10, "trefoil")
    assert search_errors(P, d, result(P, d), 10, None) == []
    assert search_errors(P, d, result(P, d, states=11), 10, None)  # over budget
    u = P.codec.parse_gauss_code("U1+ U2- O2- O1+")
    assert search_errors(P, u, result(P, u), 10, "unknot")  # did not reach it
    # a trace whose recorded canonical form is wrong fails verify_trace
    move = P.moves.R2Delete(("1", "2"))
    assert search_errors(P, u, result(P, empty, [(move, empty)]), 10, "unknot") == []
    assert search_errors(P, u, result(P, empty, [(move, u)]), 10, "unknot")


class BrokenMoves:
    """The moves module, except that ``apply_move`` mangles one kind."""

    def __init__(self, moves, broken_kind):
        self._moves, self._kind = moves, broken_kind

    def __getattr__(self, name):
        return getattr(self._moves, name)

    def apply_move(self, d, move):
        out = self._moves.apply_move(d, move)
        if isinstance(move, self._kind) and out.n:
            signs = dict(out.signs)
            first = out.endpoints[0].chord
            signs[first] = -signs[first]
            out = self._moves.make_diagram(out.endpoints, signs)
        return out


@pytest.mark.parametrize("kind", ["R1Delete", "R2Delete", "R3", "R1Insert", "R2Insert"])
def test_sweep_flags_a_broken_move(P, kind):
    sweep = Sweep.__new__(Sweep)
    sweep.P = Program()
    sweep.P.moves = BrokenMoves(P.moves, getattr(P.moves, kind))
    parse = P.codec.parse_gauss_code
    checker = Checker()
    # every kind of move applies to one of these
    for code in ("O1+ O2+ U1+ O3+ U2+ U3+", "O1+ U1+ U2- U3+ O3+ O2-"):
        sweep._moves(parse(code), checker)
        sweep._insertions(parse(code), (1, 1, True), (0, 2, 1, False), checker)
    assert checker.error_count > 0 and checker.failed == 0


def test_sweep_accepts_the_program(P):
    sweep = Sweep.__new__(Sweep)
    sweep.P = P
    checker = Checker()
    for code in ("O1+ O2+ U1+ O3+ U2+ U3+", "O1+ U1+ U2- U3+ O3+ O2-"):
        sweep._moves(P.codec.parse_gauss_code(code), checker)
        sweep._insertions(P.codec.parse_gauss_code(code), (1, 1, True), (0, 2, 1, False), checker)
    assert checker.errors == []
