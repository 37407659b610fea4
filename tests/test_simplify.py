"""Greedy reduction and best-first search toward the unknot."""

from __future__ import annotations

import gc
import importlib
from collections import Counter

import pytest
from invariants import keeps_the_invariants

from gaussdiag import (
    EMPTY,
    GaussDiagram,
    R1Delete,
    R1Insert,
    R2Delete,
    R2Insert,
    R3,
    SearchLimits,
    TraceCheck,
    apply_move,
    canonical,
    enumerate_diagrams,
    enumerate_moves,
    format_move,
    format_trace,
    parse_gauss_code,
    r2_removable_pairs,
    r3_movable_triples,
    random_diagram,
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

# the first and last inputs of the benchmark's descent workload at seed 1:
# a 30-chord unknot scrambled by R2 insertions only, and a 10-chord
# scramble of TREFOIL by R1 and R2 insertions
R2_SCRAMBLE = (
    "O29+ O30- O13- O14+ U7+ U8- U27+ U28- U25- U26+ O17+ O18- O20- O19+ U15- U16+ U21- "
    "U22+ O23- O24+ O9- O10+ U9- U10+ U17+ U18- O5- O6+ O4- O3+ O1- O2+ U1- U2+ U23- U24+ "
    "U29+ U30- O7+ O8- O28- O27+ U11+ U12- O26+ O25- U5- U6+ U3+ U4- O16+ O15- O21- O22+ "
    "O12- O11+ U13- U14+ U19+ U20-"
)
TREFOIL_SCRAMBLE = (
    "O9+ O10- O4+ O3- O1- U7+ O7+ O2- U8+ O8+ U1- O6+ O5- U9+ U10- U5- U6+ U3- U4+ U2-"
)

# each search's final code and sign order, each trace step's move spec
# with its canonical code and sign order, the expansions and the
# truncation flag, recorded from the search that detected every move
# family of every state it expanded
R2_SCRAMBLE_OUTCOME = ("", (),
 [("r2:del:11,12",
   "O1+ O2+ O3- U4- U5+ U6+ U7- O8+ O9- O10- O11+ U12- U13+ U14+ U15- O16+ O17- O12- O13+ "
   "U18+ U19- U1+ U20- U3- U2+ O21+ O22- O15- O14+ U9- U8+ U10- U11+ O23- O24+ O25- O26+ U25- "
   "U26+ U21+ U22- O4- O5+ O7- O6+ O27- O28+ U27- U28+ U23- U24+ U16+ U17- O18+ O19- O20-",
   ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16",
    "17", "18", "19", "20", "21", "22", "23", "24", "25", "26", "27", "28")),
  ("r2:del:5,6",
   "O1+ O2+ O3- U4+ U5- O6+ O7- O8- O9+ U10- U11+ U12+ U13- O14+ O15- O10- O11+ U16+ U17- U1+ "
   "U18- U3- U2+ O19+ O20- O13- O12+ U7- U6+ U8- U9+ O21- O22+ O23- O24+ U23- U24+ U19+ U20- "
   "O5- O4+ O25- O26+ U25- U26+ U21- U22+ U14+ U15- O16+ O17- O18-",
   ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16",
    "17", "18", "19", "20", "21", "22", "23", "24", "25", "26")),
  ("r2:del:3,4",
   "O1+ O2+ O3- O4+ O5- O6- O7+ U8- U9+ U10+ U11- O12+ O13- O8- O9+ U14+ U15- U1+ U16- U3- "
   "U2+ O17+ O18- O11- O10+ U5- U4+ U6- U7+ O19- O20+ O21- O22+ U21- U22+ U17+ U18- O23- O24+ "
   "U23- U24+ U19- U20+ U12+ U13- O14+ O15- O16-",
   ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16",
    "17", "18", "19", "20", "21", "22", "23", "24")),
  ("r2:del:13,14",
   "O1+ O2+ O3- O4+ O5- O6- O7+ U8+ U9- O10+ O11- U12+ U13- U1+ U14- U3- U2+ O15+ O16- O9- "
   "O8+ U5- U4+ U6- U7+ O17- O18+ O19- O20+ U19- U20+ U15+ U16- O21- O22+ U21- U22+ U17- U18+ "
   "U10+ U11- O12+ O13- O14-",
   ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16",
    "17", "18", "19", "20", "21", "22")),
  ("r2:del:19,20",
   "O1+ O2+ O3- O4+ O5- O6- O7+ O8+ O9- U10+ U11- U1+ U12- U3- U2+ O13+ O14- U5- U4+ U6- U7+ "
   "O15- O16+ O17- O18+ U17- U18+ U13+ U14- O19- O20+ U19- U20+ U15- U16+ U8+ U9- O10+ O11- "
   "O12-",
   ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16",
    "17", "18", "19", "20")),
  ("r2:del:21,22",
   "O1+ O2+ O3- O4+ O5- O6+ O7- U8+ U9- U1+ U10- U3- U2+ O11+ O12- U5- U4+ O13- O14+ O15- "
   "O16+ U15- U16+ U11+ U12- O17- O18+ U17- U18+ U13- U14+ U6+ U7- O8+ O9- O10-",
   ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16",
    "17", "18")),
  ("r2:del:7,8",
   "O1+ O2+ O3- O4+ O5- O6+ O7- U1+ U8- U3- U2+ O9+ O10- U5- U4+ O11- O12+ O13- O14+ U13- "
   "U14+ U9+ U10- O15- O16+ U15- U16+ U11- U12+ U6+ U7- O8-",
   ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16")),
  ("r2:del:1,2",
   "O1+ O2+ O3- O4+ O5- O6+ O7- U1+ U8- U3- U2+ O9+ O10- U5- U4+ O11- O12+ O13- O14+ U13- "
   "U14+ U9+ U10- U11- U12+ U6+ U7- O8-",
   ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14")),
  ("r2:del:23,24",
   "O1+ O2+ O3- O4+ O5- O6+ O7- U1+ U8- U3- U2+ O9+ O10- U5- U4+ O11- O12+ U11- U12+ U9+ U10- "
   "U6+ U7- O8-",
   ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12")),
  ("r2:del:9,10",
   "O1+ O2+ O3- O4+ O5- O6+ O7- U1+ U8- U3- U2+ O9+ O10- U5- U4+ U9+ U10- U6+ U7- O8-",
   ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10")),
  ("r2:del:17,18", "O1+ O2+ O3- O4+ O5- O6+ O7- U1+ U8- U3- U2+ U5- U4+ U6+ U7- O8-",
   ("1", "2", "3", "4", "5", "6", "7", "8")),
  ("r2:del:25,26", "O1+ O2+ O3- O4+ O5- U1+ U6- U3- U2+ U4+ U5- O6-",
   ("1", "2", "3", "4", "5", "6")),
  ("r2:del:15,16", "O1+ O2+ O3- U1+ U4- U2+ U3- O4-", ("1", "2", "3", "4")),
  ("r2:del:27,28", "O1+ O2- U1+ U2-", ("1", "2")), ("r2:del:29,30", "", ())],
 15, False)

TREFOIL_SCRAMBLE_OUTCOME = ("O1- O2- U1- U2-", ("1", "2"),
 [("r2:del:5,6", "O1+ O2- O3+ O4- O5- U6+ O6+ O7- U8+ O8+ U5- U1+ U2- U4- U3+ U7-",
   ("1", "2", "3", "4", "5", "6", "7", "8")),
  ("r2:del:3,4", "O1+ O2- O3- U4+ O4+ O5- U6+ O6+ U3- U1+ U2- U5-",
   ("1", "2", "3", "4", "5", "6")),
  ("r2:del:9,10", "O1+ O2- U3+ O3+ U4- U2- O4- U1+", ("1", "2", "3", "4")),
  ("r1:del:8", "O1+ O2- U3- U2- O3- U1+", ("1", "2", "3")),
  ("r1:del:7", "O1- O2- U1- U2-", ("1", "2"))],
 48, False)


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
    assert keeps_the_invariants(d(EX1), res.final)


def test_simplify_example_2_reaches_unknot():
    res = simplify(d(EX2))
    assert res.final == EMPTY
    assert [m for m, _ in res.trace] == [
        R3(("1", "2", "4")),
        R2Delete(("2", "3")),
        R2Delete(("1", "4")),
    ]
    assert verify_trace(d(EX2), res.trace)
    assert keeps_the_invariants(d(EX2), res.final)


def test_simplify_trefoil_is_stuck_without_insertions():
    res = simplify(d(TREFOIL))
    assert res.final == d(TREFOIL)
    assert res.trace == ()
    assert res.states_explored == 1
    assert not res.limit_hit
    assert keeps_the_invariants(d(TREFOIL), res.final)


def test_simplify_empty_is_instant():
    res = simplify(EMPTY, SearchLimits(allow_insertions=True))
    assert res.final == EMPTY
    assert res.trace == () and res.states_explored == 1 and not res.limit_hit
    assert keeps_the_invariants(EMPTY, res.final)


def test_simplify_truncation_reports_limit():
    res = simplify(d(TREFOIL), SearchLimits(max_states=50, allow_insertions=True))
    assert res.limit_hit
    assert res.states_explored == 50
    assert res.final.n == 2  # nothing better than the start was found
    assert keeps_the_invariants(d(TREFOIL), res.final)


def test_simplify_truncated_trace_still_verifies():
    res = simplify(d(EX2), SearchLimits(max_states=1))
    assert res.limit_hit and res.states_explored == 1
    assert res.final.n == 4
    assert verify_trace(d(EX2), res.trace)
    assert keeps_the_invariants(d(EX2), res.final)


def test_simplify_chord_cap_blocks_all_insertions():
    res = simplify(d(TREFOIL), SearchLimits(allow_insertions=True, max_chords=2))
    assert res.final == d(TREFOIL)
    assert res.states_explored == 1
    assert not res.limit_hit
    assert keeps_the_invariants(d(TREFOIL), res.final)


def test_simplify_rejects_nonpositive_state_budget():
    with pytest.raises(ValueError, match="max_states must be positive"):
        simplify(d(EX1), SearchLimits(max_states=0))
    # a limit of the wrong type is rejected, not run: a float budget, a bool
    # budget or a truthy int turning insertions on (constructing never raises)
    for limits, message in [
        (SearchLimits(max_states=2.5), "max_states must be positive"),
        (SearchLimits(max_states=True), "max_states must be positive"),
        (SearchLimits(max_states="5"), "max_states must be positive"),
        (SearchLimits(max_chords=4.0), "max_chords must be None or an int"),
        (SearchLimits(allow_insertions=True, max_chords=True), "max_chords must be None or an int"),
        (SearchLimits(allow_insertions=1), "allow_insertions must be True or False"),
        (SearchLimits(allow_insertions=None), "allow_insertions must be True or False"),
    ]:
        with pytest.raises(ValueError, match=message):
            simplify(d(EX1), limits)


def test_simplify_rejects_chord_cap_below_input():
    with pytest.raises(ValueError, match="max_chords must be at least"):
        simplify(d(TREFOIL), SearchLimits(allow_insertions=True, max_chords=1))


def test_search_never_worse_than_greedy_exhaustive_small():
    for n in range(4):
        for start in enumerate_diagrams(n):
            assert simplify(start).final.n <= reduce_greedy(start).final.n


def test_search_builds_only_popped_states_and_the_trace(monkeypatch):
    # every popped state but the start is built once, by the unchecked
    # edit of the diagram its entry carries, and the final state once
    # more, through apply_move on the diagram its entry carries (the start
    # needs no move); children are keyed without being built
    search = importlib.import_module("gaussdiag.simplify")
    edit, edited, built = search._edit, [], []

    def edit_and_count(state, change, fields):
        edited.append(change)
        return edit(state, change, fields)

    def apply_and_count(state, move):
        built.append(move)
        return apply_move(state, move)

    monkeypatch.setattr(search, "_edit", edit_and_count)
    monkeypatch.setattr(search, "apply_move", apply_and_count)
    cases = [
        (EX1, SearchLimits()),
        (EX2, SearchLimits()),
        (TREFOIL, SearchLimits(max_states=50, allow_insertions=True)),
        (STORED, SearchLimits(max_states=30, allow_insertions=True)),
    ]
    for code, limits in cases:
        edited.clear()
        built.clear()
        res = simplify(d(code), limits)
        assert len(edited) == res.states_explored - 1, code
        assert len(built) == (1 if res.trace else 0), code
        assert verify_trace(d(code), res.trace), code


def test_search_releases_the_diagrams_no_entry_holds(monkeypatch):
    # a built diagram is held only by queue entries: its state's families
    # and its children's states.  This search expands 51 states, until its
    # queue runs dry, so when the trace first reads a step's canonical form
    # from its code only the best state's entry and the final diagram hold
    # one (a search that kept every expanded state's diagram would hold 50
    # here)
    search = importlib.import_module("gaussdiag.simplify")
    start = random_diagram(8, 36)

    def live():
        return sum(type(x) is GaussDiagram for x in gc.get_objects())

    gc.collect()
    before = live()
    counts = []

    def spy(code, read=search._read_canonical_code):
        if not counts:
            counts.append(live() - before)
        return read(code)

    monkeypatch.setattr(search, "_read_canonical_code", spy)
    res = simplify(start)
    assert (res.states_explored, res.limit_hit, len(res.trace)) == (51, False, 6)
    assert keeps_the_invariants(start, res.final)
    assert counts[0] < res.states_explored // 4


def test_search_builds_moves_only_for_expanded_states_and_the_trace(monkeypatch):
    # every child is keyed from its fields and stored as them, and every
    # expanded state is built from them with no move; a move of any kind is
    # built only for the final diagram and for the trace: one for the final
    # state's own move and one per trace step
    search = importlib.import_module("gaussdiag.simplify")
    built = Counter()

    def counting(kind):
        def build(*fields):
            built[kind] += 1
            return kind(*fields)

        return build

    # the search builds its moves from the table of move kinds
    kinds = [kind._replace(move=counting(kind.move)) for kind in search._KINDS]
    monkeypatch.setattr(search, "_KINDS", kinds)
    cases = [
        (random_diagram(16, 3), SearchLimits(max_states=5, allow_insertions=True)),
        (random_diagram(16, 3), SearchLimits(max_states=20, allow_insertions=True)),
        (d(STORED), SearchLimits(max_states=30, allow_insertions=True)),
        (d(STORED), SearchLimits(max_states=100, allow_insertions=True)),
        (d(EX2), SearchLimits()),
        (random_diagram(12, 5), SearchLimits()),
        # its trace inserts a kink
        (d("U1+ O2- O1+ U3+ U2- O3+"), SearchLimits(max_states=200, allow_insertions=True)),
    ]
    kinds_built = set()
    for start, limits in cases:
        built.clear()
        res = simplify(start, limits)
        assert res.states_explored > 1 and res.trace, (start, limits)
        moves = [move for move, _ in res.trace] + [res.trace[-1][0]]
        assert built == Counter(type(move) for move in moves), (start, limits)
        kinds_built.update(built)
    assert kinds_built == {R1Delete, R2Delete, R3, R1Insert}, kinds_built


def test_search_detects_only_the_families_it_keys(monkeypatch):
    # each state of the R2 scramble has an R2 deletion, so the search keys
    # the count two below it next and never returns to the counts where its
    # R1 deletions and R3s wait: no R1 or R3 detection runs (detecting every
    # family of every expanded state ran each detector 15 times)
    moves = importlib.import_module("gaussdiag.moves")
    calls = Counter()
    for name in ("r1_removable_chords", "r2_removable_pairs", "r3_movable_triples"):
        def spy(diagram, detect=getattr(moves, name), name=name):
            calls[name] += 1
            return detect(diagram)

        monkeypatch.setattr(moves, name, spy)
    res = simplify(d(R2_SCRAMBLE))
    assert res.final == EMPTY and not res.limit_hit
    assert res.states_explored == 15
    assert keeps_the_invariants(d(R2_SCRAMBLE), res.final)
    assert calls == {"r2_removable_pairs": 15}


def test_search_keys_a_counts_families_in_expansion_order(monkeypatch):
    # families keyed one after another at one chord count waited together,
    # and are keyed in the order their parents were expanded, so the first
    # child of a code comes from the earliest expanded parent (keying them
    # newest first changes no outcome pinned elsewhere); each expansion but
    # the start's builds its state by the unchecked edit, so a family's
    # parent is ranked by when its diagram was built
    search = importlib.import_module("gaussdiag.simplify")
    edit, family_rows = search._edit, search._family_rows
    expanded, keyed = [], []

    def build(state, change, fields):
        expanded.append(edit(state, change, fields))
        return expanded[-1]

    def spy_family_rows(state, change, *walk):
        rank = next(i for i, x in enumerate(expanded) if x is state)
        keyed.append((state.n + change, rank))
        return family_rows(state, change, *walk)

    monkeypatch.setattr(search, "_edit", build)
    monkeypatch.setattr(search, "_family_rows", spy_family_rows)
    runs = 0
    for start, max_states in [(random_diagram(16, 3), 30), (d(STORED), 100), (d(TREFOIL), 20)]:
        expanded[:] = [start]
        keyed.clear()
        simplify(start, SearchLimits(max_states=max_states, allow_insertions=True))
        for (count, rank), (next_count, next_rank) in zip(keyed, keyed[1:]):
            if count == next_count:
                assert rank < next_rank, (start, count)
                runs += 1
    assert runs


def test_an_r2_made_state_has_a_deletion_child_no_r2_insertion_makes():
    # why the search skips the deletion families of R1-made states only: a
    # deletion of a chord between an R2 insertion's two blocks can leave
    # its heads before its tails in one gap, an order no R2 insertion makes,
    # so that child is not an R2 insertion of the parent's same deletion
    parent = d("U1+ O1+ O2+ O3+ U2+ U3+")
    state = apply_move(parent, R2Insert(0, 2, 1, True))
    assert serialize_gauss_code(state) == "U4+ U5- U1+ O1+ O4+ O5- O2+ O3+ U2+ U3+"
    child = canonical(apply_move(state, R1Delete("1")))
    assert serialize_gauss_code(child) == "O1+ O2+ U1+ U2+ U3+ U4- O3+ O4-"
    smaller = apply_move(parent, R1Delete("1"))
    assert serialize_gauss_code(smaller) == "O2+ O3+ U2+ U3+"
    insertions = [m for m in enumerate_moves(smaller, True) if isinstance(m, R2Insert)]
    assert len(insertions) == 64
    assert all(canonical(apply_move(smaller, m)) != child for m in insertions)


def test_a_three_chord_diagram_with_two_movable_tilings_has_an_r2_deletion():
    # why an R1-made state's R3 walk may drop every triple without its kink
    # even when its parent Q has three chords.  Q's one triple can have two
    # movable tilings, and a kink in one of them leaves the other, whose R3
    # child need not be an R1 insertion of R3(Q).  But each such Q has an
    # R2 deletion, to a one-chord diagram, so a search that expands Q
    # reaches the empty diagram before it expands a four-chord state
    from gaussdiag.moves import _qualifying_tilings

    triple = ("1", "2", "3")
    two = [q for q in enumerate_diagrams(3)
           if sum(movable for _, _, movable in _qualifying_tilings(q, triple)) == 2]
    assert len(two) == 12
    assert all(r2_removable_pairs(q) for q in two)
    q = two[0]
    image = apply_move(q, R3(triple))
    kinks = {canonical(apply_move(image, m)) for m in enumerate_moves(image, True)
             if isinstance(m, R1Insert)}
    kinked = [apply_move(q, m) for m in enumerate_moves(q, True) if isinstance(m, R1Insert)]
    assert any(canonical(apply_move(s, R3(triple))) not in kinks
               for s in kinked if triple in r3_movable_triples(s))


@pytest.mark.parametrize(
    "code, expected",
    [(R2_SCRAMBLE, R2_SCRAMBLE_OUTCOME), (TREFOIL_SCRAMBLE, TREFOIL_SCRAMBLE_OUTCOME)],
    ids=["r2-scramble", "trefoil-scramble"],
)
def test_pinned_descents(code, expected):
    res = simplify(d(code))
    trace = [(format_move(m), serialize_gauss_code(c), tuple(c.signs)) for m, c in res.trace]
    outcome = serialize_gauss_code(res.final), tuple(res.final.signs), trace
    assert (*outcome, res.states_explored, res.limit_hit) == expected
    assert keeps_the_invariants(d(code), res.final)


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


def test_verify_trace_rejects_entries_that_are_not_pairs():
    res = reduce_greedy(d(EX1))
    move, form = res.trace[0]
    assert verify_trace(d(EX1), [1]) == TraceCheck(False, 0)
    assert verify_trace(d(EX1), "ab") == TraceCheck(False, 0)
    assert verify_trace(d(EX1), [(move, form), (move, form, form)]) == TraceCheck(False, 1)


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
    assert keeps_the_invariants(d(EX2), res.final)
