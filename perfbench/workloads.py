"""The three workloads: sweep, descent and insertion.

A workload prepares its inputs in ``__init__`` (this is set-up), names its
``nominal_round_s`` (a round's time on the reference machine of README.md,
which sets how many rounds fill ``--seconds``) and offers
``operations()``, a generator that carries one input through the program and
through its checks, then yields.  The time between two yields is that
input's time.  Every call into the program goes through a module attribute
(``P.moves.apply_move``), so the tracer sees it.

Checks compare the program's outputs with the reference computations in
``reference``, never with recorded outputs of the program.
"""

from __future__ import annotations

import importlib

import inputs
import reference as ref


class Program:
    """The package's modules, looked up by their full names.  (The package
    re-exports the function ``simplify`` under its module's name, so
    ``gaussdiag.simplify`` is not the module.)"""

    def __init__(self):
        for name in ("codec", "diagram", "moves", "simplify"):
            setattr(self, name, importlib.import_module(f"gaussdiag.{name}"))


KEEP_ERRORS = 20  # error messages kept for the report; all are counted


class Checker:
    """Collects failed checks and failed operations."""

    def __init__(self):
        self.errors = []
        self.error_count = 0
        self.failed = 0

    def check(self, errors, context):
        for error in errors:
            self.error_count += 1
            if len(self.errors) < KEEP_ERRORS:
                self.errors.append(f"{context}: {error}")

    def operation_failed(self, context, exc):
        self.failed += 1
        if len(self.errors) < KEEP_ERRORS:
            self.errors.append(f"{context}: operation failed: {exc!r}")


def search_errors(P, d, result, budget, known) -> list:
    """Checks on one ``simplify`` result from input ``d``.

    ``known`` is the input's class.  Two classes have a known answer:
    "unknot" must reach the empty diagram, and "trefoil" must end at exactly
    2 chords with J = -2 (|J| bounds it from below, undoing the scramble
    from above).  Every class obeys the general laws: J is kept, the final
    chord count is at least |J|, at most ``budget`` states were expanded, the
    trace replays under ``verify_trace`` and ends at the final diagram, and
    each step obeys the reference laws of its move kind.
    """
    start = ref.tokens_of(d)
    final = ref.tokens_of(result.final)
    j = ref.odd_writhe(start)
    errors = []
    if ref.odd_writhe(final) != j:
        errors.append(f"odd writhe changed from {j} to {ref.odd_writhe(final)}")
    if ref.chord_count(final) < abs(j):
        errors.append(f"ended at {ref.chord_count(final)} chords, below |J| = {abs(j)}")
    if result.states_explored > budget:
        errors.append(f"expanded {result.states_explored} states, budget {budget}")
    if known == "unknot" and final:
        errors.append(f"unknot input ended at {ref.chord_count(final)} chords")
    if known == "trefoil" and (ref.chord_count(final) != 2 or j != -2):
        errors.append(f"trefoil input ended at {ref.chord_count(final)} chords, J = {j}")
    if not P.simplify.verify_trace(d, result.trace):
        errors.append("trace does not replay under verify_trace")
    state = d
    for move, _canonical in result.trace:
        after = P.moves.apply_move(state, move)
        errors += ref.step_errors(ref.tokens_of(state), ref.tokens_of(after), type(move).__name__)
        state = after
    if ref.tokens_of(state) != final:
        errors.append("trace does not end at the final diagram")
    return errors


class Sweep:
    """Census at 3 and 4 chords, then every R1/R2 deletion and R3 rewrite of
    every diagram with <= 4 chords (streamed from ``enumerate_diagrams``) and
    of 1000 seeded random diagrams with <= 8 chords, each random diagram also
    taking one R1 and one R2 insertion that its deletion must undo."""

    nominal_round_s = 9.0

    def __init__(self, P, seed):
        self.P = P
        self.random = [
            (P.codec.parse_gauss_code(code), r1, r2)
            for code, r1, r2 in inputs.sweep_random(seed)
        ]
        self.census = {}  # n -> CensusResult of the latest round

    def operations(self, checker):
        P = self.P
        for n in (3, 4):
            try:
                c = P.moves.census_movable_triples(n)
            except Exception as exc:
                checker.operation_failed(f"census {n}", exc)
            else:
                self.census[n] = c
                checker.check(ref.census_errors(
                    n, c.total, c.matched, c.movable, c.movable_up_to_rotation), f"census {n}")
            yield
        for n in range(5):
            seen = 0
            for d in P.diagram.enumerate_diagrams(n):
                seen += 1
                self._moves(d, checker)
                yield
            if seen != ref.diagram_count(n):
                checker.check([f"{seen} diagrams, not {ref.diagram_count(n)}"],
                              f"enumerate_diagrams({n})")
        for d, r1, r2 in self.random:
            self._moves(d, checker)
            self._insertions(d, r1, r2, checker)
            yield

    def _moves(self, d, checker):
        M = self.P.moves
        before = ref.tokens_of(d)
        context = ref.code_of(before) or "empty diagram"
        try:
            moves = M.enumerate_moves(d)
            errors = ref.site_errors(
                before,
                [m.chord for m in moves if isinstance(m, M.R1Delete)],
                [m.chords for m in moves if isinstance(m, M.R2Delete)],
            )
            for move in moves:
                after = ref.tokens_of(M.apply_move(d, move))
                if isinstance(move, M.R1Delete):
                    errors += ref.deletion_errors(before, after, {move.chord})
                elif isinstance(move, M.R2Delete):
                    errors += ref.deletion_errors(before, after, set(move.chords))
                else:
                    errors += ref.r3_errors(before, after, set(move.chords))
        except Exception as exc:
            checker.operation_failed(context, exc)
        else:
            checker.check(errors, context)

    def _insertions(self, d, r1, r2, checker):
        M = self.P.moves
        before = ref.tokens_of(d)
        context = ref.code_of(before) or "empty diagram"
        try:
            errors = []
            for kind, move in (("R1", M.R1Insert(*r1)), ("R2", M.R2Insert(*r2))):
                grown = M.apply_move(d, move)
                found, new = ref.insertion_errors(before, ref.tokens_of(grown), kind)
                errors += found
                if found:
                    continue
                undo = M.R1Delete(new[0]) if kind == "R1" else M.R2Delete(tuple(new))
                if ref.tokens_of(M.apply_move(grown, undo)) != before:
                    errors.append(f"{M.format_move(undo)} does not undo {M.format_move(move)}")
        except Exception as exc:
            checker.operation_failed(context, exc)
        else:
            checker.check(errors, context)

    def final_checks(self, checker):
        """The matched counts against a recount from the definition, which
        is too slow to repeat in every round."""
        for n, c in self.census.items():
            checker.check(ref.census_errors(
                n, c.total, c.matched, c.movable, c.movable_up_to_rotation,
                ref.matched_configurations(n)), f"census {n}")


class _Search:
    """Shared by descent and insertion: parse a Gauss code, search, check."""

    budget: int
    insertions: bool
    make_inputs = None

    def __init__(self, P, seed):
        self.P = P
        self.inputs = self.make_inputs(seed)
        self.limits = P.simplify.SearchLimits(
            max_states=self.budget, allow_insertions=self.insertions)

    def operations(self, checker):
        P = self.P
        for known, code in self.inputs:
            try:
                d = P.codec.parse_gauss_code(code)
                result = P.simplify.simplify(d, self.limits)
                errors = search_errors(P, d, result, self.budget, known)
            except Exception as exc:
                checker.operation_failed(code, exc)
            else:
                checker.check(errors, code)
            yield

    def final_checks(self, checker):
        pass


class Descent(_Search):
    """``simplify`` without insertions on scrambles of the unknot (30
    chords) and of the virtual trefoil (10 chords)."""

    nominal_round_s = 7.0
    budget = 20_000
    insertions = False
    make_inputs = staticmethod(inputs.descent_inputs)


class Insertion(_Search):
    """``simplify`` with insertions and a small state budget on 2-3 chord
    diagrams: random ones with J != 0 and with J == 0, and scrambles of the
    empty diagram."""

    nominal_round_s = 2.4
    budget = 60
    insertions = True
    make_inputs = staticmethod(inputs.insertion_inputs)


WORKLOADS = {"sweep": Sweep, "descent": Descent, "insertion": Insertion}
