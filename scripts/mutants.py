"""One-line mutants of ``src/gaussdiag`` and a runner that checks the tests
kill each one.

``MUTANTS`` is the mutant table: one row per mutant, giving its name, the
module it edits, the exact source line (without its indentation, which
must occur exactly once in the module), the one line that replaces it,
the layer it breaks, its killer, the test that last killed it, and
whether it is meant to be caught by a time bound (``timed``).  The
layers are the Gauss-code reader, a diagram's position map and shared
endpoints, the scan and canonical code (spelled and read back), move
detection, the sign-free move sites and rewrites an endpoint
arrangement's diagrams share, the R3 triple kernel, the rewrite, the
search's walk over a move family, the move specs, the census, the search,
the value types' record base and the command line's output path.

For each mutant the runner copies ``src/`` to a temporary directory,
applies the mutant there and runs pytest from the repository root, with
the copy first on ``PYTHONPATH``: the mutant's killer alone first, and
only if that test passes, the whole tier-1 suite with ``-x``.  So a
mutant is judged by every tier-1 test before it survives, and the killer
spares the run the files before it (a kill by the killer alone needs a
test that fails or errs, so a killer that names no test never kills; a
mutant that breaks the package's import errs every test, since pytest
cannot load the tests' ``conftest.py``).
It prints ``killed`` with the failing test and the first line of its
failure, marking a kill that took the whole suite (``suite``: store the
new killer in the row), or ``survived``, and exits 1 if any mutant
survived.  The one tier-1 test that fails by design, criterion 6, is
deselected, since under ``-x`` it would kill every mutant.  Two tests
are timed (criterion 7 within 10 s, the 3,000-chord chain's scan within
1 s), and on a loaded machine they can fail on their own.  So only a
mutant its row marks as caught by time (``timed``) faces the ``TIMED``
tests; every other mutant is judged, in one pass, with them deselected.
A mutant that hangs the suite past the 1,800 s timeout counts as killed.

    python scripts/mutants.py                    # every mutant, whole suite
    python scripts/mutants.py witness-first      # only the named mutants
    python scripts/mutants.py --tests tests/test_differential.py
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
LAYERS = (
    "codec", "layout", "scan", "detection", "sites", "kernel", "rewrite", "walk", "spec", "census",
    "search", "values", "cli",
)
KNOWN_FAILURE = "tests/test_acceptance.py::test_criterion_6_rearrangement_preserves_structure"
TIMEOUT = 1800  # seconds per mutant; a mutant that hangs the suite counts as killed


# the tests that fail on time: a kill by one of them may be the machine's
# load and not the mutant, so only a timed mutant faces them
TIMED = (
    "tests/test_acceptance.py::test_criterion_7_move_invariance_suite",
    "tests/test_differential.py::test_least_rotations_stop_at_the_first_tie",
)


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/gaussdiag
    line: str  # the source line, stripped
    replacement: str  # the line put in its place, stripped
    layer: str
    killer: str  # the pytest node id of the test that last killed it
    timed: bool = False  # meant to be caught by a time bound


MUTANTS = (
    # the Gauss-code reader
    Mutant(
        "codec-chord-error-at-once", "codec.py",
        'held = ParseError(f"token {ti}: sign mismatch for chord {label}", ti, start)',
        'raise ParseError(f"token {ti}: sign mismatch for chord {label}", ti, start)',
        "codec",
        "tests/test_codec.py::test_error_location[21]",
    ),
    Mutant(
        "codec-offset-one-past", "codec.py",
        'f"token {ti}: chord {label} has two {ch.upper()} occurrences", ti, start',
        'f"token {ti}: chord {label} has two {ch.upper()} occurrences", ti, start + 1',
        "codec",
        "tests/test_codec.py::test_error_location[4]",
    ),
    Mutant(
        "codec-repeated-role", "codec.py",
        "if held is None and role in roles:",
        "if False:",
        "codec",
        "tests/test_acceptance.py::test_criterion_8_codec_totality",
    ),
    Mutant(
        "codec-table-before-accept", "codec.py",
        "tokens.append((ends, label))",
        "tokens.append((ends, ends[label].chord))",
        "codec",
        "tests/test_codec.py::test_rejected_text_adds_no_shared_endpoints",
    ),
    Mutant(
        "codec-later-chord-error", "codec.py",
        "elif held is None and signs.setdefault(label, sign) != sign:",
        "elif signs.setdefault(label, sign) != sign:",
        "codec",
        "tests/test_codec.py::test_error_location[22]",
    ),
    Mutant(
        "codec-any-type", "codec.py",
        "if not isinstance(text, str):",
        "if False:",
        "codec",
        "tests/test_fuzz.py::test_readers_reject_input_that_is_not_a_str",
    ),
    # a diagram's position map and shared endpoints
    Mutant(
        "trusted-pair-swapped", "diagram.py",
        "pos[ep.chord] = (j, i) if ep.role == HEAD else (i, j)",
        "pos[ep.chord] = (i, j) if ep.role == HEAD else (j, i)",
        "layout",
        "tests/test_acceptance.py::test_criterion_3a_movable_triple_listing",
    ),
    Mutant(
        "constructor-repeat-missed", "diagram.py",
        "if key in seen:  # a repeated role, or a third endpoint",
        "if False:",
        "layout",
        "tests/test_diagram.py::test_validation_errors[endpoints0-signs0-duplicate tail for chord 1]",
    ),
    Mutant(
        "copy-new-endpoint", "diagram.py",
        "return _shared_endpoint, (self.chord, self.role)",
        "return Endpoint, (self.chord, self.role)",
        "layout",
        "tests/test_diagram.py::test_copies_hold_the_shared_endpoints",
    ),
    Mutant(
        "table-other-role", "diagram.py",
        "_TAILS = _Table(lambda label: Endpoint(label, TAIL))",
        "_TAILS = _Table(lambda label: Endpoint(label, HEAD))",
        "layout",
        "tests/test_acceptance.py::test_triangle_oracle_matches_three_chord_census",
    ),
    Mutant(
        "placed-flips-ignored", "diagram.py",
        "eps[pair[flip]], eps[pair[1 - flip]] = tail, head",
        "eps[pair[0]], eps[pair[1]] = tail, head",
        "layout",
        "tests/test_diagram.py::test_enumeration_distinct_and_valid",
    ),
    # the scan and canonical code
    Mutant(
        "scan-tie-stop", "diagram.py",
        "else:  # k ties with best, so the diagram repeats every k - best",
        "if False:  # every tie is compared in full",
        "scan",
        "tests/test_differential.py::test_least_rotations_stop_at_the_first_tie",
        timed=True,
    ),
    Mutant(
        "scan-greater-wins", "diagram.py",
        "if entry < code[i]:  # k wins: the common prefix, then its entry",
        "if entry > code[i]:",
        "scan",
        "tests/test_differential.py::test_canonical_matches_oracle",
    ),
    Mutant(
        "scan-last-start", "diagram.py",
        "if k >= m:",
        "if k >= m - 1:",
        "scan",
        "tests/test_diagram.py::test_canonical_idempotent_and_rotation_invariant",
    ),
    Mutant(
        "scan-shared-entry", "diagram.py",
        "mine = {chords[k + 1]: 2, c: 1}  # c alone when c's own head is next",
        "mine = {chords[k + 1]: 2, c: 2}",
        "scan",
        "tests/test_diagram.py::test_canonical_idempotent_and_rotation_invariant",
    ),
    Mutant(
        "scan-entry1-own-head", "diagram.py",
        "entry = bases[k + 1] | (2 if chords[k + 1] == c else 4)",
        "entry = bases[k + 1] | 4",
        "scan",
        "tests/test_differential.py::test_least_rotations_entry_one_screen",
    ),
    Mutant(
        "scan-numbering", "diagram.py",
        "entry = bases[p] | mine.setdefault(chords[p], len(mine) + 1) << 1",
        "entry = bases[p] | mine.setdefault(chords[p], len(mine) + 2) << 1",
        "scan",
        "tests/test_diagram.py::test_canonical_idempotent_and_rotation_invariant",
    ),
    Mutant(
        "read-code-sign", "codec.py",
        'return (_HEADS if token[0] == "U" else _TAILS)[token[1:-1]], -1 if token[-1] == "-" else 1',
        'return (_HEADS if token[0] == "U" else _TAILS)[token[1:-1]], -1 if token[-1] == "+" else 1',
        "scan",
        "tests/test_acceptance.py::test_criterion_2_example_1_end_to_end",
    ),
    # detection
    Mutant(
        "label-key-tie", "diagram.py",
        "return (0, int(label), label) if label.isascii() and label.isdigit() else (1, 0, label)",
        'return (0, int(label), "") if label.isascii() and label.isdigit() else (1, 0, label)',
        "detection",
        "tests/test_acceptance.py::test_criterion_3a_movable_triple_listing",
    ),
    Mutant(
        "label-key-table-strings", "diagram.py",
        "_LABEL_KEYS = _Table(label_key)",
        "_LABEL_KEYS = _Table(lambda label: (1, 0, label))",
        "detection",
        "tests/test_differential.py::test_label_key_table_matches_label_key",
    ),
    Mutant(
        "adjacent-one-way", "diagram.py",
        "return (p - q) % m in (1, m - 1)",
        "return (p - q) % m == 1",
        "detection",
        "tests/test_acceptance.py::test_criterion_2_example_1_end_to_end",
    ),
    Mutant(
        "no-wrap-pair", "sites.py",
        "return zip(eps, eps[1:] + eps[:1])",
        "return zip(eps, eps[1:])",
        "detection",
        "tests/test_acceptance.py::test_criterion_5_theorem_census",
    ),
    Mutant(
        "r2-tails-unchecked", "moves.py",
        "if not _adjacent(m, ta, tb):",
        "if False:",
        "detection",
        "tests/test_differential.py::test_r2_pairs_and_messages_match_oracle",
    ),
    Mutant(
        "r2-order", "sites.py",
        "return [pair for _, pair in sorted(found)]",
        "return [pair for _, pair in found]",
        "detection",
        "tests/test_differential.py::test_r2_pairs_and_messages_match_oracle",
    ),
    Mutant(
        "r2-site-tails-unchecked", "sites.py",
        "if _adjacent(m, ta, tb):",
        "if True:",
        "detection",
        "tests/test_acceptance.py::test_criterion_3c_example_2_simplifies",
    ),
    Mutant(
        "r3-candidate-side", "sites.py",
        "for z in (eps[t - 1], eps[(t + 1) % m]):",
        "for z in (eps[(t + 1) % m],):",
        "detection",
        "tests/test_acceptance.py::test_criterion_3a_movable_triple_listing",
    ),
    # the sign-free move sites and rewrites an endpoint arrangement's diagrams share
    Mutant(
        "sites-r2-signs-leak", "sites.py",
        "if _adjacent(m, ta, tb):",
        "if _adjacent(m, ta, tb) and d.signs[x.chord] != d.signs[y.chord]:",
        "sites",
        "tests/test_differential.py::test_r2_pairs_and_messages_match_oracle",
    ),
    Mutant(
        "sites-r3-signs-leak", "sites.py",
        "found[t] = _tilings(d, t)",
        "found[t] = [x for x in _tilings(d, t) if len({d.signs[c] * f for c, f in zip(t, x[2])}) < 2]",
        "sites",
        "tests/test_acceptance.py::test_criterion_5_theorem_census",
    ),
    Mutant(
        "sites-across-arrangements", "diagram.py",
        "for pos, sites in [(_positions(eps), {})]",
        'for pos, sites in [(_positions(eps), enumerate_diagrams.__dict__.setdefault("s", {}))]',
        "sites",
        "tests/test_differential.py::test_r1_chords_and_deletion_match_oracle",
    ),
    Mutant(
        "sites-not-kept", "sites.py",
        "found = sites[find] = find(d)",
        "found = find(d)",
        "sites",
        "tests/test_moves.py::test_r3_walk_runs_the_kernel_once_per_candidate_and_kept_triple",
    ),
    Mutant(
        "sites-r3-edit-by-triple", "moves.py",
        "key = (*cuts, *arcs)",
        "key = (*cuts, *(fields[0] if arcs else ()))",
        "sites",
        "tests/test_differential.py::test_r3_rewrite_matches_oracle",
    ),
    Mutant(
        "sites-r2-edit-before-check", "moves.py",
        "_check_chords(d, move.chords)",
        "_check_chords(d, move.chords); d._sites is None or d._sites.setdefault(tuple(_cuts(d, "
        "move.chords)), ((e := tuple(_edited(d.endpoints, _cuts(d, move.chords), (), ()))), "
        "_positions(e)))",
        "sites",
        "tests/test_differential.py::test_shared_rewrites_match_unshared_copies",
    ),
    # the R3 triple kernel
    Mutant(
        "witness-first", "moves.py",
        "arcs, numbers, movable = next((t for t in qualifying if t[2]), qualifying[0])",
        "arcs, numbers, movable = qualifying[0]",
        "kernel",
        "tests/test_acceptance.py::test_triangle_oracle_matches_three_chord_census",
    ),
    Mutant(
        "movable-arcs-two-signs", "moves.py",
        "if sa * fa == sb * fb == sc * fc:",
        "if sa * fa == sb * fb:",
        "kernel",
        "tests/test_cli.py::test_moves_text",
    ),
    Mutant(
        "wrap-tiling-end", "sites.py",
        "if q2 == q1 + 1 and q4 == q3 + 1 and q0 == 0 and q5 == m - 1:",
        "if q2 == q1 + 1 and q4 == q3 + 1 and q0 == 0:",
        "kernel",
        "tests/test_differential.py::test_r3_triples_match_oracle",
    ),
    Mutant(
        "parity", "sites.py",
        "1 if xab == xbc else -1,",
        "1 if xab != xbc else -1,",
        "kernel",
        "tests/test_acceptance.py::test_triangle_oracle_matches_three_chord_census",
    ),
    Mutant(
        "direction", "sites.py",
        "direction = 1 if (j - i) % 3 == 1 else -1",
        "direction = 1 if (i - j) % 3 == 1 else -1",
        "kernel",
        "tests/test_acceptance.py::test_criterion_3a_movable_triple_listing",
    ),
    Mutant(
        "mixed-same-chord", "sites.py",
        "mixed = pair if x.chord != y.chord else None",
        "mixed = pair",
        "kernel",
        "tests/test_acceptance.py::test_triangle_oracle_matches_three_chord_census",
    ),
    # the rewrite
    Mutant(
        "gap-off-by-one", "moves.py",
        "if type(gap) is not int or not 0 <= gap < limit:",
        "if type(gap) is not int or not 0 <= gap <= limit:",
        "rewrite",
        "tests/test_differential.py::test_row_rewrite_matches_endpoint_oracle",
    ),
    Mutant(
        "fresh-short", "moves.py",
        "candidates = map(str, range(1, len(d.signs) + count + 1))",
        "candidates = map(str, range(1, len(d.signs) + count))",
        "rewrite",
        "tests/test_cli.py::test_simplify_insertions_truncated_wide_search",
    ),
    Mutant(
        "cut-order", "moves.py",
        "cuts.sort(reverse=True)",
        "cuts.sort()",
        "rewrite",
        "tests/test_acceptance.py::test_criterion_2_example_1_end_to_end",
    ),
    Mutant(
        "sign-order", "moves.py",
        "signs = {**d.signs, **add}",
        "signs = {**add, **d.signs}",
        "rewrite",
        "tests/test_differential.py::test_row_rewrite_matches_endpoint_oracle",
    ),
    Mutant(
        "r2-shared-gap", "moves.py",
        "blocks = (heads, tails) if head_gap >= tail_gap else (tails, heads)",
        "blocks = (heads, tails) if head_gap > tail_gap else (tails, heads)",
        "rewrite",
        "tests/test_differential.py::test_row_rewrite_matches_endpoint_oracle",
    ),
    Mutant(
        "r1-head-first", "moves.py",
        "ends = (_HEADS[lab], _TAILS[lab]) if head_first else (_TAILS[lab], _HEADS[lab])",
        "ends = (_HEADS[lab], _TAILS[lab]) if not head_first else (_TAILS[lab], _HEADS[lab])",
        "rewrite",
        "tests/test_differential.py::test_row_rewrite_matches_endpoint_oracle",
    ),
    # the search's own edit of an R3, which finds its arcs without the
    # check apply_move makes first: the first tiling, movable or not
    Mutant(
        "edit-r3-first-tiling", "moves.py",
        "arcs = arcs or _movable_arcs(d.signs, fields[0], _tilings(d, fields[0]))",
        "arcs = arcs or _tilings(d, fields[0])[0][0]",
        "rewrite",
        "tests/test_differential.py::test_unchecked_edit_builds_what_apply_move_builds",
    ),
    # two rewrites that no Reidemeister move makes: an R2 insertion whose
    # chords share a sign (the one place an insertion's signs are written,
    # so the search's walk reads it too), which the checks of the affine
    # index polynomial kill among others, and an R3, on the apply_move path
    # only, that swaps the first tiling of a movable triple, whose 3-signs
    # may differ, which keeps that polynomial and only the rewrite oracles
    # and the R3 inverse check kill
    Mutant(
        "r2-insert-equal-signs", "moves.py",
        "return blocks, {x: sign, y: -sign}",
        "return blocks, {x: sign, y: sign}",
        "rewrite",
        "tests/test_invariants.py::test_insertions_keep_it_on_seeded_diagrams",
    ),
    Mutant(
        "r3-swaps-unmovable-tiling", "moves.py",
        "arcs = _movable_arcs(d.signs, t, tilings)",
        "arcs = _movable_arcs(d.signs, t, tilings) and tilings[0][0]",
        "rewrite",
        "tests/test_differential.py::test_r3_rewrite_matches_oracle",
    ),
    # the search's walk over a move family
    Mutant(
        "insertion-sign-order", "moves.py",
        "_VARIANTS = tuple(itertools.product((1, -1), (True, False)))",
        "_VARIANTS = tuple(itertools.product((-1, 1), (True, False)))",
        "walk",
        "tests/test_differential.py::test_family_rows_match_oracles",
    ),
    Mutant(
        "insertion-last-gap", "moves.py",
        "return itertools.product(range(max(1, m)), repeat=added)",
        "return itertools.product(range(max(1, m - 1)), repeat=added)",
        "walk",
        "tests/test_cli.py::test_moves_with_insertions",
    ),
    Mutant(
        "walk-first-tiling", "moves.py",
        "sites = [((t,), (), _movable_arcs(d.signs, t, _tilings(d, t))) for t in r3_movable_triples(d)]",
        "sites = [((t,), (), _tilings(d, t)[0][0]) for t in r3_movable_triples(d)]",
        "walk",
        "tests/test_differential.py::test_family_rows_match_oracles",
    ),
    Mutant(
        "walk-one-fresh-label", "moves.py",
        "fresh = tuple(_fresh_labels(d, 2))",
        "fresh = tuple(_fresh_labels(d, 1) * 2)",
        "walk",
        "tests/test_differential.py::test_family_rows_match_oracles",
    ),
    Mutant(
        "walk-r1-blocks-swapped", "moves.py",
        "for (variant, (x,), (u,)), skipped in zip(layout, flags):",
        "for (variant, (x,), _), (_, _, (u,)), skipped in "
        "zip(layout, [layout[1], layout[0], *layout[2:]], flags):",
        "walk",
        "tests/test_differential.py::test_trace_forms_match_a_canonical_replay",
    ),
    Mutant(
        "walk-r2-heads-first", "moves.py",
        "layouts = [_LAYOUTS[gaps, fresh] for gaps in ((0, 1), (0, 0))]",
        "layouts = [_LAYOUTS[gaps, fresh] for gaps in ((0, 1), (0, 1))]",
        "walk",
        "tests/test_differential.py::test_family_rows_match_oracles",
    ),
    Mutant(
        "walk-r2-first-chords-blocks", "moves.py",
        "for variant, (x, y), (u, v) in layouts[head_gap >= tail_gap]:",
        "for (variant, _, (u, v)), (x, y) in zip(layouts[head_gap >= tail_gap], "
        "itertools.repeat(layouts[head_gap >= tail_gap][0][1])):",
        "walk",
        "tests/test_differential.py::test_family_rows_match_oracles",
    ),
    Mutant(
        "walk-layout-key-no-fresh", "moves.py",
        "layout = _LAYOUTS[(0,), fresh]",
        "layout = _LAYOUTS.setdefault((0,), _insertion_layout((0,), fresh))",
        "walk",
        "tests/test_differential.py::test_layout_table_matches_fresh_layouts",
    ),
    Mutant(
        "walk-skip-first-site", "moves.py",
        "sites = [((pair,), _cuts(d, pair), ()) for pair in r2_removable_pairs(d) if pair != made]",
        "sites = [((pair,), _cuts(d, pair), ()) for pair in r2_removable_pairs(d)][len(made) == 2:]",
        "walk",
        "tests/test_differential.py::test_search_walks_no_deletion_whose_children_are_not_keyed",
    ),
    Mutant(
        "walk-r1-insertion-last-gap", "moves.py",
        "for (gap,) in _insertion_gaps(m, 1):",
        "for (gap,) in _insertion_gaps(m - 1, 1):",
        "walk",
        "tests/test_move_graph.py::test_exhaustive_searches_end_at_the_graph_minimum",
    ),
    Mutant(
        "walk-kink-filter-r2-made", "moves.py",
        "elif len(made) == 1:  # a kink: only the one triple that can hold it",
        "elif made:",
        "walk",
        "tests/test_differential.py::test_search_skips_only_children_it_has_keyed",
    ),
    Mutant(
        "kink-triple-inner-neighbour", "sites.py",
        "a, b = eps[p - 1].chord, eps[(p + 2) % m].chord",
        "a, b = eps[p - 1].chord, eps[(p + 1) % m].chord",
        "walk",
        "tests/test_differential.py::test_kink_local_r3_find_is_the_full_find_restricted",
    ),
    # the move specs
    Mutant(
        "spec-any-type", "moves.py",
        "if not isinstance(spec, str):",
        "if False:",
        "spec",
        "tests/test_fuzz.py::test_readers_reject_input_that_is_not_a_str",
    ),
    Mutant(
        "spec-flag-texts-swapped", "moves.py",
        '(("gap", "head gap"), ("gap", "tail gap"), ("sign",), ("flag", "pattern", ("u", "x")))),',
        '(("gap", "head gap"), ("gap", "tail gap"), ("sign",), ("flag", "pattern", ("x", "u")))),',
        "spec",
        "tests/test_moves.py::test_move_spec_roundtrip",
    ),
    Mutant(
        "spec-prefix-any-case", "moves.py",
        "if parts[:len(head)] == head:",
        "if [part.lower() for part in parts[:len(head)]] == head:",
        "spec",
        "tests/test_moves.py::test_move_spec_errors",
    ),
    Mutant(
        "spec-one-label-too-many", "moves.py",
        "if len(labels) != form[1] or not all(labels):",
        "if len(labels) not in (form[1], form[1] + 1) or not all(labels):",
        "spec",
        "tests/test_moves.py::test_format_move_rejects_what_has_no_spec",
    ),
    # the census
    Mutant(
        "census-class-size", "moves.py",
        "return CensusResult(n, total, matched, movable, movable // (2 * n))",
        "return CensusResult(n, total, matched, movable, movable // n)",
        "census",
        "tests/test_acceptance.py::test_criterion_5_theorem_census",
    ),
    Mutant(
        "census-two-signs", "moves.py",
        "if signs[a] * fa == signs[b] * fb == signs[c] * fc:",
        "if signs[a] * fa == signs[b] * fb:",
        "census",
        "tests/test_acceptance.py::test_criterion_5_theorem_census",
    ),
    Mutant(
        "census-matched", "moves.py",
        "matched += len(tilings) * len(sign_maps)",
        "matched += len(tilings)",
        "census",
        "tests/test_cli.py::test_census_output",
    ),
    # the search
    Mutant(
        "search-key-late", "simplify.py",
        "entry = (count, 1, child_key, state, codes if change == 1 else None)",
        "entry = (count, -1, child_key, state, codes if change == 1 else None)",
        "search",
        "tests/test_differential.py::test_simplify_matches_oracle_without_insertions",
    ),
    Mutant(
        "search-newest-family-first", "simplify.py",
        "heapq.heappush(queue, (count + change, 0, explored, key, change, state, made,",
        "heapq.heappush(queue, (count + change, 0, -explored, key, change, state, made,",
        "search",
        "tests/test_simplify.py::test_search_keys_a_counts_families_in_expansion_order",
    ),
    Mutant(
        "search-family-walks-parent", "simplify.py",
        "signs, state = state.signs, _edit(state, added, fields)",
        "signs = state.signs; _edit(state, added, fields)",
        "search",
        "tests/test_acceptance.py::test_criterion_2_example_1_end_to_end",
    ),
    Mutant(
        "search-made-one-label-too-many", "simplify.py",
        "made = tuple(state.signs)[len(signs):]  # _edit signs them last",
        "made = tuple(state.signs)[len(signs) - 1:]",
        "search",
        "tests/test_differential.py::test_search_walks_no_deletion_whose_children_are_not_keyed",
    ),
    Mutant(
        "search-walked-fields", "simplify.py",
        "parent, added, fields = info[key]  # its edit, made only now",
        "parent, added, _ = info[key]  # its edit, made only now",
        "search",
        "tests/test_differential.py::test_simplify_matches_oracle_without_insertions",
    ),
    Mutant(
        "search-best-tie", "simplify.py",
        "if entry < best:",
        "if entry[0] < best[0]:",
        "search",
        "tests/test_differential.py::test_simplify_matches_oracle_without_insertions",
    ),
    Mutant(
        "search-budget", "simplify.py",
        "if explored >= limits.max_states:",
        "if explored > limits.max_states:",
        "search",
        "tests/test_differential.py::test_simplify_matches_oracle_with_insertions",
    ),
    Mutant(
        "search-no-empty-child", "simplify.py",
        "if least <= count + change <= top:",
        "if max(least, 1) <= count + change <= top:",
        "search",
        "tests/test_acceptance.py::test_criterion_2_example_1_end_to_end",
    ),
    Mutant(
        "search-r2-made-skips-deletions", "simplify.py",
        "least = count if added == 1 else 0  # an R1-made state's deletions are all keyed",
        "least = count if added in (1, 2) else 0  # an R1-made state's deletions are all keyed",
        "search",
        "tests/test_differential.py::test_search_walks_no_deletion_whose_children_are_not_keyed",
    ),
    Mutant(
        "search-insertions-always", "simplify.py",
        "top = max_chords if limits.allow_insertions else count  # the most chords a child has",
        "top = max_chords",
        "search",
        "tests/test_differential.py::test_simplify_matches_oracle_without_insertions",
    ),
    Mutant(
        "search-r1-made-skips-r3", "simplify.py",
        "if added == 1 and not _kink_r3_sites(state, made[0]):  # its R3s are keyed too",
        "if added == 1:",
        "search",
        "tests/test_differential.py::test_search_skips_only_children_it_has_keyed",
    ),
    Mutant(
        "search-skips-kink-gap", "simplify.py",
        "skip = flags[:4 * gap + 4] + [False] * 4 + flags[4 * gap:]",
        "skip = flags[:4 * gap + 4] + flags[4 * gap:4 * gap + 4] + flags[4 * gap:]",
        "search",
        "tests/test_differential.py::test_search_skips_only_children_it_has_keyed",
    ),
    Mutant(
        "search-skips-equal-code", "simplify.py",
        "flags = [code < parent for code in codes]  # parent: this state's own code",
        "flags = [code <= parent for code in codes]",
        "search",
        "tests/test_differential.py::test_search_skips_only_children_it_has_keyed",
    ),
    Mutant(
        "search-left-out-below-codes", "simplify.py",
        'codes[:] = ["~" if skipped else next(keyed) for skipped in skip]',
        'codes[:] = ["" if skipped else next(keyed) for skipped in skip]',
        "search",
        "tests/test_differential.py::test_search_skips_only_children_it_has_keyed",
    ),
    # the value types' record base
    Mutant(
        "record-eq-any-class", "diagram.py",
        "if other.__class__ is not self.__class__:",
        "if False:",
        "values",
        "tests/test_diagram.py::test_value_type_parity[Endpoint]",
    ),
    Mutant(
        "record-drop-last-field", "diagram.py",
        'cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")',
        'cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")[:-1]',
        "values",
        "tests/test_cli.py::test_moves_text",
    ),
    Mutant(
        "record-values-reversed", "diagram.py",
        "for name, value in zip(self._fields, values, strict=True):",
        "for name, value in zip(self._fields, values[::-1], strict=True):",
        "values",
        "tests/test_diagram.py::test_records_that_only_store_keep_each_argument_in_its_field[Endpoint]",
    ),
    # the command line's output path: main prints each subcommand's report,
    # wraps it under --json and sets the exit code
    Mutant(
        "cli-not-applicable-exits-1", "cli.py",
        "return 2 if isinstance(report, MoveNotApplicable) else 1",
        "return 1",
        "cli",
        "tests/test_cli.py::test_apply_not_applicable_exits_2",
    ),
    Mutant(
        "cli-success-envelope-not-ok", "cli.py",
        "_emit_json(not failed, None if failed else report, str(report) if failed else None)",
        "_emit_json(False, None if failed else report, str(report) if failed else None)",
        "cli",
        "tests/test_cli.py::test_moves_json",
    ),
    Mutant(
        "cli-first-line-only", "cli.py",
        "for line in report:",
        "for line in report[:1]:",
        "cli",
        "tests/test_cli.py::test_census_output",
    ),
    Mutant(
        "cli-insertion-cap-lifted", "cli.py",
        "if args.insertions and d.n > _MAX_INSERTION_CHORDS:",
        "if False:",
        "cli",
        "tests/test_cli.py::test_moves_insertions_above_cap_exits_1",
    ),
    Mutant(
        "cli-help-written-by-argparse", "cli.py",
        "raise _HelpReport(self.format_help().splitlines())",
        "super().print_help(file)",
        "cli",
        "tests/test_cli.py::test_failed_write_is_reported_on_stderr_only[help-full-disk]",
    ),
    Mutant(
        "cli-failed-write-kept", "cli.py",
        "_drop_stdout()",
        "pass",
        "cli",
        "tests/test_cli.py::test_failed_write_is_reported_on_stderr_only",
    ),
)


def mutated(source: str, mutant: Mutant) -> str:
    """``source`` with the mutant's line replaced, its indentation kept;
    ValueError unless the line occurs exactly once."""
    lines = source.splitlines(keepends=True)
    found = [i for i, line in enumerate(lines) if line.strip() == mutant.line]
    if len(found) != 1:
        raise ValueError(f"{mutant.name}: line occurs {len(found)} times in {mutant.module}")
    (i,) = found
    indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
    lines[i] = indent + mutant.replacement + "\n"
    return "".join(lines)


def run(mutant: Mutant, tests, deselect=()) -> tuple:
    """Run the tests against a copy of ``src/`` with the mutant applied,
    criterion 6 and ``deselect`` left out: (pytest's exit status, or None
    for a timeout; the first failing test with its failure's first line,
    or what stopped the run)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "gaussdiag" / mutant.module
        path.write_text(mutated(path.read_text(), mutant))
        paths = [str(src), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        command = [
            sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "-x", "-rfE", "-p", "no:cacheprovider",
            *[arg for test in (KNOWN_FAILURE, *deselect) for arg in ("--deselect", test)], *tests,
        ]
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {TIMEOUT} s"
    lines = proc.stdout.splitlines()
    for line in lines:
        if line.startswith(("FAILED ", "ERROR ")):
            # the summary line cuts its message to the terminal's width
            first = next((e[1:].strip() for e in lines if e.startswith("E ")), "")
            return proc.returncode, f"{line.split(' - ')[0]} - {first}"
    errors = proc.stderr.splitlines()
    if errors and errors[0].startswith("ImportError while loading conftest"):
        # the mutant breaks the package's import, so no test can run: an
        # error of every test, the killer's included
        conftest = Path(errors[0].split("'")[1]).relative_to(ROOT)
        first = next((e[1:].strip() for e in errors if e.startswith("E ")), "")
        return proc.returncode, f"ERROR {conftest} - {first}"
    return proc.returncode, (proc.stdout.strip().splitlines() or [f"exit status {proc.returncode}"])[-1]


def judge(mutant: Mutant, tests) -> tuple:
    """(killed, by, the run that killed: ``killer`` or ``suite``), in one
    pass with the ``TIMED`` tests deselected unless the mutant is meant to
    be caught by time: its killer alone first, unless ``tests`` are given,
    then the tests (default: tier-1)."""
    deselect = () if mutant.timed else TIMED
    if not tests:
        status, by = run(mutant, [mutant.killer], deselect)
        if status is None or by.startswith(("FAILED ", "ERROR ")):
            return True, by, "killer"
    status, by = run(mutant, tests, deselect)
    return status != 0, (by if status != 0 else ""), "suite"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument(
        "--tests", nargs="+", default=[],
        help="test paths, run without the killer first (default: each killer, then tier-1)",
    )
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in chosen}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    survivors = 0
    total = time.perf_counter()
    for mutant in chosen:
        start = time.perf_counter()
        killed, by, where = judge(mutant, args.tests)
        survivors += not killed
        verdict = "killed" if killed else "survived"
        seconds = time.perf_counter() - start
        print(f"{mutant.name:<30} {mutant.layer:<9} {verdict:<8} {where:<6} {seconds:6.1f} s  {by}",
              flush=True)
    seconds = time.perf_counter() - total
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed in {seconds:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
