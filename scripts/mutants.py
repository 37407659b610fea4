"""One-line mutants of ``src/gaussdiag`` and a runner that checks the tests
kill each one.

``MUTANTS`` is the mutant table: one row per mutant, giving its name, the
module it edits, the exact source line (without its indentation, which
must occur exactly once in the module), the one line that replaces it and
the layer it breaks.  The layers are the Gauss-code reader, a diagram's
position map and shared endpoints, the scan and canonical code (spelled
and read back), move detection, the sign-free move sites and rewrites an
endpoint arrangement's diagrams share, the R3 triple kernel, the
rewrite, the search's walk over a move family, the census, the search
and the value types' record base.

For each mutant the runner copies ``src/`` to a temporary directory,
applies the mutant there and runs the tier-1 pytest command with ``-x``
from the repository root, with the copy first on ``PYTHONPATH``.  It
prints ``killed`` with the first test that failed, or ``survived``, and
exits 1 if any mutant survived.  The one tier-1 test that fails by
design, criterion 6, is deselected, since under ``-x`` it would kill
every mutant.  Two tests are timed (criterion 7 within 10 s, the
3,000-chord chain's scan within 1 s); on a loaded machine they can fail
on their own and report false kills, so run the gate on an idle one.

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
    "codec", "layout", "scan", "detection", "sites", "kernel", "rewrite", "walk", "census", "search",
    "values",
)
KNOWN_FAILURE = "tests/test_acceptance.py::test_criterion_6_rearrangement_preserves_structure"
TIMEOUT = 1800  # seconds per mutant; a mutant that hangs the suite counts as killed


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/gaussdiag
    line: str  # the source line, stripped
    replacement: str  # the line put in its place, stripped
    layer: str


MUTANTS = (
    # the Gauss-code reader
    Mutant(
        "codec-chord-error-at-once", "codec.py",
        'held = ParseError(f"token {ti}: sign mismatch for chord {label}", ti, start)',
        'raise ParseError(f"token {ti}: sign mismatch for chord {label}", ti, start)',
        "codec",
    ),
    Mutant(
        "codec-offset-one-past", "codec.py",
        'f"token {ti}: chord {label} has two {ch.upper()} occurrences", ti, start',
        'f"token {ti}: chord {label} has two {ch.upper()} occurrences", ti, start + 1',
        "codec",
    ),
    Mutant(
        "codec-repeated-role", "codec.py",
        "if held is None and role in roles:",
        "if False:",
        "codec",
    ),
    Mutant(
        "codec-table-before-accept", "codec.py",
        "tokens.append((ends, label))",
        "tokens.append((ends, ends[label].chord))",
        "codec",
    ),
    Mutant(
        "codec-later-chord-error", "codec.py",
        "elif held is None and signs.setdefault(label, sign) != sign:",
        "elif signs.setdefault(label, sign) != sign:",
        "codec",
    ),
    # a diagram's position map and shared endpoints
    Mutant(
        "trusted-pair-swapped", "diagram.py",
        "pos[ep.chord] = (j, i) if ep.role == HEAD else (i, j)",
        "pos[ep.chord] = (i, j) if ep.role == HEAD else (j, i)",
        "layout",
    ),
    Mutant(
        "constructor-repeat-missed", "diagram.py",
        "if type(j) is tuple or endpoints[j].role == ep.role:",
        "if type(j) is tuple:",
        "layout",
    ),
    Mutant(
        "copy-new-endpoint", "diagram.py",
        "return _shared_endpoint, (self.chord, self.role)",
        "return Endpoint, (self.chord, self.role)",
        "layout",
    ),
    Mutant(
        "table-other-role", "diagram.py",
        "_TAILS = _Table(lambda label: Endpoint(label, TAIL))",
        "_TAILS = _Table(lambda label: Endpoint(label, HEAD))",
        "layout",
    ),
    # the scan and canonical code
    Mutant(
        "scan-tie-stop", "diagram.py",
        "else:  # k ties with best, so the diagram repeats every k - best",
        "if False:  # every tie is compared in full",
        "scan",
    ),
    Mutant(
        "scan-greater-wins", "diagram.py",
        "if entry < code[i]:  # k wins: the common prefix, then its entry",
        "if entry > code[i]:",
        "scan",
    ),
    Mutant(
        "scan-last-start", "diagram.py",
        "if k >= m:",
        "if k >= m - 1:",
        "scan",
    ),
    Mutant(
        "scan-shared-entry", "diagram.py",
        "mine = {chords[k]: 1}",
        "mine = {chords[k]: 2}",
        "scan",
    ),
    Mutant(
        "scan-numbering", "diagram.py",
        "entry = bases[p] | mine.setdefault(chords[p], len(mine) + 1) << 1",
        "entry = bases[p] | mine.setdefault(chords[p], len(mine) + 2) << 1",
        "scan",
    ),
    Mutant(
        "read-code-sign", "codec.py",
        'return (_HEADS if token[0] == "U" else _TAILS)[token[1:-1]], -1 if token[-1] == "-" else 1',
        'return (_HEADS if token[0] == "U" else _TAILS)[token[1:-1]], -1 if token[-1] == "+" else 1',
        "scan",
    ),
    # detection
    Mutant(
        "label-key-tie", "diagram.py",
        "return (0, int(label), label) if label.isascii() and label.isdigit() else (1, 0, label)",
        'return (0, int(label), "") if label.isascii() and label.isdigit() else (1, 0, label)',
        "detection",
    ),
    Mutant(
        "adjacent-one-way", "diagram.py",
        "return (p - q) % m in (1, m - 1)",
        "return (p - q) % m == 1",
        "detection",
    ),
    Mutant(
        "no-wrap-pair", "sites.py",
        "return zip(eps, eps[1:] + eps[:1])",
        "return zip(eps, eps[1:])",
        "detection",
    ),
    Mutant(
        "r2-tails-unchecked", "moves.py",
        "if not _adjacent(m, ta, tb):",
        "if False:",
        "detection",
    ),
    Mutant(
        "r2-order", "sites.py",
        "return [pair for _, pair in sorted(found)]",
        "return [pair for _, pair in found]",
        "detection",
    ),
    Mutant(
        "r2-site-tails-unchecked", "sites.py",
        "if _adjacent(m, ta, tb):",
        "if True:",
        "detection",
    ),
    Mutant(
        "r3-candidate-side", "sites.py",
        "for z in (eps[t - 1], eps[(t + 1) % m]):",
        "for z in (eps[(t + 1) % m],):",
        "detection",
    ),
    # the sign-free move sites and rewrites an endpoint arrangement's diagrams share
    Mutant(
        "sites-r2-signs-leak", "sites.py",
        "if _adjacent(m, ta, tb):",
        "if _adjacent(m, ta, tb) and d.signs[x.chord] != d.signs[y.chord]:",
        "sites",
    ),
    Mutant(
        "sites-r3-signs-leak", "sites.py",
        "found[t] = _tilings(d, t)",
        "found[t] = [x for x in _tilings(d, t) if len({d.signs[c] * f for c, f in zip(t, x[2])}) < 2]",
        "sites",
    ),
    Mutant(
        "sites-across-arrangements", "diagram.py",
        "pos, sites = _positions(eps), {}",
        'pos, sites = _positions(eps), enumerate_diagrams.__dict__.setdefault("s", {})',
        "sites",
    ),
    Mutant(
        "sites-not-kept", "sites.py",
        "found = sites[find] = find(d)",
        "found = find(d)",
        "sites",
    ),
    Mutant(
        "sites-r3-edit-by-triple", "moves.py",
        "key = (*cuts, *arcs)",
        "key = (*cuts, *(move.chords if arcs else ()))",
        "sites",
    ),
    Mutant(
        "sites-r2-edit-before-check", "moves.py",
        "_check_chords(d, move.chords)",
        "_check_chords(d, move.chords); d._sites is None or d._sites.setdefault(tuple(_cuts(d, "
        "move.chords)), ((e := tuple(_edited(d.endpoints, _cuts(d, move.chords), (), ()))), "
        "_positions(e)))",
        "sites",
    ),
    # the R3 triple kernel
    Mutant(
        "witness-first", "moves.py",
        "arcs, numbers, movable = next((t for t in qualifying if t[2]), qualifying[0])",
        "arcs, numbers, movable = qualifying[0]",
        "kernel",
    ),
    Mutant(
        "movable-arcs-two-signs", "moves.py",
        "if sa * fa == sb * fb == sc * fc:",
        "if sa * fa == sb * fb:",
        "kernel",
    ),
    Mutant(
        "wrap-tiling-end", "sites.py",
        "if q2 == q1 + 1 and q4 == q3 + 1 and q0 == 0 and q5 == m - 1:",
        "if q2 == q1 + 1 and q4 == q3 + 1 and q0 == 0:",
        "kernel",
    ),
    Mutant(
        "parity", "sites.py",
        "1 if xab == xbc else -1,",
        "1 if xab != xbc else -1,",
        "kernel",
    ),
    Mutant(
        "direction", "sites.py",
        "direction = 1 if (j - i) % 3 == 1 else -1",
        "direction = 1 if (i - j) % 3 == 1 else -1",
        "kernel",
    ),
    Mutant(
        "mixed-same-chord", "sites.py",
        "mixed = pair if x.chord != y.chord else None",
        "mixed = pair",
        "kernel",
    ),
    # the rewrite
    Mutant(
        "gap-off-by-one", "moves.py",
        "if type(gap) is not int or not 0 <= gap < limit:",
        "if type(gap) is not int or not 0 <= gap <= limit:",
        "rewrite",
    ),
    Mutant(
        "fresh-short", "moves.py",
        "candidates = map(str, range(1, len(d.signs) + count + 1))",
        "candidates = map(str, range(1, len(d.signs) + count))",
        "rewrite",
    ),
    Mutant(
        "cut-order", "moves.py",
        "cuts.sort(reverse=True)",
        "cuts.sort()",
        "rewrite",
    ),
    Mutant(
        "sign-order", "moves.py",
        "signs = {c: s for c, s in d.signs.items() if c not in gone} if gone else {**d.signs, **add}",
        "signs = {c: s for c, s in d.signs.items() if c not in gone} if gone else {**add, **d.signs}",
        "rewrite",
    ),
    Mutant(
        "r2-shared-gap", "moves.py",
        "blocks = (heads, tails) if head_gap >= tail_gap else (tails, heads)",
        "blocks = (heads, tails) if head_gap > tail_gap else (tails, heads)",
        "rewrite",
    ),
    Mutant(
        "r1-head-first", "moves.py",
        "bases = (1 << 32 | negative, negative) if head_first else (negative, 1 << 32 | negative)",
        "bases = (1 << 32 | negative, negative) if not head_first else (negative, 1 << 32 | negative)",
        "rewrite",
    ),
    # the search's walk over a move family
    Mutant(
        "insertion-sign-order", "moves.py",
        "_VARIANTS = tuple(itertools.product((1, -1), (True, False)))",
        "_VARIANTS = tuple(itertools.product((-1, 1), (True, False)))",
        "walk",
    ),
    Mutant(
        "insertion-last-gap", "moves.py",
        "return itertools.product(range(max(1, m)), repeat=added)",
        "return itertools.product(range(max(1, m - 1)), repeat=added)",
        "walk",
    ),
    Mutant(
        "walk-first-tiling", "moves.py",
        "sites = [((t,), (), _movable_arcs(d.signs, t, found[t])) for t in triples]",
        "sites = [((t,), (), found[t][0][0]) for t in triples]",
        "walk",
    ),
    Mutant(
        "walk-finds-twice", "sites.py",
        "if d._sites is not None:",
        "if True:",
        "walk",
    ),
    Mutant(
        "walk-r2-sign-bits", "moves.py",
        "nx, ny = (0, 1) if sign == 1 else (1, 0)",
        "nx, ny = (0, 0) if sign == 1 else (1, 1)",
        "walk",
    ),
    Mutant(
        "walk-one-fresh-label", "moves.py",
        "fresh = _fresh_labels(d, 2)",
        "fresh = _fresh_labels(d, 1) * 2",
        "walk",
    ),
    Mutant(
        "walk-r1-blocks-swapped", "moves.py",
        "for variant, i, (block,) in variants:",
        "for (variant, i, _), (_, _, (block,)) in zip(variants, [variants[1], variants[0], "
        "*variants[2:]]):",
        "walk",
    ),
    Mutant(
        "walk-r2-heads-first", "moves.py",
        "layouts = [_insertion_layout(gaps, fresh) for gaps in ((0, 1), (0, 0), (1, 0))]",
        "layouts = [_insertion_layout(gaps, fresh) for gaps in ((0, 1), (0, 1), (1, 0))]",
        "walk",
    ),
    Mutant(
        "walk-skip-first-site", "moves.py",
        "sites = [((c,), _cuts(d, (c,)), ()) for c in r1_removable_chords(d) if (c,) != undo]",
        "sites = [((c,), _cuts(d, (c,)), ()) for c in r1_removable_chords(d)][len(undo) == 1:]",
        "walk",
    ),
    # the census
    Mutant(
        "census-heads-arc-start", "moves.py",
        "m, h = len(endpoints), arcs[0][0]",
        "m, h = len(endpoints), 0",
        "census",
    ),
    Mutant(
        "census-two-signs", "moves.py",
        "if signs[a] * fa == signs[b] * fb == signs[c] * fc:",
        "if signs[a] * fa == signs[b] * fb:",
        "census",
    ),
    Mutant(
        "census-matched", "moves.py",
        "matched += len(tilings) * len(sign_maps)",
        "matched += len(tilings)",
        "census",
    ),
    # the search
    Mutant(
        "search-key-late", "simplify.py",
        "entry = (count, 1, child_key, state)",
        "entry = (count, -1, child_key, state)",
        "search",
    ),
    Mutant(
        "search-newest-family-first", "simplify.py",
        "heapq.heappush(queue, (count + change, 0, explored, key, change, state, undo))",
        "heapq.heappush(queue, (count + change, 0, -explored, key, change, state, undo))",
        "search",
    ),
    Mutant(
        "search-family-walks-parent", "simplify.py",
        "source, state = state, apply_move(state, move)",
        "source = state; apply_move(state, move)",
        "search",
    ),
    Mutant(
        "search-best-tie", "simplify.py",
        "if entry < best:",
        "if entry[0] < best[0]:",
        "search",
    ),
    Mutant(
        "search-budget", "simplify.py",
        "if explored >= limits.max_states:",
        "if explored > limits.max_states:",
        "search",
    ),
    Mutant(
        "search-no-empty-child", "simplify.py",
        "if 0 <= count + change <= top:",
        "if 0 < count + change <= top:",
        "search",
    ),
    Mutant(
        "search-insertions-always", "simplify.py",
        "top = max_chords if limits.allow_insertions else count  # the most chords a child has",
        "top = max_chords",
        "search",
    ),
    # the value types' record base
    Mutant(
        "record-eq-any-class", "diagram.py",
        "if other.__class__ is not self.__class__:",
        "if False:",
        "values",
    ),
    Mutant(
        "record-drop-last-field", "diagram.py",
        'cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")',
        'cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")[:-1]',
        "values",
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


def run(mutant: Mutant, tests) -> tuple:
    """Run the tests against a copy of ``src/`` with the mutant applied:
    (killed, the first failing test or what stopped the run)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "gaussdiag" / mutant.module
        path.write_text(mutated(path.read_text(), mutant))
        paths = [str(src), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        command = [
            sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "-x", "-rfE", "-p", "no:cacheprovider", "--deselect", KNOWN_FAILURE, *tests,
        ]
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT
            )
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT} s"
    if proc.returncode == 0:
        return False, ""
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return True, line.split(" - ")[0]
    return True, (proc.stdout.strip().splitlines() or [f"exit status {proc.returncode}"])[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--tests", nargs="+", default=[], help="test paths (default: tier-1)")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in chosen}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    survivors = 0
    for mutant in chosen:
        start = time.perf_counter()
        killed, by = run(mutant, args.tests)
        survivors += not killed
        verdict = "killed" if killed else "survived"
        seconds = time.perf_counter() - start
        print(f"{mutant.name:<26} {mutant.layer:<9} {verdict:<8} {seconds:6.1f} s  {by}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
