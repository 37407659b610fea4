"""The scripts run clean against this checkout's sources."""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _env() -> dict:
    """The environment with this checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_reproduce_examples_script():
    # the script asserts every value it prints (3-signs of the worked
    # examples and figure triples included) and ends with a summary line
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_examples.py")],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all reproduced values matched"


SAMPLE = '''"""A module docstring,
on two lines."""

# a comment
import os  # a trailing comment


def f():
    """A function docstring."""
    text = """a string
    on two lines"""
    return text
'''


def _code_lines(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


def test_code_lines_script(tmp_path):
    # one row per module of the package, then the total, their sum
    *modules, (total, label) = _code_lines()
    package = sorted(path.name for path in (ROOT / "src" / "gaussdiag").glob("*.py"))
    assert label == "total"
    assert [name for _, name in modules] == package
    assert int(total) == sum(int(count) for count, _ in modules) > 0
    # blank lines, comments and docstrings are left out; the import, the
    # def, both lines of the string and the return are code
    (tmp_path / "sample.py").write_text(SAMPLE)
    assert _code_lines(tmp_path) == [["5", "sample.py"], ["5", "total"]]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_mutant_table_lines_occur_once():
    # each mutant replaces one source line that occurs exactly once in its
    # module; every row is checked before the assert, so all stale rows are
    # reported at once; no test is run
    mutants = _mutants()
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS) >= 20
    assert {m.layer for m in mutants.MUTANTS} == set(mutants.LAYERS)
    stale = []
    for mutant in mutants.MUTANTS:
        source = (ROOT / "src" / "gaussdiag" / mutant.module).read_text()
        try:
            lines = zip(source.splitlines(), mutants.mutated(source, mutant).splitlines())
        except ValueError as error:
            stale.append(str(error))
            continue
        changed = [(old.strip(), new.strip()) for old, new in lines if old != new]
        if changed != [(mutant.line, mutant.replacement)]:
            stale.append(f"{mutant.name}: the replacement changes {changed}")
    assert not stale, "\n".join(stale)


def test_mutant_killers_name_existing_tests():
    # the runner tries each mutant's stored killer alone first, so each must
    # be a node id pytest collects: one test, or a test function with all
    # its parameters; so must each timed test, which the runner deselects
    # to judge a kill on time again.  Only a mutant meant to be caught by
    # time keeps a timed killer.  Only collection runs
    mutants = _mutants()
    assert all(m.timed == (m.killer in mutants.TIMED) for m in mutants.MUTANTS)
    killers = sorted({m.killer for m in mutants.MUTANTS} | set(mutants.TIMED))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *killers],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    collected = [line for line in proc.stdout.splitlines() if "::" in line]
    for killer in killers:
        assert any(node == killer or node.startswith(killer + "[") for node in collected), killer


def test_readme_counts_match_the_suite_and_the_mutant_table():
    # the README states the tier-1 test count and the mutant count; the
    # first is what pytest collects from the repository root, this test
    # included, and the second is the length of the mutant table
    readme = (ROOT / "README.md").read_text()
    tests = re.search(r"tier-1 suite holds (\d+) tests", readme)
    mutants = re.search(r"(\d+) one-line mutants", readme)
    killed = re.search(r"Tier-1 kills all (\d+)\.", readme)
    assert tests and mutants and killed
    assert int(mutants[1]) == int(killed[1]) == len(_mutants().MUTANTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    collected = [line for line in proc.stdout.splitlines() if "::" in line]
    assert int(tests[1]) == len(collected)
