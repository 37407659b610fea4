"""The scripts run clean against this checkout's sources."""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

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
    # for every mutant not meant to be caught by time.  Only such a mutant
    # keeps a timed killer.  Only collection runs
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


def test_mutant_gate_judges_each_mutant_in_one_pass(monkeypatch):
    # the runner is replaced by a recorder, so no test runs: every run of a
    # mutant not meant to be caught by time deselects the timed tests, no
    # run of a timed mutant does, and a mutant takes at most two runs (its
    # killer, then the suite) whether the killer passes, fails or times out
    mutants = _mutants()
    timed = set(mutants.TIMED)
    outcomes = [
        ((0, "1 passed"), False),
        ((1, f"FAILED {mutants.TIMED[0]} - assert 10.5 < 10"), True),
        ((None, "timed out"), True),
    ]
    runs = []
    monkeypatch.setattr(mutants, "run", lambda m, tests, deselect=(): runs.append(set(deselect)) or outcome)
    for outcome, killed in outcomes:
        for mutant in mutants.MUTANTS:
            runs.clear()
            assert mutants.judge(mutant, [])[0] is killed
            assert 1 <= len(runs) <= 2
            assert all(deselected & timed == (set() if mutant.timed else timed) for deselected in runs)


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


def _bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _bench_trees(tmp_path) -> list:
    """Two copies, parent and change, of this checkout's sources and
    benchmark under ``tmp_path``: ``bench.py compare``'s two arguments."""
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for side in ("parent", "change"):
        for name in ("src", "perfbench"):
            shutil.copytree(ROOT / name, tmp_path / side / name, ignore=ignore)
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side)
    return [str(tmp_path / "parent"), str(tmp_path / "change")]


def test_bench_compare_on_a_tiny_configuration(tmp_path):
    # two copies of this checkout's sources and benchmark, one pair of
    # 0.1 s insertion runs: each end-to-end metric of BENCHMARK.json gets
    # one line, and neither tree keeps a __pycache__.  The pairs alternate
    # which side runs first
    assert _bench().schedule(4) == [(1, "parent"), (2, "change"), (3, "parent"), (4, "change")]
    trees = _bench_trees(tmp_path)
    (tmp_path / "parent" / "src" / "gaussdiag" / "__pycache__").mkdir()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "compare", *trees,
         "--workloads", "insertion", "--pairs", "1", "--seconds", "0.1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == "insertion: 1 pairs, parent median [IQR] -> change median"
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert [row.split()[0] for row in rows] == [m["name"] for m in metrics]
    line = re.compile(r"  \S+ +\S+ \[\S+, \S+\] -> +\S+ \S+ +wins [01]/1  (ok|worse)")
    assert all(line.fullmatch(row) for row in rows), rows
    assert not list(tmp_path.rglob("__pycache__"))


def _processes_under(tree: Path) -> dict:
    """pid -> arguments of each live process whose working directory, or
    one of whose arguments, lies under ``tree``, read from ``/proc``."""
    tree = str(tree.resolve())
    found = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            with contextlib.suppress(OSError):  # gone, or a zombie with no working directory
                cwd = os.readlink(entry / "cwd")
                args = (entry / "cmdline").read_bytes().decode().split("\0")
                if cwd.startswith(tree) or any(arg.startswith(tree) for arg in args):
                    found[int(entry.name)] = args
    return found


@pytest.mark.skipif(not Path("/proc/self/cwd").exists(), reason="reads processes from /proc")
def test_bench_compare_stopped_by_sigterm_leaves_no_process(tmp_path):
    # one long run, stopped by SIGTERM once its perfbench/run.py has started
    # that run's worker.py: the script exits 143, and no process of the
    # trees survives it
    trees = _bench_trees(tmp_path)
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "compare", *trees,
         "--workloads", "insertion", "--pairs", "1", "--seconds", "60"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not any(arg.endswith("/perfbench/worker.py")
                      for args in _processes_under(tmp_path).values() for arg in args):
            assert proc.poll() is None and time.monotonic() < deadline, "no worker started"
            time.sleep(0.05)
        assert any("perfbench/run.py" in args for args in _processes_under(tmp_path).values())
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        deadline = time.monotonic() + 10
        while _processes_under(tmp_path) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _processes_under(tmp_path) == {}
    finally:
        proc.kill()
        proc.communicate()
        for pid in _processes_under(tmp_path):
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)


def test_bench_layers_on_a_tiny_configuration(tmp_path):
    # one size and one pass: every layer has a figure at that size, so do
    # apply_move and the search's unchecked edit for each move kind, both
    # seed-1 rounds a CPU time, and the figures are written as JSON
    output = tmp_path / "BENCH_layers.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "layers", "--sizes", "4",
         "--repeats", "1", "--output", str(output)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(output.read_text())
    layers = result["layers_us_per_call"]
    assert sorted(layers) == ["canonical_code", "r3_family_r1_child", "r3_find"]
    assert all(list(by_size) == ["4"] and by_size["4"] > 0 for by_size in layers.values()), layers
    expand = result["expand_us_per_call"]
    assert list(expand) == ["R1Delete", "R2Delete", "R3", "R1Insert", "R2Insert"]
    figures = [by_size for paths in expand.values() for by_size in paths.values()]
    assert all(list(paths) == ["apply_move", "edit"] for paths in expand.values()), expand
    assert all(list(by_size) == ["4"] and by_size["4"] > 0 for by_size in figures), expand
    rounds = result["seed_1_round_cpu_s"]
    assert sorted(rounds) == ["descent", "insertion"] and all(s > 0 for s in rounds.values())
    assert len(proc.stdout.splitlines()) == len(layers) + len(figures) + len(rounds)
