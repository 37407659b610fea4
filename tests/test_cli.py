"""Command-line surface: subcommands, exit codes, envelopes, stdin."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from invariants import keeps_the_invariants

import gaussdiag
from gaussdiag import (
    enumerate_moves, format_move, parse_gauss_code, random_diagram, serialize_gauss_code,
)
from gaussdiag.cli import _MAX_INSERTION_CHORDS, _MAX_RANDOM_CHORDS, main

EX1 = "O1- U2- O3- U1- U4+ U3- O2- O4+"
EX2 = "O3+ U4- O1+ U2- U1+ U3+ O2- O4-"
TREFOIL = "O1-O2-U1-U2-"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ validate


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", TREFOIL)
    assert code == 0
    assert out == "ok: 2 chords, writhe -2\n"
    assert err == ""


def test_validate_parse_error(capsys):
    code, out, err = run(capsys, "validate", "O1+ U1-")
    assert code == 1
    assert out == ""
    assert err == "error: token 1: sign mismatch for chord 1\n"


@pytest.mark.parametrize("command, options", [
    ("moves", ()), ("apply", ("--move", "r1:del:1")), ("simplify", ()),
    ("canonical", ()), ("render", ("--format", "ascii")),
])
def test_parse_error_before_subcommand(capsys, command, options):
    # main parses CODE once, before any subcommand runs
    code, out, err = run(capsys, command, *options, "O1+ U1-")
    assert code == 1
    assert out == ""
    assert err == "error: token 1: sign mismatch for chord 1\n"


def test_validate_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(TREFOIL + "\n"))
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0
    assert out == "ok: 2 chords, writhe -2\n"


# --------------------------------------------------------------------- moves


def test_moves_text(capsys):
    code, out, _ = run(capsys, "moves", EX1)
    assert code == 0
    assert out == "r2:del:1,4\n"


def test_moves_json(capsys):
    code, out, _ = run(capsys, "moves", "--json", EX2)
    assert code == 0
    assert json.loads(out) == {
        "ok": True,
        "result": ["r3:1,2,4", "r3:1,3,4"],
        "error": None,
    }


def test_moves_json_parse_error(capsys):
    code, out, _ = run(capsys, "moves", "--json", "O1+ U1-")
    assert code == 1
    assert json.loads(out) == {
        "ok": False,
        "result": None,
        "error": "token 1: sign mismatch for chord 1",
    }


def test_simplify_json_parse_error(capsys):
    code, out, _ = run(capsys, "simplify", "--json", "O1+ U1-")
    assert code == 1
    assert json.loads(out) == {
        "ok": False,
        "result": None,
        "error": "token 1: sign mismatch for chord 1",
    }


def test_moves_with_insertions(capsys):
    code, out, _ = run(capsys, "moves", "--insertions", TREFOIL)
    assert code == 0
    assert len(out.splitlines()) == 80  # 16 single-chord + 64 pair insertions


def test_moves_insertions_above_cap_exits_1(capsys):
    # 16n^2 + 8n insertions: above the cap the listing is refused before it
    # is built, in either output mode; without insertions it is listed
    above = serialize_gauss_code(random_diagram(_MAX_INSERTION_CHORDS + 1, 1))
    message = f"moves --insertions is capped at {_MAX_INSERTION_CHORDS} chords"
    assert run(capsys, "moves", "--insertions", above) == (1, "", f"error: {message}\n")
    code, out, err = run(capsys, "moves", "--insertions", "--json", above)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "result": None, "error": message}
    code, out, err = run(capsys, "moves", above)
    assert (code, err) == (0, "")
    assert out.splitlines() == [format_move(m) for m in enumerate_moves(parse_gauss_code(above))]


def test_moves_insertions_cap_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr("gaussdiag.cli._MAX_INSERTION_CHORDS", 2)
    assert run(capsys, "moves", "--insertions", TREFOIL)[0] == 0
    code, out, err = run(capsys, "moves", "--insertions", "O1-O2-U1-U2-O3+U3+")
    assert (code, out, err) == (1, "", "error: moves --insertions is capped at 2 chords\n")


# --------------------------------------------------------------------- apply


def test_apply_r3(capsys):
    code, out, _ = run(capsys, "apply", EX2, "--move", "r3:1,3,4")
    assert code == 0
    assert out == "O4- O1+ U4- U2- U3+ U1+ O2- O3+\n"


def test_apply_not_applicable_exits_2(capsys):
    code, out, err = run(capsys, "apply", TREFOIL, "--move", "r1:del:1")
    assert code == 2
    assert out == ""
    assert err == "error: chord 1 endpoints are not adjacent (positions 0 and 2)\n"


def test_apply_r3_unknown_chord_exits_2(capsys):
    code, out, err = run(capsys, "apply", TREFOIL, "--move", "r3:1,2,9")
    assert code == 2
    assert out == ""
    assert err == "error: chord 9 not in diagram\n"


@pytest.mark.parametrize(
    "code_text, spec",
    [("O1-U1-", "r2:del:\u00b2,1"), (TREFOIL, "r2:del:\u00b2,1"), (TREFOIL, "r3:\u00b2,1,2")],
)
def test_apply_non_ascii_digit_label_exits_1(capsys, code_text, spec):
    # "\u00b2" (superscript two) is a digit to str.isdigit but not to int(),
    # and no chord label: the spec is malformed, not the move inapplicable
    code, out, err = run(capsys, "apply", code_text, "--move", spec)
    assert code == 1
    assert out == ""
    assert err == f"error: move spec {spec!r}: invalid chord label '\u00b2'\n"


def test_apply_malformed_spec_exits_1(capsys):
    code, _, err = run(capsys, "apply", TREFOIL, "--move", "r9:x")
    assert code == 1
    assert "unknown move kind" in err


# ------------------------------------------------------------------ simplify


def _keeps_the_invariants(start: str, final: str) -> bool:
    """Whether the final code a search printed keeps the start code's
    invariants (see ``invariants.keeps_the_invariants``)."""
    return keeps_the_invariants(parse_gauss_code(start), parse_gauss_code(final))


def test_simplify_text(capsys):
    code, out, _ = run(capsys, "simplify", EX1)
    assert code == 0
    assert out == "\n"  # the final code of the unknot is empty
    assert _keeps_the_invariants(EX1, out.strip())


def test_simplify_trace(capsys):
    code, out, _ = run(capsys, "simplify", "--trace", EX1)
    assert code == 0
    assert out.splitlines() == [
        "r2:del:1,4 => O1- U1- O2- U2-",
        "r1:del:3 => O1- U1-",
        "r1:del:2 => ",
        "",
    ]
    assert _keeps_the_invariants(EX1, out.splitlines()[-1])


def test_simplify_json(capsys):
    code, out, _ = run(capsys, "simplify", "--json", EX1)
    assert code == 0
    assert json.loads(out) == {
        "ok": True,
        "result": {
            "final": "",
            "trace": [
                {"move": "r2:del:1,4", "result": "O1- U1- O2- U2-"},
                {"move": "r1:del:3", "result": "O1- U1-"},
                {"move": "r1:del:2", "result": ""},
            ],
            "states_explored": 3,
            "limit_hit": False,
        },
        "error": None,
    }
    assert _keeps_the_invariants(EX1, json.loads(out)["result"]["final"])


def test_simplify_json_invalid_limits(capsys):
    code, out, err = run(capsys, "simplify", "--json", "--max-states", "0", EX1)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "result": None, "error": "max_states must be positive"}


def test_simplify_max_states(capsys):
    code, out, _ = run(capsys, "simplify", "--json", "--max-states", "1", EX2)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["limit_hit"] is True
    assert _keeps_the_invariants(EX2, result["final"])


def test_simplify_insertions_truncated_wide_search(capsys):
    # 300 expansions generate tens of thousands of children, keyed from
    # their parts and stored as moves: a fraction of a second, tens of MB
    start = "U1- O1- O2+ O3+ U2+ O4+ U4+ U3+"
    code, out, _ = run(capsys, "simplify", "--insertions", "--max-states", "300", "--json", start)
    assert code == 0
    result = json.loads(out)["result"]
    assert parse_gauss_code(result["final"]).n == 2
    assert result["limit_hit"] is True
    assert _keeps_the_invariants(start, result["final"])


# ---------------------------------------------------- canonical, render, random


def test_canonical(capsys):
    code, out, _ = run(capsys, "canonical", "U2- O3- U3- O2-")
    assert code == 0
    assert out == "O1- U1- O2- U2-\n"


def test_canonical_of_empty_code(capsys):
    code, out, _ = run(capsys, "canonical", "")
    assert code == 0
    assert out == "\n"


def test_render_ascii_stdout(capsys):
    code, out, _ = run(capsys, "render", "--format", "ascii", TREFOIL)
    assert code == 0
    assert "1: 0→2 -" in out


def test_render_svg_to_file(capsys, tmp_path):
    target = tmp_path / "out.svg"
    code, out, _ = run(capsys, "render", "--format", "svg", "-o", str(target), TREFOIL)
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    ET.fromstring(text)


@pytest.mark.parametrize("target", [".", "missing/x.svg"])
def test_render_to_unwritable_path_exits_1(capsys, tmp_path, target):
    code, out, err = run(capsys, "render", "--format", "svg", "-o", str(tmp_path / target), TREFOIL)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_render_requires_format(capsys):
    code, _, err = run(capsys, "render", TREFOIL)
    assert code == 1
    assert "--format" in err


def test_random_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "random", "--chords", "3", "--seed", "7")
    code2, out2, _ = run(capsys, "random", "--chords", "3", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert parse_gauss_code(out1).n == 3


def test_random_seed_42(capsys):
    code, out, _ = run(capsys, "random", "--chords", "3", "--seed", "42")
    assert code == 0
    assert parse_gauss_code(out).n == 3


@pytest.mark.parametrize("chords", [str(_MAX_RANDOM_CHORDS + 1), "99999999999999999999"])
def test_random_above_cap_exits_1(capsys, chords):
    code, out, err = run(capsys, "random", "--chords", chords, "--seed", "1")
    assert (code, out) == (1, "")
    assert err == f"error: random is capped at {_MAX_RANDOM_CHORDS} chords\n"


# -------------------------------------------------------------------- census


def test_census_output(capsys):
    code, out, _ = run(capsys, "census", "--chords", "3", "--count", "movable-triples")
    assert code == 0
    assert out.splitlines() == [
        "total 960",
        "matched 768",
        "movable 192",
        "movable-up-to-rotation 32",
    ]


def test_census_too_small(capsys):
    code, _, err = run(capsys, "census", "--chords", "2", "--count", "movable-triples")
    assert code == 1
    assert err == "error: census needs at least 3 chords\n"


# ------------------------------------------------------------- failed writes


def _failing_stdout(kind: str):
    """A stdout whose writes raise: a pipe whose reader has gone, or /dev/full."""
    if kind == "closed pipe":
        read, write = os.pipe()
        os.close(read)
        return open(write, "w")
    return open("/dev/full", "w")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("kind, argv, error", [
    ("full disk", ("simplify", "--json", "O1+ U1+"), "No space left on device"),
    ("closed pipe", ("moves", "--insertions", "--json", serialize_gauss_code(random_diagram(60, 3))),
     "Broken pipe"),
    ("full disk", ("--help",), "No space left on device"),
    ("closed pipe", ("--help",), "Broken pipe"),
    ("full disk", ("simplify", "--help"), "No space left on device"),
    ("closed pipe", ("simplify", "--help"), "Broken pipe"),
], ids=["full-disk", "closed-pipe", "help-full-disk", "help-closed-pipe",
        "simplify-help-full-disk", "simplify-help-closed-pipe"])
def test_failed_write_is_reported_on_stderr_only(capsys, monkeypatch, kind, argv, error):
    # gaussdiag simplify --json ... > /dev/full, and moves --json ... | head:
    # the report's write raises, and main says so on stderr only (no error
    # envelope to the stdout that failed, no traceback) and exits 1.  What
    # stdout still buffers goes to devnull, so the interpreter's last flush
    # of it, and any later write, cannot raise.  A help is a report too
    with _failing_stdout(kind) as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(list(argv))
        print("after", file=stdout)
        stdout.flush()
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: [Errno ") and err.endswith(f"] {error}\n") and err.count("\n") == 1


# --------------------------------------------------------------------- usage


@pytest.mark.parametrize("argv", [("--help",), ("-h",), ("simplify", "--help")])
def test_help_is_printed_and_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: {' '.join(('gaussdiag', *argv[:-1]))} [-h]")
    assert out.endswith("\n") and not out.endswith("\n\n")


def test_unknown_subcommand_exits_1(capsys):
    assert run(capsys, "shrink", TREFOIL)[0] == 1


def test_unknown_flag_exits_1(capsys):
    assert run(capsys, "validate", "--frobnicate", TREFOIL)[0] == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gaussdiag", "validate", TREFOIL],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "ok: 2 chords, writhe -2\n"


def test_start_up_imports_no_code_generation_machinery():
    # the package and its CLI import neither dataclasses nor inspect nor
    # typing, even in an interpreter whose site module imported nothing, and
    # the CLI loads json only when a command writes --json output
    src = Path(gaussdiag.__file__).resolve().parents[1]
    check = (
        "import sys, gaussdiag, gaussdiag.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", check],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
