"""Command-line surface: subcommands, exit codes, envelopes, stdin."""

from __future__ import annotations

import io
import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from gaussdiag import parse_gauss_code
from gaussdiag.cli import _MAX_RANDOM_CHORDS, main

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


def test_moves_with_insertions(capsys):
    code, out, _ = run(capsys, "moves", "--insertions", TREFOIL)
    assert code == 0
    assert len(out.splitlines()) == 80  # 16 single-chord + 64 pair insertions


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


def test_apply_malformed_spec_exits_1(capsys):
    code, _, err = run(capsys, "apply", TREFOIL, "--move", "r9:x")
    assert code == 1
    assert "unknown move kind" in err


# ------------------------------------------------------------------ simplify


def test_simplify_text(capsys):
    code, out, _ = run(capsys, "simplify", EX1)
    assert code == 0
    assert out == "\n"  # the final code of the unknot is empty


def test_simplify_trace(capsys):
    code, out, _ = run(capsys, "simplify", "--trace", EX1)
    assert code == 0
    assert out.splitlines() == [
        "r2:del:1,4 => O1- U1- O2- U2-",
        "r1:del:3 => O1- U1-",
        "r1:del:2 => ",
        "",
    ]


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


def test_simplify_json_invalid_limits(capsys):
    code, out, err = run(capsys, "simplify", "--json", "--max-states", "0", EX1)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "result": None, "error": "max_states must be positive"}


def test_simplify_max_states(capsys):
    code, out, _ = run(capsys, "simplify", "--json", "--max-states", "1", EX2)
    assert code == 0
    assert json.loads(out)["result"]["limit_hit"] is True


def test_simplify_insertions_truncated_wide_search(capsys):
    # 300 expansions generate tens of thousands of children, keyed from
    # their parts and stored as moves: a fraction of a second, tens of MB
    code, out, _ = run(
        capsys, "simplify", "--insertions", "--max-states", "300", "--json",
        "U1- O1- O2+ O3+ U2+ O4+ U4+ U3+",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert parse_gauss_code(result["final"]).n == 2
    assert result["limit_hit"] is True


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


# --------------------------------------------------------------------- usage


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
