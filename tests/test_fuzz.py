"""Fuzzing the input surface: arbitrary text into the two parsers and into
every CLI subcommand.

The parsers may reject text only with their documented errors, and every
command line must end in exit code 0, 1 or 2 with no exception escaping
``main``.  Texts are bounded in length; each subcommand runs on a small
input or budget so that an example takes milliseconds, not seconds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gaussdiag import (
    ParseError,
    R2Delete,
    R3,
    format_move,
    make_diagram,
    parse_gauss_code,
    parse_move,
    random_diagram,
    serialize_gauss_code,
)
from gaussdiag.cli import _MAX_RANDOM_CHORDS, main

MAX_TEXT = 40

texts = st.text(max_size=MAX_TEXT)
tokens = st.builds(
    "".join,
    st.tuples(st.sampled_from("OoUu"), st.sampled_from(["1", "2", "3", "a"]), st.sampled_from("+-−")),
)
# arbitrary text, code-like token soup, and valid codes of up to 6 chords
codes = st.one_of(
    texts,
    st.lists(tokens, max_size=8).map(" ".join),
    st.builds(
        lambda n, seed: serialize_gauss_code(random_diagram(n, seed)),
        st.integers(0, 6),
        st.integers(0, 10**6),
    ),
)
move_specs = st.one_of(
    texts,
    st.lists(
        st.one_of(
            st.sampled_from(
                ["r1", "r2", "r3", "del", "ins", "0", "1", "+", "-", "hf", "x", "1,2", "1,2,3",
                 # numerically equal labels, and a digit that int() rejects
                 "02", "\u00b2", "2,02", "\u00b2,1", "1,01,2"]
            ),
            st.text(max_size=4),
        ),
        max_size=6,
    ).map(":".join),
)


def _flag(name):
    return st.sampled_from([[], [name]])


def _argv(*parts):
    """A command line from strategies that each draw a list of arguments."""
    return st.tuples(*parts).map(lambda lists: [arg for args in lists for arg in args])


def _one(strategy):
    return strategy.map(lambda value: [value])


def _int_text(values):
    return st.one_of(values.map(str), texts)


def _census_is_small(text):
    # census at 4 and 5 chords walks (2n-1)!! * 4^n diagrams (about 0.15 s
    # and 5 s); other tests pin those counts, so the fuzz leaves them out
    try:
        return int(text) not in (4, 5)
    except ValueError:
        return True


COMMAND_LINES = {
    "validate": _argv(st.just(["validate"]), _one(st.one_of(codes, st.just("-")))),
    "moves": _argv(st.just(["moves"]), _one(codes), _flag("--insertions"), _flag("--json")),
    "apply": _argv(st.just(["apply"]), _one(codes), st.just(["--move"]), _one(move_specs)),
    # at most 20 expansions of at most 6 chords, with or without
    # --insertions: a search keys a parent's insertions only when their
    # chord count comes up, so even with them an example takes milliseconds
    "simplify": _argv(
        st.just(["simplify"]),
        _one(codes),
        st.just(["--max-states"]),
        _one(_int_text(st.integers(-1, 20))),
        _flag("--insertions"),
        _flag("--trace"),
        _flag("--json"),
    ),
    "canonical": _argv(st.just(["canonical"]), _one(codes)),
    "render": _argv(
        st.just(["render"]),
        _one(codes),
        st.just(["--format"]),
        _one(st.one_of(st.sampled_from(["ascii", "svg"]), texts)),
        # relative to the temporary working directory: itself, a file
        # under a missing directory, and a writable file
        st.sampled_from([[], ["-o", "."], ["-o", "missing/x.svg"], ["-o", "out.svg"]]),
    ),
    "random": _argv(
        st.just(["random", "--chords"]),
        _one(
            _int_text(
                st.one_of(
                    st.integers(-2, 40),
                    st.sampled_from([_MAX_RANDOM_CHORDS, _MAX_RANDOM_CHORDS + 1, 10**20]),
                    st.integers(_MAX_RANDOM_CHORDS + 1, 10**30),
                )
            )
        ),
        st.just(["--seed"]),
        _one(_int_text(st.integers())),
    ),
    "census": _argv(
        st.just(["census", "--chords"]),
        _one(_int_text(st.integers(-2, 3) | st.integers(6, 10**30)).filter(_census_is_small)),
        st.just(["--count"]),
        _one(st.one_of(st.just("movable-triples"), texts)),
    ),
    "anything": st.lists(texts, max_size=4),
}


@given(codes)
def test_parse_gauss_code_raises_only_parse_error(text):
    try:
        d = parse_gauss_code(text)
    except ParseError:
        return
    # the parser builds without revalidating: its result must pass validation
    assert d == make_diagram(d.endpoints, dict(d.signs))
    assert parse_gauss_code(serialize_gauss_code(d)) == d


@given(move_specs)
@example("r2:del:2,02")
@example("r3:1,01,2")
def test_parse_move_raises_only_value_error(spec):
    try:
        move = parse_move(spec)
    except ValueError:
        return
    assert parse_move(format_move(move)) == move
    if isinstance(move, (R2Delete, R3)):
        # each move has exactly one spec: every order of its chords names it
        kind = format_move(move).rsplit(":", 1)[0]
        for chords in itertools.permutations(move.chords):
            assert parse_move(kind + ":" + ",".join(chords)) == move, chords


@pytest.mark.parametrize("command", COMMAND_LINES)
# a draw of random --chords at the cap builds 10,000 chords (about 0.1 s)
@settings(deadline=None)
@given(data=st.data(), stdin=texts)
def test_cli_maps_every_command_line_to_an_exit_code(command, data, stdin):
    argv = data.draw(COMMAND_LINES[command], label="argv")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            with mock.patch("sys.stdin", io.StringIO(stdin)):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code)
    if code:
        # every failure says why: on stderr, or in the --json envelope
        assert err.getvalue() or json.loads(out.getvalue())["ok"] is False, argv
