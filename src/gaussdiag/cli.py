"""Command-line surface for the Gauss-diagram toolkit.

Subcommands: validate, moves, apply, simplify, canonical, render, random,
census.  A CODE argument of "-" reads the code from standard input;
``main`` parses it, once, before the subcommand runs.  Each subcommand
returns its report and prints nothing: the lines to print or, under --json,
the envelope's result.  Only ``main`` prints, emits the envelope (success
or failure) and sets the exit code: 0 success, 1 parse/validation/usage/file
error or a capped size, 2 move not applicable.
"""

from __future__ import annotations

import argparse
import os
import sys

from .codec import parse_gauss_code, serialize_gauss_code
from .diagram import canonical, random_diagram, writhe
from .moves import (
    MoveNotApplicable,
    apply_move,
    census_movable_triples,
    enumerate_moves,
    format_move,
    parse_move,
)
from .render import RenderOptions, render
from .simplify import SearchLimits, format_trace, simplify

# random_diagram is quadratic: 10,000 chords take 0.1 s, 300,000 over 10 s
_MAX_RANDOM_CHORDS = 10_000
# moves --insertions lists 16n^2 + 8n insertions: 100 chords give 160,801
# specs in 1.8 s and 40 MB (2 cores, Python 3.11.7), 10,000 would give 1.6e9
_MAX_INSERTION_CHORDS = 100


def _read_code(arg: str) -> str:
    return sys.stdin.read() if arg == "-" else arg


def _emit_json(ok: bool, result, error):
    import json  # only --json output needs it, so other commands do not load it

    print(json.dumps({"ok": ok, "result": result, "error": error}))


def _cmd_validate(args, d):
    return [f"ok: {d.n} chords, writhe {writhe(d)}"]


def _cmd_moves(args, d):
    if args.insertions and d.n > _MAX_INSERTION_CHORDS:
        raise ValueError(f"moves --insertions is capped at {_MAX_INSERTION_CHORDS} chords")
    return [format_move(m) for m in enumerate_moves(d, args.insertions)]


def _cmd_apply(args, d):
    return [serialize_gauss_code(apply_move(d, parse_move(args.move)))]


def _cmd_simplify(args, d):
    limits = SearchLimits(
        max_states=args.max_states,
        allow_insertions=args.insertions,
        max_chords=args.max_chords,
    )
    result = simplify(d, limits)
    final = serialize_gauss_code(result.final)
    if not args.json:
        return [format_trace(result.trace), final] if args.trace and result.trace else [final]
    trace = [
        {"move": format_move(move), "result": serialize_gauss_code(canon)}
        for move, canon in result.trace
    ]
    return {
        "final": final,
        "trace": trace,
        "states_explored": result.states_explored,
        "limit_hit": result.limit_hit,
    }


def _cmd_canonical(args, d):
    return [serialize_gauss_code(canonical(d))]


def _cmd_render(args, d):
    text = render(d, RenderOptions(format=args.format))
    if not args.output:
        return [text]
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return []


def _cmd_random(args, _):
    if args.chords > _MAX_RANDOM_CHORDS:
        raise ValueError(f"random is capped at {_MAX_RANDOM_CHORDS} chords")
    return [serialize_gauss_code(random_diagram(args.chords, args.seed))]


def _cmd_census(args, _):
    result = census_movable_triples(args.chords)
    return [
        f"total {result.total}",
        f"matched {result.matched}",
        f"movable {result.movable}",
        f"movable-up-to-rotation {result.movable_up_to_rotation}",
    ]


class _HelpReport(Exception):
    """The lines of a parser's help, raised in place of printing them: the
    help is a report, which ``main`` prints like any other."""


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own print drops a failed write, and --help then exits 0
        raise _HelpReport(self.format_help().splitlines())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gaussdiag", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a Gauss code and report basics")
    p.add_argument("code")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("moves", help="list applicable moves")
    p.add_argument("code")
    p.add_argument("--insertions", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_moves)

    p = sub.add_parser("apply", help="apply one move")
    p.add_argument("code")
    p.add_argument("--move", required=True)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("simplify", help="search for a minimal diagram")
    p.add_argument("code")
    p.add_argument("--max-states", type=int, default=100000)
    p.add_argument("--insertions", action="store_true")
    p.add_argument("--max-chords", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simplify)

    p = sub.add_parser("canonical", help="canonical form of a diagram")
    p.add_argument("code")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("render", help="draw the diagram")
    p.add_argument("code")
    p.add_argument("--format", required=True, choices=["ascii", "svg"])
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("random", help="seeded random diagram")
    p.add_argument("--chords", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("census", help="exhaustive movable-triple counts")
    p.add_argument("--chords", type=int, required=True)
    p.add_argument("--count", required=True, choices=["movable-triples"])
    p.set_defaults(func=_cmd_census)

    return parser


def _drop_stdout():
    """Point stdout's descriptor, if it has one, at devnull: what stdout
    still buffers then goes there, so the interpreter's final flush cannot
    raise (Python's ``signal`` docs do this on SIGPIPE)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (OSError, ValueError):  # no descriptor (io.UnsupportedOperation is both)
        pass
    os.close(devnull)


def main(argv=None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        d = parse_gauss_code(_read_code(args.code)) if "code" in args else None
        report = args.func(args, d)
    except _HelpReport as help_report:
        report = help_report.args[0]
    except SystemExit:
        # argparse exits 2 on a usage error; this tool reserves 2 for
        # move-not-applicable, so usage errors exit 1
        return 1
    except (MoveNotApplicable, ValueError, OSError) as exc:
        report = exc
    failed = isinstance(report, Exception)
    try:
        if getattr(args, "json", False):
            _emit_json(not failed, None if failed else report, str(report) if failed else None)
        elif failed:
            print(f"error: {report}", file=sys.stderr)
        else:
            for line in report:
                print(line)
        sys.stdout.flush()  # so that a failed write raises here, not at exit
    except OSError as exc:
        # the write itself failed (a closed pipe, a full disk): stdout can
        # take nothing more, not even an error envelope
        _drop_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not failed:
        return 0
    return 2 if isinstance(report, MoveNotApplicable) else 1


if __name__ == "__main__":
    sys.exit(main())
