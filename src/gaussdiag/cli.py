"""Command-line surface for the Gauss-diagram toolkit.

Subcommands: validate, moves, apply, simplify, canonical, render, random,
census.  A CODE argument of "-" reads the code from standard input.
Exit codes, set only by ``main``: 0 success, 1 parse/validation/usage/file
error, 2 move not applicable.  With --json, failures fill the envelope.
"""

from __future__ import annotations

import argparse
import json
import sys

from .codec import _canonical_code, parse_gauss_code, serialize_gauss_code
from .diagram import random_diagram, writhe
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


def _read_code(arg: str) -> str:
    return sys.stdin.read() if arg == "-" else arg


def _emit_json(ok: bool, result, error):
    print(json.dumps({"ok": ok, "result": result, "error": error}))


def _cmd_validate(args) -> int:
    d = parse_gauss_code(_read_code(args.code))
    print(f"ok: {d.n} chords, writhe {writhe(d)}")
    return 0


def _cmd_moves(args) -> int:
    d = parse_gauss_code(_read_code(args.code))
    specs = [format_move(m) for m in enumerate_moves(d, args.insertions)]
    if args.json:
        _emit_json(True, specs, None)
    else:
        for spec in specs:
            print(spec)
    return 0


def _cmd_apply(args) -> int:
    d = parse_gauss_code(_read_code(args.code))
    move = parse_move(args.move)
    print(serialize_gauss_code(apply_move(d, move)))
    return 0


def _cmd_simplify(args) -> int:
    d = parse_gauss_code(_read_code(args.code))
    limits = SearchLimits(
        max_states=args.max_states,
        allow_insertions=args.insertions,
        max_chords=args.max_chords,
    )
    result = simplify(d, limits)
    if args.json:
        trace = [
            {"move": format_move(move), "result": serialize_gauss_code(canon)}
            for move, canon in result.trace
        ]
        _emit_json(
            True,
            {
                "final": serialize_gauss_code(result.final),
                "trace": trace,
                "states_explored": result.states_explored,
                "limit_hit": result.limit_hit,
            },
            None,
        )
        return 0
    if args.trace and result.trace:
        print(format_trace(result.trace))
    print(serialize_gauss_code(result.final))
    return 0


def _cmd_canonical(args) -> int:
    d = parse_gauss_code(_read_code(args.code))
    print(_canonical_code(d.endpoints, d.signs))
    return 0


def _cmd_render(args) -> int:
    d = parse_gauss_code(_read_code(args.code))
    text = render(d, RenderOptions(format=args.format))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_random(args) -> int:
    if args.chords > _MAX_RANDOM_CHORDS:
        raise ValueError(f"random is capped at {_MAX_RANDOM_CHORDS} chords")
    print(serialize_gauss_code(random_diagram(args.chords, args.seed)))
    return 0


def _cmd_census(args) -> int:
    result = census_movable_triples(args.chords)
    print(f"total {result.total}")
    print(f"matched {result.matched}")
    print(f"movable {result.movable}")
    print(f"movable-up-to-rotation {result.movable_up_to_rotation}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gaussdiag", description=__doc__.splitlines()[0])
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


def main(argv=None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; this tool
        # reserves 2 for move-not-applicable, so usage errors exit 1
        return 0 if exc.code == 0 else 1
    except (MoveNotApplicable, ValueError, OSError) as exc:
        if getattr(args, "json", False):
            _emit_json(False, None, str(exc))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, MoveNotApplicable) else 1


if __name__ == "__main__":
    sys.exit(main())
