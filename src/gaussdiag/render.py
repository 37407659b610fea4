"""Draw Gauss diagrams: a circle with one straight arrow per chord.

Endpoint k of a 2n-endpoint diagram sits at angle 360/(4n) + k*360/(2n)
degrees, counterclockwise from the positive x axis, mirroring the usual
half-step placement (22.5 deg + k*45 deg when n = 4).  SVG output draws
the circle, tail-to-head arrows with a marker, the chord label at the
tail, and the sign at the chord midpoint.  ASCII output draws a coarse
grid plus a legend line per chord: "label: tailpos->headpos sign".
"""

from __future__ import annotations

import math

from .diagram import TAIL, GaussDiagram, _check_int, _Record

ASCII_FORMAT = "ascii"
SVG_FORMAT = "svg"


class RenderOptions(_Record):
    __slots__ = ("format", "size")

    def __init__(self, format: str = ASCII_FORMAT, size: int = 480):
        super().__init__(format, size)


def _angle(d: GaussDiagram, pos: int) -> float:
    # degrees, counterclockwise; half-step offset so no endpoint sits at 0
    step = 360.0 / (2 * d.n)
    return step / 2 + pos * step


def render(d: GaussDiagram, opts: RenderOptions = RenderOptions()) -> str:
    if opts.format == SVG_FORMAT:
        return _render_svg(d, opts.size)
    if opts.format == ASCII_FORMAT:
        return _render_ascii(d)
    raise ValueError(f"unknown format {opts.format!r}")


def _render_svg(d: GaussDiagram, size: int) -> str:
    _check_int(size, "size")
    if size < 1:
        raise ValueError("size must be positive")
    c = size / 2.0
    r = size * 0.40

    def xy(pos, radius=r):
        theta = math.radians(_angle(d, pos))
        return c + radius * math.cos(theta), c - radius * math.sin(theta)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        "<defs>"
        '<marker id="arrow" markerWidth="10" markerHeight="8" refX="9" refY="4" '
        'orient="auto" markerUnits="userSpaceOnUse">'
        '<path d="M0,0 L10,4 L0,8 z"/></marker>'
        "</defs>",
        f'<circle cx="{c}" cy="{c}" r="{r}" fill="none" stroke="black"/>',
    ]
    for chord in d.chords():
        tp = d.tail_position(chord)
        hp = d.head_position(chord)
        x1, y1 = xy(tp)
        x2, y2 = xy(hp)
        sign = "+" if d.signs[chord] > 0 else "-"
        lx, ly = xy(tp, r * 1.10)
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="black" marker-end="url(#arrow)"/>'
        )
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" text-anchor="middle" '
            f'dominant-baseline="middle" font-size="{size / 30:.1f}">{chord}</text>'
        )
        parts.append(
            f'<text x="{mx:.2f}" y="{my:.2f}" text-anchor="middle" '
            f'dominant-baseline="middle" font-size="{size / 30:.1f}">{sign}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _render_ascii(d: GaussDiagram) -> str:
    width, height = 41, 21
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    rx, ry = (width - 3) / 2.0, (height - 3) / 2.0
    grid = [[" "] * width for _ in range(height)]
    for tenth in range(0, 3600):
        theta = math.radians(tenth / 10.0)
        col = round(cx + rx * math.cos(theta))
        row = round(cy - ry * math.sin(theta))
        if grid[row][col] == " ":
            grid[row][col] = "."
    for pos, ep in enumerate(d.endpoints):
        theta = math.radians(_angle(d, pos))
        col = round(cx + rx * math.cos(theta))
        row = round(cy - ry * math.sin(theta))
        grid[row][col] = "O" if ep.role == TAIL else "U"
    lines = ["".join(row).rstrip() for row in grid]
    legend = [
        "{}: {}→{} {}".format(
            chord,
            d.tail_position(chord),
            d.head_position(chord),
            "+" if d.signs[chord] > 0 else "-",
        )
        for chord in d.chords()
    ]
    if legend:
        lines.append("")
        lines.extend(legend)
    return "\n".join(lines)
