"""ASCII and SVG renderings of diagrams."""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import pytest

from gaussdiag import EMPTY, RenderOptions, parse_gauss_code, random_diagram, render

SVG_NS = "{http://www.w3.org/2000/svg}"


def svg_elements(markup, tag):
    return list(ET.fromstring(markup).iter(SVG_NS + tag))


def test_options_defaults():
    opts = RenderOptions()
    assert opts.format == "ascii"
    assert opts.size == 480


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown format 'png'"):
        render(EMPTY, RenderOptions(format="png"))


# --------------------------------------------------------------------- ascii


def test_ascii_trefoil_legend():
    out = render(parse_gauss_code("O1-O2-U1-U2-"), RenderOptions(format="ascii"))
    lines = out.split("\n")
    assert lines[-2:] == ["1: 0→2 -", "2: 1→3 -"]
    assert lines[-3] == ""


def test_ascii_trefoil_grid_marks_roles():
    out = render(parse_gauss_code("O1-O2-U1-U2-"), RenderOptions(format="ascii"))
    grid = out.split("\n\n")[0]
    assert sum(line.count("O") for line in grid.splitlines()) == 2
    assert sum(line.count("U") for line in grid.splitlines()) == 2
    assert "." in grid  # the circle itself


def test_ascii_no_trailing_spaces():
    out = render(parse_gauss_code("O1-O2-U1-U2-"), RenderOptions(format="ascii"))
    assert all(line == line.rstrip() for line in out.split("\n"))


def test_ascii_empty_diagram_has_no_legend():
    out = render(EMPTY, RenderOptions(format="ascii"))
    assert "→" not in out
    assert "O" not in out and "U" not in out


# ----------------------------------------------------------------------- svg


def test_svg_is_wellformed_with_one_circle_per_diagram():
    markup = render(EMPTY, RenderOptions(format="svg"))
    assert len(svg_elements(markup, "circle")) == 1
    assert len(svg_elements(markup, "line")) == 0


def test_svg_trefoil_structure():
    markup = render(parse_gauss_code("O1-O2-U1-U2-"), RenderOptions(format="svg"))
    lines = svg_elements(markup, "line")
    assert len(lines) == 2
    assert all(line.get("marker-end") == "url(#arrow)" for line in lines)
    assert len(svg_elements(markup, "marker")) == 1


def test_svg_labels_and_signs_in_first_appearance_order():
    markup = render(
        parse_gauss_code("O3+ U4- O1+ U2- U1+ U3+ O2- O4-"),
        RenderOptions(format="svg"),
    )
    texts = [el.text for el in svg_elements(markup, "text")]
    assert texts == ["3", "+", "4", "-", "1", "+", "2", "-"]
    assert len(svg_elements(markup, "line")) == 4


def test_svg_size_option():
    markup = render(EMPTY, RenderOptions(format="svg", size=300))
    root = ET.fromstring(markup)
    assert root.get("width") == "300"
    assert root.get("height") == "300"
    assert root.get("viewBox") == "0 0 300 300"


@pytest.mark.parametrize("size, message", [
    (True, "size True is not an int"),
    (2.5, "size 2.5 is not an int"),
    ("10", "size '10' is not an int"),
    (0, "size must be positive"),
])
def test_svg_size_must_be_a_positive_int(size, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        render(EMPTY, RenderOptions(format="svg", size=size))


def test_svg_wellformed_for_random_diagrams():
    for seed in range(100):
        markup = render(random_diagram(seed % 9, seed), RenderOptions(format="svg"))
        ET.fromstring(markup)  # raises on malformed XML
