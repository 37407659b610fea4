"""Parse and serialize Gauss codes, plus a JSON-ready structured form.

A Gauss code is a sequence of tokens, one per chord endpoint in
counterclockwise order.  Each token is ROLE LABEL SIGN where ROLE is O
(over, chord tail) or U (under, chord head), LABEL is [A-Za-z0-9_]+ and
SIGN is + or -.  Tokens may be juxtaposed or separated by whitespace or
commas: every token ends at its sign character, so "O1-O2-U1-U2-" lexes
unambiguously.  The typographic minus U+2212 is accepted on input and
never emitted.

Both readers are trust boundaries.  The parser's token checks, whose
messages name the token, prove every diagram invariant, so it builds
through ``diagram._trusted``; ``from_structured`` checks only the
document's shape and builds through the validating ``make_diagram``.

``_canonical_code`` spells the canonical code from the scan of a
diagram's rows, so the search keys a child without building it.
"""

from __future__ import annotations

from .diagram import (
    HEAD,
    LABEL_CHARS,
    TAIL,
    Endpoint,
    GaussDiagram,
    _EntryTable,
    _least_rotations,
    _trusted,
    make_diagram,
)

_SIGN_CHARS = {"+": 1, "-": -1, "−": -1}
_SEPARATORS = frozenset(" \t\r\n,")


class ParseError(ValueError):
    """Invalid Gauss code or structured document.

    token_index is the 0-based index of the offending token (when known);
    position is the character offset into the input (when known).
    """

    def __init__(self, message, token_index=None, position=None):
        super().__init__(message)
        self.token_index = token_index
        self.position = position


def _lex(text: str):
    tokens = []
    i = 0
    ti = 0
    while i < len(text):
        ch = text[i]
        if ch in _SEPARATORS:
            i += 1
            continue
        start = i
        if ch not in "OoUu":
            raise ParseError(
                f"token {ti} (char {i}): expected role letter O or U, found {ch!r}",
                ti,
                i,
            )
        role = TAIL if ch in "Oo" else HEAD
        i += 1
        lab_start = i
        while i < len(text) and text[i] in LABEL_CHARS:
            i += 1
        label = text[lab_start:i]
        if not label:
            raise ParseError(f"token {ti} (char {start}): empty label", ti, start)
        if i >= len(text) or text[i] not in _SIGN_CHARS:
            found = repr(text[i]) if i < len(text) else "end of input"
            raise ParseError(
                f"token {ti} (char {start}): missing sign after label {label!r}, found {found}",
                ti,
                start,
            )
        sign = _SIGN_CHARS[text[i]]
        i += 1
        tokens.append((role, label, sign, ti, start))
        ti += 1
    return tokens


def parse_gauss_code(text: str) -> GaussDiagram:
    """Parse a Gauss code; token i becomes endpoint i.  Raises ParseError
    with the offending token index on any malformed or inconsistent input."""
    endpoints = []
    signs = {}
    seen = {}
    for role, label, sign, ti, pos in _lex(text):
        occurrences = seen.setdefault(label, {})
        if role in occurrences:
            letter = "O" if role == TAIL else "U"
            raise ParseError(
                f"token {ti}: chord {label} has two {letter} occurrences", ti, pos
            )
        if label in signs and signs[label] != sign:
            raise ParseError(f"token {ti}: sign mismatch for chord {label}", ti, pos)
        occurrences[role] = ti
        signs[label] = sign
        endpoints.append(Endpoint(label, role))
    for label, occurrences in seen.items():
        if len(occurrences) == 1:
            ti = next(iter(occurrences.values()))
            raise ParseError(f"token {ti}: chord {label} appears only once", ti)
    return _trusted(endpoints, signs)


def _token(head: int, label: str, negative: int) -> str:
    """The one emitted token spelling: role letter (0 tail O, 1 head U),
    label, ASCII sign (0 +, 1 -)."""
    return "OU"[head] + label + "+-"[negative]


def serialize_gauss_code(d: GaussDiagram) -> str:
    """Emit the code from the current basepoint: uppercase roles, ASCII
    signs, single-space separated.  parse(serialize(d)) == d exactly."""
    return " ".join(
        _token(ep.role == HEAD, ep.chord, d.signs[ep.chord] < 0) for ep in d.endpoints
    )


_TOKENS = _EntryTable(_token)  # least-rotation entry -> its token


def _canonical_code(chords, bases) -> str:
    """serialize_gauss_code(canonical(d)) for the diagram d with these
    ``diagram._rows``, spelled straight from the least-rotation encoding
    without building d or its canonical form."""
    code = _least_rotations(chords, bases)[0]
    if code is None:
        return ""
    return " ".join(map(_TOKENS.__getitem__, code))


def to_structured(d: GaussDiagram) -> dict:
    """JSON-ready document: {"endpoints": [{"chord","role"}...], "signs": {...}}."""
    return {
        "endpoints": [{"chord": ep.chord, "role": ep.role} for ep in d.endpoints],
        "signs": dict(d.signs),
    }


def from_structured(doc) -> GaussDiagram:
    """Inverse of to_structured; validates like make_diagram."""
    if not isinstance(doc, dict):
        raise ParseError(f"expected a mapping, got {type(doc).__name__}")
    for field in ("endpoints", "signs"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    raw = doc["endpoints"]
    if not isinstance(raw, list):
        raise ParseError('"endpoints" must be a list')
    endpoints = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "chord" not in item or "role" not in item:
            raise ParseError(f'endpoint {i}: expected {{"chord", "role"}}')
        endpoints.append(Endpoint(item["chord"], item["role"]))
    signs = doc["signs"]
    if not isinstance(signs, dict):
        raise ParseError('"signs" must be a mapping')
    return make_diagram(endpoints, signs)
