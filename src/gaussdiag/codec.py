"""Parse and serialize Gauss codes, plus a JSON-ready structured form.

A Gauss code is a sequence of tokens, one per chord endpoint in
counterclockwise order.  Each token is ROLE LABEL SIGN where ROLE is O
(over, chord tail) or U (under, chord head), LABEL is [A-Za-z0-9_]+ and
SIGN is + or -.  Tokens may be juxtaposed or separated by whitespace or
commas: every token ends at its sign character, so "O1-O2-U1-U2-" reads
unambiguously.  The typographic minus U+2212 is accepted on input and
never emitted.

Both readers are trust boundaries.  ``parse_gauss_code`` reads the text
in one pass, checking each token's chord as it goes: an unreadable token
raises at once, but a chord error (a repeated role, a changed sign) is
held until the whole text is read, so an unreadable token later on wins
over it; a chord that appears only once is reported last.  Those checks,
whose messages name the token, prove every diagram invariant, so the
parser builds through ``diagram._trusted``, from the shared endpoints of
``diagram._TAILS`` and ``_HEADS``, which it looks up only once the whole
text is accepted, so rejected text leaves those tables as they were;
``from_structured`` checks
only the document's shape and builds through the validating
``make_diagram``.

``_canonical_code`` spells the canonical code from the scan of a
diagram's rows, so the search keys a child without building it, and
``_read_canonical_code`` reads such a code back as the canonical form,
without the parser's checks, so the search spells its trace from the codes
it stored.  Given a bar, the scan entries ``_code_entries`` reads off a
code, ``_canonical_code`` is None for a child whose code is above it.
"""

from __future__ import annotations

from .diagram import (
    HEAD,
    LABEL_CHARS,
    TAIL,
    Endpoint,
    GaussDiagram,
    _HEADS,
    _TAILS,
    _Table,
    _entry_parts,
    _from_ends,
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


def parse_gauss_code(text: str) -> GaussDiagram:
    """Parse a Gauss code in one pass; token i becomes endpoint i.  Raises
    ParseError on input that is not a str, and with the offending token
    index on any malformed or inconsistent text, in the order the module
    docstring gives."""
    if not isinstance(text, str):
        raise ParseError(f"Gauss code {text!r} is not a str")
    # tokens: each token's endpoint table and label; seen: label -> {role: token index}
    tokens, signs, seen = [], {}, {}
    held = None  # the first chord error, raised once every token is read
    i = ti = 0
    while i < len(text):
        start, ch = i, text[i]
        i += 1
        if ch in _SEPARATORS:
            continue
        if ch not in "OoUu":
            raise ParseError(
                f"token {ti} (char {start}): expected role letter O or U, found {ch!r}", ti, start
            )
        while i < len(text) and text[i] in LABEL_CHARS:
            i += 1
        label = text[start + 1 : i]
        if not label:
            raise ParseError(f"token {ti} (char {start}): empty label", ti, start)
        if i == len(text) or text[i] not in _SIGN_CHARS:
            found = repr(text[i]) if i < len(text) else "end of input"
            raise ParseError(
                f"token {ti} (char {start}): missing sign after label {label!r}, found {found}",
                ti,
                start,
            )
        sign = _SIGN_CHARS[text[i]]
        i += 1
        role, ends = (TAIL, _TAILS) if ch in "Oo" else (HEAD, _HEADS)
        roles = seen.setdefault(label, {})
        if held is None and role in roles:
            held = ParseError(
                f"token {ti}: chord {label} has two {ch.upper()} occurrences", ti, start
            )
        elif held is None and signs.setdefault(label, sign) != sign:
            held = ParseError(f"token {ti}: sign mismatch for chord {label}", ti, start)
        roles[role] = ti
        tokens.append((ends, label))
        ti += 1
    if held is not None:
        raise held
    for label, roles in seen.items():
        if len(roles) == 1:
            (ti,) = roles.values()
            raise ParseError(f"token {ti}: chord {label} appears only once", ti)
    # the shared endpoints, looked up only now: rejected text adds none
    return _trusted([ends[label] for ends, label in tokens], signs)


def _token(head: int, label: str, negative: int) -> str:
    """The one emitted token spelling: role letter (0 tail O, 1 head U),
    label (or a chord number), ASCII sign (0 +, 1 -)."""
    return f"{'OU'[head]}{label}{'+-'[negative]}"


def serialize_gauss_code(d: GaussDiagram) -> str:
    """Emit the code from the current basepoint: uppercase roles, ASCII
    signs, single-space separated.  parse(serialize(d)) == d exactly."""
    return " ".join(
        _token(ep.role == HEAD, ep.chord, d.signs[ep.chord] < 0) for ep in d.endpoints
    )


_TOKENS = _Table(lambda entry: _token(*_entry_parts(entry)))  # entry -> its token


def _canonical_code(chords, bases, bar=None) -> str | None:
    """serialize_gauss_code(canonical(d)) for the diagram d with these
    ``diagram._rows``, spelled straight from the least-rotation encoding
    without building d or its canonical form: "" for the empty diagram.
    Given a ``bar``, the entries of a code of d's length
    (``_code_entries``), None when d's code is above it (see
    ``diagram._least_rotations``)."""
    code = _least_rotations(chords, bases, bar)
    return None if code is None else " ".join(map(_TOKENS.__getitem__, code))


def _canonical_code_entries(chords, bases, bar) -> tuple:
    """``_canonical_code`` with the entries it spells, (code, entries), or
    (None, None) when d's code is above the ``bar``: for a caller that may
    hand the code on as a bar, without ``_code_entries`` parsing it."""
    code = _least_rotations(chords, bases, bar)
    return (None, None) if code is None else (" ".join(map(_TOKENS.__getitem__, code)), code)


def _entry(token: str) -> int:
    """The least-rotation entry an emitted token spells: ``_TOKENS``'
    inverse."""
    return (token[0] == "U") << 32 | int(token[1:-1]) << 1 | (token[-1] == "-")


_ENTRIES = _Table(_entry)  # token -> its entry


def _code_entries(code: str) -> tuple:
    """The least-rotation entries ``_canonical_code`` spelled as ``code``."""
    return tuple(map(_ENTRIES.__getitem__, code.split()))


def _token_end(token: str) -> tuple:
    """An emitted token's shared endpoint and sign."""
    return (_HEADS if token[0] == "U" else _TAILS)[token[1:-1]], -1 if token[-1] == "-" else 1


_TOKEN_ENDS = _Table(_token_end)  # token -> its endpoint and sign


def _read_canonical_code(code: str) -> GaussDiagram:
    """canonical(d) from the canonical code ``_canonical_code`` spelled for
    d, read token by token without checks: a diagram equal to EMPTY for ""."""
    return _from_ends(list(map(_TOKEN_ENDS.__getitem__, code.split())))


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
