"""Gauss diagrams for virtual knots: the core immutable value type.

A Gauss diagram is a circle with one directed, signed chord per classical
crossing.  Reading the circle counterclockwise from an arbitrary basepoint
gives a sequence of 2n chord endpoints; each chord points from its tail
(the overcrossing pass, letter O in Gauss codes) to its head (the
undercrossing pass, letter U).  The empty diagram presents the unknot.

The basepoint is representational only: every semantic operation is
rotation-invariant, and ``canonical`` quotients it away.

The invariants (each chord once as tail and once as head, with a sign of
exactly +1 or -1) are checked once, where outside input enters: by the
public constructor (``GaussDiagram(...)``, ``make_diagram``, and through
it ``codec.from_structured``), by ``codec.parse_gauss_code``'s own token
checks, and by ``moves.apply_move``'s move preconditions.  The parser,
applied moves and every internal rewrite then build through ``_trusted``
without revalidating; both paths set attributes only in ``_assemble``.

Every normal form scans (``_least_rotations``) a diagram's two position
rows (``_rows``): chord labels, and one int per role and sign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

TAIL = "tail"  # overcrossing pass, letter O
HEAD = "head"  # undercrossing pass, letter U

LABEL_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
)


def valid_label(text) -> bool:
    """Chord labels are nonempty strings over [A-Za-z0-9_]."""
    return isinstance(text, str) and text != "" and LABEL_CHARS.issuperset(text)


def _valid_sign(sign) -> bool:
    """Crossing signs are exactly the ints +1 and -1: no bool, no float."""
    return type(sign) is int and sign in (1, -1)


def label_key(label: str):
    """Sort key and total order on labels: ASCII digit strings first, in
    numeric order ("2" before "10") with equal numbers by the string ("02"
    before "2"), then every other label by the string."""
    return (0, int(label), label) if label.isascii() and label.isdigit() else (1, 0, label)


@dataclass(frozen=True)
class Endpoint:
    """One chord occurrence on the circle: a label plus its tail/head role."""

    chord: str
    role: str

    def __repr__(self):
        return "{}{}".format("T" if self.role == TAIL else "H", self.chord)


@dataclass(frozen=True)
class GaussDiagram:
    """2n chord endpoints read counterclockwise, plus one sign per chord.

    Construction validates the invariants: every chord label appears exactly
    twice (once as tail, once as head) and the sign map covers exactly the
    labels present.  This constructor is the trust boundary; the library's
    own rewrites build their valid-by-construction results through
    ``_trusted`` without revalidating.  Instances are immutable; operations
    return new values.
    """

    endpoints: tuple
    signs: Mapping[str, int]

    def __post_init__(self):
        endpoints = tuple(self.endpoints)
        pos = {}  # chord -> {role: position}
        for i, ep in enumerate(endpoints):
            if not isinstance(ep, Endpoint):
                raise ValueError(f"not an Endpoint: {ep!r}")
            if not valid_label(ep.chord):
                raise ValueError(f"invalid chord label {ep.chord!r}")
            if ep.role not in (TAIL, HEAD):
                raise ValueError(f"invalid role {ep.role!r} for chord {ep.chord}")
            roles = pos.setdefault(ep.chord, {})
            if ep.role in roles:
                raise ValueError(f"duplicate {ep.role} for chord {ep.chord}")
            roles[ep.role] = i
        for chord, roles in pos.items():
            if len(roles) == 1:
                raise ValueError(f"chord {chord} appears only once")
        signs = dict(self.signs)
        for chord, sign in signs.items():
            if chord not in pos:
                raise ValueError(f"sign given for unknown chord {chord}")
            if not _valid_sign(sign):
                raise ValueError(f"sign for chord {chord} must be +1 or -1, got {sign!r}")
        for chord in pos:
            if chord not in signs:
                raise ValueError(f"missing sign for chord {chord}")
        _assemble(self, endpoints, signs, pos)

    def __hash__(self):
        return hash((self.endpoints, tuple(sorted(self.signs.items()))))

    def __reduce__(self):
        # pickle cannot copy the signs proxy; rebuild through validation
        return (GaussDiagram, (self.endpoints, dict(self.signs)))

    def __repr__(self):
        from .codec import serialize_gauss_code  # codec imports this module

        return f"GaussDiagram({serialize_gauss_code(self)!r})"

    @property
    def n(self) -> int:
        """Number of chords."""
        return len(self.endpoints) // 2

    def chords(self) -> list:
        """Chord labels in order of first appearance around the circle."""
        return list(dict.fromkeys(ep.chord for ep in self.endpoints))

    def sign_of(self, chord: str) -> int:
        try:
            return self.signs[chord]
        except KeyError:
            raise ValueError(f"unknown chord {chord!r}") from None

    def tail_position(self, chord: str) -> int:
        self.sign_of(chord)
        return self._pos[chord][TAIL]

    def head_position(self, chord: str) -> int:
        self.sign_of(chord)
        return self._pos[chord][HEAD]

    def positions_of(self, chord: str) -> tuple:
        """The chord's two endpoint positions, ascending."""
        t, h = self.tail_position(chord), self.head_position(chord)
        return (t, h) if t < h else (h, t)


def make_diagram(endpoints: Iterable[Endpoint], signs: Mapping[str, int]) -> GaussDiagram:
    """Validate and build a diagram; preserves the given order and basepoint."""
    return GaussDiagram(tuple(endpoints), signs)


def _trusted(endpoints: Iterable[Endpoint], signs: Mapping[str, int]) -> GaussDiagram:
    """Build a diagram from parts that are valid by construction, without
    validating them: the caller guarantees every chord appears once as tail
    and once as head, and that ``signs`` maps exactly those chords to +-1."""
    endpoints = tuple(endpoints)
    pos = {}
    for i, ep in enumerate(endpoints):
        pos.setdefault(ep.chord, {})[ep.role] = i
    return _assemble(object.__new__(GaussDiagram), endpoints, dict(signs), pos)


def _assemble(d: GaussDiagram, endpoints: tuple, signs: dict, pos: dict) -> GaussDiagram:
    """Set d's three attributes; no other code does.  d takes ``signs`` over
    behind a read-only view; ``pos`` maps chord -> {role: position}."""
    object.__setattr__(d, "endpoints", endpoints)
    object.__setattr__(d, "signs", MappingProxyType(signs))
    object.__setattr__(d, "_pos", pos)
    return d


EMPTY = make_diagram((), {})


def adjacent(d: GaussDiagram, p: int, q: int) -> bool:
    """True iff positions p and q are cyclically consecutive in d."""
    m = len(d.endpoints)
    if m == 0:
        raise ValueError("empty diagram has no positions")
    for x in (p, q):
        if not 0 <= x < m:
            raise ValueError(f"position {x} out of range for {m} endpoints")
    if p == q:
        raise ValueError("positions must differ")
    return _adjacent(m, p, q)


def _adjacent(m: int, p: int, q: int) -> bool:
    """``adjacent`` on trusted input: p and q are distinct positions of a
    diagram with m endpoints, e.g. read from its position map."""
    return (p - q) % m in (1, m - 1)


def chords_cross(d: GaussDiagram, a: str, b: str) -> bool:
    """Interleaving test: exactly one endpoint of b lies strictly inside
    the counterclockwise arc between a's endpoints.  Symmetric in a, b."""
    if a == b:
        raise ValueError("chords_cross needs two distinct chords")
    return _interleaved(*d.positions_of(a), *d.positions_of(b))


def _interleaved(p1: int, p2: int, q1: int, q2: int) -> bool:
    """True iff exactly one of the distinct positions q1, q2 lies strictly
    between p1 and p2 (in either order): q lies between iff (q-p1)(q-p2) < 0."""
    return (q1 - p1) * (q1 - p2) * (q2 - p1) * (q2 - p2) < 0


def writhe(d: GaussDiagram) -> int:
    """Sum of the crossing signs."""
    return sum(d.signs.values())


def rotate(d: GaussDiagram, k: int) -> GaussDiagram:
    """Move the basepoint: endpoint sequence cyclically shifted by k."""
    m = len(d.endpoints)
    if m == 0:
        return d
    k %= m
    return _trusted(d.endpoints[k:] + d.endpoints[:k], d.signs)


def _rows(endpoints, signs) -> tuple:
    """Each endpoint's chord label, and its base ``head << 32 | negative``
    (role O<U, sign +<-): the rows ``_least_rotations`` scans."""
    chords = [ep.chord for ep in endpoints]
    return chords, [(ep.role == HEAD) << 32 | (signs[ep.chord] < 0) for ep in endpoints]


def _least_rotations(chords, bases):
    """The least encoding over the rotations of the diagram with these
    ``_rows``, and every shift k whose rotation (basepoint at position k)
    attains it, ascending.  Taking rows, not a diagram, lets the search key
    a child from its parent's rows edited by ``moves._rewrite``.

    Each endpoint encodes as one int entry, its base with its chord number
    (by first appearance) in bits 1..31: ``head << 32 | number << 1 |
    negative``, which orders exactly like the tuple (head, number,
    negative); see ``_entry_parts``.  A least encoding starts with a
    positive chord's tail (any tail if none is positive), so only rotations
    starting there are tried.  Each is compared against the best so far
    lazily: the best's entries and first-appearance numbering are extended
    only as far as a comparison reaches, and a rotation that wins at entry
    i becomes the best with its i + 1 entries.  Only a tie runs the full
    length, and the first one ends the scan: a diagram that ties with
    itself at shift k is periodic, so its shifts follow from the period.
    The rest of the final best is encoded once at the end.  The empty
    diagram has encoding None and no shifts."""
    m = len(chords)
    if m == 0:
        return None, []
    chords, bases = chords * 2, bases * 2  # doubled: rotation k reads k..k+m-1
    first = min(bases)
    starts = [k for k in range(m) if bases[k] == first]
    best = starts[0]
    code, numbers = [], {}  # the best rotation's entries so far, its numbering
    shifts = [best]
    for k in starts[1:]:
        mine = {}
        for i in range(m):
            p = k + i
            entry = bases[p] | mine.setdefault(chords[p], len(mine) + 1) << 1
            if i == len(code):
                q = best + i
                code.append(bases[q] | numbers.setdefault(chords[q], len(numbers) + 1) << 1)
            if entry != code[i]:
                if entry < code[i]:  # k wins: the common prefix, then its entry
                    del code[i:]
                    code.append(entry)
                    best, numbers, shifts = k, mine, [k]
                break
        else:  # k ties with best, so the diagram repeats every k - best
            # positions: no start before k beat best or tied, so nothing
            # beats it, and the ties are best plus multiples of k - best
            shifts = list(range(best, best + m, k - best))
            break
    for q in range(best + len(code), best + m):
        code.append(bases[q] | numbers.setdefault(chords[q], len(numbers) + 1) << 1)
    return tuple(code), shifts


def _entry_parts(entry: int) -> tuple:
    """(head, number, negative) of one ``_least_rotations`` entry."""
    return entry >> 32, entry >> 1 & 0x7FFFFFFF, entry & 1


class _EntryTable(dict):
    """Least-rotation entry -> ``spell(head, label, negative)``, with the
    label its chord number's string, made on first use and kept: at most
    four entries (role x sign) per chord number."""

    def __init__(self, spell):
        super().__init__()
        self.spell = spell

    def __missing__(self, entry):
        head, number, negative = _entry_parts(entry)
        value = self[entry] = self.spell(head, str(number), negative)
        return value


# a canonical form's endpoint and sign at each entry; endpoints are frozen,
# so every canonical form shares them
_CANONICAL_ENDS = _EntryTable(
    lambda head, label, negative: (Endpoint(label, HEAD if head else TAIL), -1 if negative else 1)
)


def canonical(d: GaussDiagram) -> GaussDiagram:
    """Canonical representative under rotation and relabeling.

    Among all 2n rotations, relabel chords 1..n by first appearance and
    keep the rotation whose encoded endpoint sequence is lexicographically
    least.  Only rotations starting at a positive chord's tail (any tail if
    none is positive) are tried; every other start encodes larger at its
    first endpoint, so the result is unchanged.  Idempotent and
    rotation-invariant; mirror images are NOT identified.
    """
    if d.n == 0:
        return d
    code = _least_rotations(*_rows(d.endpoints, d.signs))[0]
    ends = list(map(_CANONICAL_ENDS.__getitem__, code))
    return _trusted([ep for ep, _ in ends], {ep.chord: sign for ep, sign in ends})


def same_diagram(d1: GaussDiagram, d2: GaussDiagram) -> bool:
    """True iff the diagrams agree up to rotation and relabeling."""
    code = _least_rotations(*_rows(d1.endpoints, d1.signs))[0]
    return code == _least_rotations(*_rows(d2.endpoints, d2.signs))[0]


def _matchings(positions: list) -> Iterator[list]:
    # all perfect matchings; each pair (p, q) has p = least remaining position
    if not positions:
        yield []
        return
    first = positions[0]
    for i in range(1, len(positions)):
        rest = positions[1:i] + positions[i + 1 :]
        for tail in _matchings(rest):
            yield [(first, positions[i])] + tail


def _arrangements(n: int) -> Iterator[tuple]:
    """Each endpoint arrangement on 2n positions with chords labeled 1..n by
    first appearance, all perfect matchings x orientations, as (endpoints,
    sign maps): the 2^n sign maps, + before - chord by chord, one list
    shared by every arrangement, so callers must not change them."""
    if n < 0:
        raise ValueError("chord count must be nonnegative")
    import itertools

    labels = [str(i + 1) for i in range(n)]
    ends = [(Endpoint(lab, TAIL), Endpoint(lab, HEAD)) for lab in labels]
    sign_maps = [dict(zip(labels, signs)) for signs in itertools.product((1, -1), repeat=n)]
    for matching in _matchings(list(range(2 * n))):
        for tails in itertools.product((0, 1), repeat=n):
            eps = [None] * (2 * n)
            for (p, q), (tail, head), t in zip(matching, ends, tails):
                tp, hp = (p, q) if t == 0 else (q, p)
                eps[tp] = tail
                eps[hp] = head
            yield tuple(eps), sign_maps


def enumerate_diagrams(n: int) -> Iterator[GaussDiagram]:
    """Every diagram on 2n positions with chords labeled 1..n by first
    appearance: each of the ``_arrangements`` with each of its sign maps,
    so (2n-1)!! * 4^n diagrams, no duplicates.  Intended for small n."""
    for eps, sign_maps in _arrangements(n):
        for signs in sign_maps:  # _trusted copies the shared sign map
            yield _trusted(eps, signs)


def random_diagram(n: int, seed: int) -> GaussDiagram:
    """Uniformly random n-chord diagram, deterministic for a given seed.

    Uses Python's random.Random (Mersenne Twister), which is stable across
    platforms and versions for the methods used here.  The matching is built
    by repeatedly pairing the least unmatched position with a uniformly
    chosen partner, which is uniform over perfect matchings; orientation and
    sign are fair independent coin flips per chord.
    """
    if n < 0:
        raise ValueError("chord count must be nonnegative")
    rng = random.Random(seed)
    unmatched = list(range(2 * n))
    pairs = []
    while unmatched:
        first = unmatched.pop(0)
        partner = unmatched.pop(rng.randrange(len(unmatched)))
        pairs.append((first, partner))
    eps = [None] * (2 * n)
    signs = {}
    for k, (p, q) in enumerate(pairs):
        lab = str(k + 1)
        tp, hp = (p, q) if rng.randrange(2) == 0 else (q, p)
        eps[tp] = Endpoint(lab, TAIL)
        eps[hp] = Endpoint(lab, HEAD)
        signs[lab] = 1 if rng.randrange(2) == 0 else -1
    return _trusted(eps, signs)
