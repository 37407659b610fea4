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
applied moves and every internal rewrite then build without revalidating,
through ``_trusted`` or, in ``apply_move``, its ``_positions``; every path
sets attributes only in ``_assemble``.

A diagram keeps its position map ``_pos``: each chord's positions as one
(tail, head) pair, made by ``_positions``, the one pairing of a chord's
two endpoints; the public constructor checks first that no (chord, role)
repeats and then that each chord was paired.  Every
diagram the library builds, parsed, rewritten, canonical, enumerated or
random, holds the one shared ``Endpoint`` of each label and role from the
tables ``_TAILS`` and ``_HEADS``, which grow by one endpoint per distinct
label seen; only the public constructor and ``codec.from_structured``
keep the caller's objects.

Every normal form scans (``_least_rotations``) a diagram's two position
rows (``_rows``): chord labels, and one int per role and sign.  The scan
tries only the rotations that start at the least int, found one after
another by ``list.index``; all of them share their first entry, and most
are decided at their second, read off the rows without a numbering.

Where a move can be made depends on the endpoints alone, except for a
sign test that ``moves`` applies last: the R1 chords, the R2 candidate
pairs and the R3 candidate triples with their tilings are sign-free (see
``sites``).  So is the child of a deletion or an R3 whose checks pass:
its endpoints and their position map.  A diagram's ``_sites`` is the
holder it shares with the other sign maps of its endpoint arrangement, or
None.  The holder is a dict that ``sites`` fills with each kind of site,
and ``moves.apply_move`` with each edit's child endpoints and position
map, on first use; it never keeps a sign map.  Only ``enumerate_diagrams``
hands out holders: each arrangement's 2^n diagrams share one holder, one
position map and their endpoints.  Every other diagram (parsed,
rewritten, canonical, random or built by the constructor) holds None; its
sites are found, and its children built, on each call and kept nowhere.

Every value type of the package, here and in ``moves``, ``simplify`` and
``render``, is a ``_Record``: its fields are its ``__slots__``, and the
base writes equality, hash, repr, pickling and immutability once, and the
construction of every record that only stores its arguments.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Mapping
from operator import attrgetter
from types import MappingProxyType

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


# how a record's __init__ sets its slots, past the record's __setattr__
_set = object.__setattr__


class _Record:
    """Base of the library's immutable value types.

    A record lists its fields once, as its ``__slots__`` (a slot whose name
    starts with ``_`` is not a field).  Two records are equal when they are
    of one class with equal fields; a record hashes and prints
    (``Name(field=value, ...)``) as its fields, pickles and copies through
    its constructor, and refuses assignment and deletion.
    ``__match_args__`` is the fields in order.

    A record that only stores its arguments (``Endpoint``, ``ChordNumbers``,
    ``TripleAnalysis``, ``CensusResult``, ``SearchLimits``,
    ``SimplifyResult``, ``TraceCheck``, ``RenderOptions``) keeps its own
    signature and defaults and hands its field values, in field order, to
    this ``__init__``.  The five move kinds and ``GaussDiagram`` set their
    slots themselves with ``_set``: moves are built in the hot loops of the
    search, the sweep and the move-invariance suite, where the base's
    generic loop costs more than twice a direct store, and a diagram is
    set only by ``_assemble``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls.__match_args__ = cls._fields
        # the class and then the field values: what == and hash compare
        cls._key = attrgetter("__class__", *cls._fields)

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def _values(self) -> tuple:
        """The field values in field order: the constructor's arguments."""
        return self._key(self)[1:]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Endpoint(_Record):
    """One chord occurrence on the circle: a label plus its tail/head role."""

    __slots__ = ("chord", "role")

    def __init__(self, chord: str, role: str):
        super().__init__(chord, role)

    def __repr__(self):
        return "{}{}".format("T" if self.role == TAIL else "H", self.chord)

    def __reduce__(self):
        # a copy is the shared endpoint of its label and role
        return _shared_endpoint, (self.chord, self.role)


class _Table(dict):
    """key -> ``spell(key)``, made on first use and kept.  The tables keyed
    by least-rotation entries or their tokens hold at most four (role x
    sign) per chord number, the endpoint and label-key tables one per
    label seen."""

    def __init__(self, spell):
        super().__init__()
        self.spell = spell

    def __missing__(self, key):
        value = self[key] = self.spell(key)
        return value


# the one endpoint of each label and role, which every diagram the library
# builds shares: endpoints are frozen
_TAILS = _Table(lambda label: Endpoint(label, TAIL))
_HEADS = _Table(lambda label: Endpoint(label, HEAD))


# each label's label_key, for the orders the library's own walks sort by;
# the public move constructors take outside labels and call label_key
_LABEL_KEYS = _Table(label_key)


def _shared_endpoint(chord, role) -> Endpoint:
    """The endpoint that ``pickle`` and ``copy`` rebuild: the shared one of
    a valid label and role, else a new one, so the tables hold no
    invalid label."""
    if valid_label(chord) and role in (TAIL, HEAD):
        return (_TAILS if role == TAIL else _HEADS)[chord]
    return Endpoint(chord, role)


class GaussDiagram(_Record):
    """2n chord endpoints read counterclockwise, plus one sign per chord.

    Construction validates the invariants: every chord label appears exactly
    twice (once as tail, once as head) and the sign map covers exactly the
    labels present.  This constructor is the trust boundary; the library's
    own rewrites build their valid-by-construction results through
    ``_trusted`` without revalidating.  Instances are immutable; operations
    return new values.
    """

    # _pos: chord -> (tail, head) positions; _sites: the shared holder or None
    __slots__ = ("endpoints", "signs", "_pos", "_sites")

    def __init__(self, endpoints: Iterable[Endpoint], signs: Mapping[str, int]):
        endpoints = tuple(endpoints)
        seen = set()  # the (chord, role) of each endpoint so far
        for ep in endpoints:
            if not isinstance(ep, Endpoint):
                raise ValueError(f"not an Endpoint: {ep!r}")
            if not valid_label(ep.chord):
                raise ValueError(f"invalid chord label {ep.chord!r}")
            if ep.role not in (TAIL, HEAD):
                raise ValueError(f"invalid role {ep.role!r} for chord {ep.chord}")
            key = ep.chord, ep.role
            if key in seen:  # a repeated role, or a third endpoint
                raise ValueError(f"duplicate {ep.role} for chord {ep.chord}")
            seen.add(key)
        pos = _positions(endpoints)
        for chord, p in pos.items():
            if type(p) is int:
                raise ValueError(f"chord {chord} appears only once")
        signs = dict(signs)
        for chord, sign in signs.items():
            if chord not in pos:
                raise ValueError(f"sign given for unknown chord {chord}")
            if not _valid_sign(sign):
                raise ValueError(f"sign for chord {chord} must be +1 or -1, got {sign!r}")
        for chord in pos:
            if chord not in signs:
                raise ValueError(f"missing sign for chord {chord}")
        _assemble(self, endpoints, MappingProxyType(signs), pos)

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
        return self._pos[chord][0]

    def head_position(self, chord: str) -> int:
        self.sign_of(chord)
        return self._pos[chord][1]

    def positions_of(self, chord: str) -> tuple:
        """The chord's two endpoint positions, ascending."""
        self.sign_of(chord)
        return tuple(sorted(self._pos[chord]))


def make_diagram(endpoints: Iterable[Endpoint], signs: Mapping[str, int]) -> GaussDiagram:
    """Validate and build a diagram; preserves the given order and basepoint."""
    return GaussDiagram(tuple(endpoints), signs)


def _trusted(endpoints: Iterable[Endpoint], signs: Mapping[str, int]) -> GaussDiagram:
    """Build a diagram from parts that are valid by construction, without
    validating them: the caller guarantees every chord appears once as tail
    and once as head, and that ``signs`` maps exactly those chords to +-1."""
    endpoints = tuple(endpoints)
    signs = MappingProxyType(dict(signs))
    return _assemble(object.__new__(GaussDiagram), endpoints, signs, _positions(endpoints))


def _positions(endpoints: tuple) -> dict:
    """The position map of endpoints in which no (chord, role) repeats:
    chord -> (tail, head), or its one position for a chord that appears
    once, which only the constructor's input can hold."""
    pos = {}  # chord -> its first position, then its (tail, head) pair
    for i, ep in enumerate(endpoints):
        j = pos.setdefault(ep.chord, i)
        if j != i:
            pos[ep.chord] = (j, i) if ep.role == HEAD else (i, j)
    return pos


def _assemble(d: GaussDiagram, endpoints: tuple, signs: MappingProxyType, pos: dict,
              sites: dict | None = None) -> GaussDiagram:
    """Set d's four slots; no other code does.  ``signs`` is the read-only
    view of a sign map no one changes, ``pos`` maps chord -> (tail, head)
    positions, and ``sites`` is the holder d shares, if any."""
    _set(d, "endpoints", endpoints)
    _set(d, "signs", signs)
    _set(d, "_pos", pos)
    _set(d, "_sites", sites)
    return d


EMPTY = make_diagram((), {})


def adjacent(d: GaussDiagram, p: int, q: int) -> bool:
    """True iff positions p and q are cyclically consecutive in d."""
    m = len(d.endpoints)
    if m == 0:
        raise ValueError("empty diagram has no positions")
    for x in (p, q):
        _check_int(x, "position")
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
    """Move the basepoint: endpoint sequence cyclically shifted by k, an
    int (negative shifts back); ValueError for any other type."""
    _check_int(k, "shift")
    m = len(d.endpoints)
    if m == 0:
        return d
    k %= m
    return _trusted(d.endpoints[k:] + d.endpoints[:k], d.signs)


def _rows(endpoints, signs) -> tuple:
    """Each endpoint's chord label, and its base ``head << 32 | negative``
    (role O<U, sign +<-): the rows ``_least_rotations`` scans.  This is
    the one writer of the encoding; ``moves`` makes its insertion blocks'
    rows through it too."""
    chords = [ep.chord for ep in endpoints]
    return chords, [(ep.role == HEAD) << 32 | (signs[ep.chord] < 0) for ep in endpoints]


def _least_rotations(chords, bases):
    """The least encoding over the rotations of the diagram with these
    ``_rows``.  Taking rows, not a diagram, lets the search key a child
    from its parent's rows edited by ``moves._family_rows``.

    Each endpoint encodes as one int entry, its base with its chord number
    (by first appearance) in bits 1..31: ``head << 32 | number << 1 |
    negative``, which orders exactly like the tuple (head, number,
    negative); see ``_entry_parts``.  A least encoding starts with a
    positive chord's tail (any tail if none is positive), so only rotations
    starting there, at the least base, are tried: ``list.index`` finds each
    next one on the doubled row.  Every such start's entry 0 is that base
    with number 1, so the scan shares it, and its entry 1 is read off the
    rows: the next endpoint's base, numbered 1 if it is the start chord's
    own head and 2 otherwise.  A start whose entry 1 is greater than the
    best's loses there, and one whose entry 1 is less becomes the best with
    its two entries; most starts end here.  Only a start that ties at
    entry 1 is numbered entry by entry and compared further, lazily: the
    best's entries and first-appearance numbering are extended only as
    far as a comparison reaches, and a rotation that wins at entry i
    becomes the best with its i + 1 entries.  Only a tie runs the full
    length, and the first one ends the scan: a diagram that ties with
    itself at shift k is periodic, so no later start can beat the best.
    The rest of the final best is encoded once at the end.  The empty
    diagram has encoding ()."""
    m = len(chords)
    if m == 0:
        return ()
    first = min(bases)
    chords, bases = chords * 2, bases * 2  # doubled: rotation k reads k..k+m-1
    best = k = bases.index(first)
    # the best rotation's entries so far and its numbering: every start's
    # entry 0 is its chord, numbered 1, and the best's entry 1 is read now
    code, numbers = [first | 2], {chords[best]: 1}
    code.append(bases[best + 1] | numbers.setdefault(chords[best + 1], 2) << 1)
    while True:
        k = bases.index(first, k + 1)  # best + m holds first, so this finds one
        if k >= m:
            break
        c = chords[k]
        entry = bases[k + 1] | (2 if chords[k + 1] == c else 4)
        if entry > code[1]:  # k loses at entry 1: no numbering, no compare
            continue
        mine = {chords[k + 1]: 2, c: 1}  # c alone when c's own head is next
        if entry < code[1]:  # k wins at entry 1
            code[1], best, numbers = entry, k, mine
            del code[2:]
            continue
        for i in range(2, m):
            p = k + i
            entry = bases[p] | mine.setdefault(chords[p], len(mine) + 1) << 1
            if i == len(code):
                q = best + i
                code.append(bases[q] | numbers.setdefault(chords[q], len(numbers) + 1) << 1)
            if entry != code[i]:
                if entry < code[i]:  # k wins: the common prefix, then its entry
                    del code[i:]
                    code.append(entry)
                    best, numbers = k, mine
                break
        else:  # k ties with best, so the diagram repeats every k - best
            # positions: no start before k beat best, so nothing beats it
            break
    for q in range(best + len(code), best + m):
        code.append(bases[q] | numbers.setdefault(chords[q], len(numbers) + 1) << 1)
    return tuple(code)


def _entry_parts(entry: int) -> tuple:
    """(head, number, negative) of one ``_least_rotations`` entry."""
    return entry >> 32, entry >> 1 & 0x7FFFFFFF, entry & 1


def _canonical_end(entry) -> tuple:
    """A canonical form's endpoint and sign at one least-rotation entry."""
    head, number, negative = _entry_parts(entry)
    return (_HEADS if head else _TAILS)[str(number)], -1 if negative else 1


_CANONICAL_ENDS = _Table(_canonical_end)


def canonical(d: GaussDiagram) -> GaussDiagram:
    """Canonical representative under rotation and relabeling.

    Among all 2n rotations, relabel chords 1..n by first appearance and
    keep the rotation whose encoded endpoint sequence is lexicographically
    least.  Only rotations starting at a positive chord's tail (any tail if
    none is positive) are tried; every other start encodes larger at its
    first endpoint, so the result is unchanged.  Idempotent and
    rotation-invariant; mirror images are NOT identified.  The empty
    diagram's is a diagram equal to it.
    """
    code = _least_rotations(*_rows(d.endpoints, d.signs))
    return _from_ends(list(map(_CANONICAL_ENDS.__getitem__, code)))


def _from_ends(ends: list) -> GaussDiagram:
    """The diagram of these (shared endpoint, sign) pairs in order, as a
    canonical form or its code spells them: signs in first-appearance order."""
    return _trusted([ep for ep, _ in ends], {ep.chord: sign for ep, sign in ends})


def same_diagram(d1: GaussDiagram, d2: GaussDiagram) -> bool:
    """True iff the diagrams agree up to rotation and relabeling."""
    code = _least_rotations(*_rows(d1.endpoints, d1.signs))
    return code == _least_rotations(*_rows(d2.endpoints, d2.signs))


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


def _check_int(value, name: str) -> None:
    """ValueError naming ``value`` as ``name`` unless it is an exact int (no
    bool, no float): the one check on the int arguments the library takes."""
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an int")


def _placed(pairs, flips, ends) -> tuple:
    """The endpoints with each chord's (tail, head) from ``ends`` on its
    position pair (p, q) from ``pairs``: the tail at p and the head at q,
    the other way round where its flip, 0 or 1, is 1.  The one code that
    puts endpoints on positions, for ``_arrangements`` and
    ``random_diagram``; callers look each chord's endpoints up once, not
    per placement."""
    eps = [None] * (2 * len(pairs))
    for pair, (tail, head), flip in zip(pairs, ends, flips):
        eps[pair[flip]], eps[pair[1 - flip]] = tail, head
    return tuple(eps)


def _arrangements(n: int) -> Iterator[tuple]:
    """Each endpoint arrangement on 2n positions with chords labeled 1..n by
    first appearance, all perfect matchings x orientations, each
    ``_placed``, as (endpoints, sign maps): the 2^n sign maps, + before -
    chord by chord, one list shared by every arrangement, so callers must
    not change them.  n is checked at the call, before the iterator is
    returned."""
    _check_int(n, "chord count")
    if n < 0:
        raise ValueError("chord count must be nonnegative")
    import itertools

    labels = [str(i + 1) for i in range(n)]
    ends = [(_TAILS[lab], _HEADS[lab]) for lab in labels]
    sign_maps = [dict(zip(labels, signs)) for signs in itertools.product((1, -1), repeat=n)]
    return ((_placed(matching, flips, ends), sign_maps)
            for matching in _matchings(list(range(2 * n)))
            for flips in itertools.product((0, 1), repeat=n))


def enumerate_diagrams(n: int) -> Iterator[GaussDiagram]:
    """Every diagram on 2n positions with chords labeled 1..n by first
    appearance: each of the ``_arrangements`` with each of its sign maps,
    so (2n-1)!! * 4^n diagrams, no duplicates.  Intended for small n.

    An arrangement's diagrams share its endpoints, one position map and
    one holder of sign-free move sites and rewrites, which the first of
    them asked for a kind of site or a rewrite fills; each views its
    shared sign map without a copy.  n is checked at the call, as
    ``_arrangements`` does."""
    return (_assemble(object.__new__(GaussDiagram), eps, MappingProxyType(signs), pos, sites)
            for eps, sign_maps in _arrangements(n)  # evaluated, and n checked, at the call
            for pos, sites in [(_positions(eps), {})]
            for signs in sign_maps)


def random_diagram(n: int, seed: int) -> GaussDiagram:
    """Uniformly random n-chord diagram, deterministic for a given seed.

    Uses Python's random.Random (Mersenne Twister), which is stable across
    platforms and versions for the methods used here.  The matching is built
    by repeatedly pairing the least unmatched position with a uniformly
    chosen partner, which is uniform over perfect matchings; orientation and
    sign are fair independent coin flips per chord, drawn in that order
    chord by chord, and the chords are ``_placed`` on their pairs.
    """
    _check_int(n, "chord count")
    if n < 0:
        raise ValueError("chord count must be nonnegative")
    _check_int(seed, "seed")
    rng = random.Random(seed)
    unmatched = list(range(2 * n))
    pairs = []
    while unmatched:
        first = unmatched.pop(0)
        partner = unmatched.pop(rng.randrange(len(unmatched)))
        pairs.append((first, partner))
    flips, signs = [], {}
    for k in range(n):
        flips.append(rng.randrange(2))
        signs[str(k + 1)] = 1 if rng.randrange(2) == 0 else -1
    return _trusted(_placed(pairs, flips, [(_TAILS[lab], _HEADS[lab]) for lab in signs]), signs)
