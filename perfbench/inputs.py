"""Seeded inputs, built without the program under test.

Inputs are Gauss codes made from reference tokens (see ``reference``), so two
commits given the same seed get byte-identical inputs.  Every generator takes
its own ``random.Random``; nothing reads global state.
"""

from __future__ import annotations

import random

from reference import chord_count, code_of, crossings, odd_writhe

VIRTUAL_TREFOIL = [("1", False, -1), ("2", False, -1), ("1", True, -1), ("2", True, -1)]


def random_tokens(n: int, rng: random.Random) -> list:
    """A random n-chord diagram: a seeded perfect matching of the 2n
    positions (each least unmatched position takes a uniform partner), then
    a fair coin per chord for its orientation and one for its sign."""
    free = list(range(2 * n))
    tokens = [None] * (2 * n)
    label = 0
    while free:
        p = free.pop(0)
        q = free.pop(rng.randrange(len(free)))
        label += 1
        if rng.randrange(2):
            p, q = q, p
        sign = rng.choice((1, -1))
        tokens[p] = (str(label), False, sign)
        tokens[q] = (str(label), True, sign)
    return tokens


def _fresh(tokens) -> int:
    return max((int(label) for label, _h, _s in tokens), default=0) + 1


def _open_gaps(blocks) -> list:
    """Gaps (insert before index g) that do not split an inserted block."""
    m = len(blocks)
    return [g for g in range(m + 1)
            if g in (0, m) or blocks[g - 1] is None or blocks[g - 1] != blocks[g]]


def _insert(tokens, blocks, gap, new_tokens, block):
    tokens[gap:gap] = new_tokens
    blocks[gap:gap] = [block] * len(new_tokens)


def insert_r1(tokens, blocks, rng: random.Random):
    """Insert a new chord with adjacent endpoints at a random open gap."""
    label, sign = str(_fresh(tokens)), rng.choice((1, -1))
    block = [(label, False, sign), (label, True, sign)]
    if rng.randrange(2):
        block.reverse()
    _insert(tokens, blocks, rng.choice(_open_gaps(blocks)), block, (label, "r1"))


def insert_r2(tokens, blocks, rng: random.Random):
    """Insert two new opposite-sign chords whose heads are adjacent and
    whose tails are adjacent, at two random open gaps."""
    k = _fresh(tokens)
    a, b, sign = str(k), str(k + 1), rng.choice((1, -1))
    heads = [(a, True, sign), (b, True, -sign)]
    tails = [(a, False, sign), (b, False, -sign)]
    if rng.randrange(2):
        tails.reverse()
    gaps = _open_gaps(blocks)
    g_heads, g_tails = rng.choice(gaps), rng.choice(gaps)
    if g_heads == g_tails:
        order = ((heads, "heads"), (tails, "tails"))
        if rng.randrange(2):
            order = order[::-1]
        for block, kind in order[::-1]:
            _insert(tokens, blocks, g_heads, block, (a, kind))
        return
    for gap, block, kind in sorted(((g_heads, heads, "heads"), (g_tails, tails, "tails")),
                                   reverse=True):
        _insert(tokens, blocks, gap, block, (a, kind))


def scramble(base, chords: int, rng: random.Random, r2_share: float = 0.75) -> list:
    """Grow ``base`` to exactly ``chords`` chords by R1/R2 insertions.

    No insertion lands inside an earlier inserted block (an R1 chord's two
    ends, an R2 pair's two heads or two tails), so every inserted chord
    stays deletable to the end: the scramble comes apart by deletions in
    any order, and how many deletions a diagram on the way offers depends
    only on how many inserted chords it still has."""
    tokens, blocks = list(base), [None] * len(base)
    while chord_count(tokens) < chords:
        if chords - chord_count(tokens) >= 2 and rng.random() < r2_share:
            insert_r2(tokens, blocks, rng)
        else:
            insert_r1(tokens, blocks, rng)
    return tokens


def sweep_random(seed: int, count: int = 1000) -> list:
    """``count`` random diagrams with 0..8 chords (input i has i % 9 chords),
    each with one R1 and one R2 insertion to apply and undo: (code,
    (gap, sign, head_first), (head_gap, tail_gap, first_sign, crossed))."""
    rng = random.Random(f"sweep-{seed}")
    out = []
    for i in range(count):
        tokens = random_tokens(i % 9, rng)
        m = max(1, len(tokens))
        r1 = (rng.randrange(m), rng.choice((1, -1)), rng.random() < 0.5)
        r2 = (rng.randrange(m), rng.randrange(m), rng.choice((1, -1)), rng.random() < 0.5)
        out.append((code_of(tokens), r1, r2))
    return out


# descent: (known answer, base diagram, chord counts, share of R2 insertions)
DESCENT_CLASSES = (
    ("unknot", [], (30,) * 12, 1.0),
    ("trefoil", VIRTUAL_TREFOIL, (10, 10), 0.75),
)


def descent_inputs(seed: int) -> list:
    """Scrambles of the unknot and of the virtual trefoil: (class, code).

    The unknot scrambles use R2 insertions only: the search then deletes
    one pair per state, so its path length is fixed by the chord count."""
    rng = random.Random(f"descent-{seed}")
    return [
        (name, code_of(scramble(base, n, rng, r2_share)))
        for name, base, sizes, r2_share in DESCENT_CLASSES
        for n in sizes
    ]


# insertion: (class, the odd writhe J each input must have, chord count)
INSERTION_CLASSES = (
    ("odd", (2, -2) * 6, 2),  # J != 0: can never reach the unknot
    ("even", (0,) * 3, 3),    # random, J == 0
    ("unknot", (0,) * 3, 3),  # built from the empty diagram
)


def insertion_inputs(seed: int) -> list:
    """Small diagrams for the search with insertions: (class, code).

    Random diagrams are drawn by a seeded matching until one has the J its
    slot asks for; the "even" ones must also have at most one crossing
    pair.  Up to rotation, the 2-chord diagrams with J = 2 and J = -2 are
    one each (the virtual trefoil and its sign flip), so the seed picks
    their basepoint and labels.  Diagrams with two or more crossing pairs
    are left out: on them the search may or may not find a way down within
    the budget, so their cost, and with it the round's, would swing with
    the seed."""
    rng = random.Random(f"insertion-{seed}")
    out = []
    for name, odd_writhes, n in INSERTION_CLASSES:
        for j in odd_writhes:
            if name == "unknot":
                tokens = scramble([], n, rng, r2_share=0.5)
            else:
                while True:
                    tokens = random_tokens(n, rng)
                    if odd_writhe(tokens) == j and sum(crossings(tokens).values()) <= 2:
                        break
            out.append((name, code_of(tokens)))
    return out
