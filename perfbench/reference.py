"""Reference computations that the benchmark checks the program against.

Everything here works on a diagram's endpoint tokens alone: a list of
``(label, is_head, sign)`` in counterclockwise order.  ``tokens_of`` is the
only function that touches a ``gaussdiag`` object, and it only reads its
endpoints and signs.  Nothing here calls into ``gaussdiag``.
"""

from __future__ import annotations

import itertools


def tokens_of(d) -> list:
    """Read a diagram's endpoints and signs into reference tokens."""
    return [(ep.chord, ep.role == "head", d.signs[ep.chord]) for ep in d.endpoints]


def code_of(tokens) -> str:
    """Gauss code of the tokens: O for a tail, U for a head."""
    return " ".join(
        ("U" if head else "O") + label + ("+" if sign > 0 else "-")
        for label, head, sign in tokens
    )


def signs_of(tokens) -> dict:
    return {label: sign for label, _head, sign in tokens}


def chord_count(tokens) -> int:
    return len(tokens) // 2


def _adjacent(p: int, q: int, m: int) -> bool:
    return (p - q) % m in (1, m - 1)


def _ends(tokens) -> dict:
    """label -> (tail position, head position)."""
    tail, head = {}, {}
    for i, (label, is_head, _sign) in enumerate(tokens):
        (head if is_head else tail)[label] = i
    return {label: (tail[label], head[label]) for label in tail}


def writhe(tokens) -> int:
    """Sum of the crossing signs."""
    return sum(signs_of(tokens).values())


def crossings(tokens) -> dict:
    """label -> how many other chords it crosses (interleaves with)."""
    spans = {label: sorted(ends) for label, ends in _ends(tokens).items()}
    counts = dict.fromkeys(spans, 0)
    for a, b in itertools.combinations(spans, 2):
        a0, a1 = spans[a]
        inside = (a0 < spans[b][0] < a1) + (a0 < spans[b][1] < a1)
        if inside == 1:
            counts[a] += 1
            counts[b] += 1
    return counts


def odd_writhe(tokens) -> int:
    """Kauffman's odd writhe J: the sum of the signs of the chords that
    cross an odd number of other chords.  J(O1- O2- U1- U2-) = -2."""
    signs = signs_of(tokens)
    return sum(signs[c] for c, k in crossings(tokens).items() if k % 2)


def r1_sites(tokens) -> set:
    """Chords whose two endpoints are cyclically adjacent."""
    m = len(tokens)
    return {tokens[i][0] for i in range(m) if tokens[i][0] == tokens[(i + 1) % m][0]}


def r2_sites(tokens) -> set:
    """Pairs {a, b} of opposite-sign chords with adjacent heads and
    adjacent tails, as frozensets."""
    m = len(tokens)
    ends = _ends(tokens)
    signs = signs_of(tokens)
    out = set()
    for i in range(m):
        (a, a_head, _), (b, b_head, _) = tokens[i], tokens[(i + 1) % m]
        if not (a_head and b_head) or a == b or signs[a] == signs[b]:
            continue
        if _adjacent(ends[a][0], ends[b][0], m):
            out.add(frozenset((a, b)))
    return out


def site_errors(tokens, r1_chords, r2_pairs) -> list:
    """The program's R1 chords and R2 pairs against the reference sites:
    every site listed once, none missing and none extra."""
    errors = []
    if len(set(r1_chords)) != len(r1_chords) or set(r1_chords) != r1_sites(tokens):
        errors.append(f"R1 sites {list(r1_chords)} != reference {sorted(r1_sites(tokens))}")
    pairs = [frozenset(p) for p in r2_pairs]
    if len(set(pairs)) != len(pairs) or set(pairs) != r2_sites(tokens):
        errors.append(f"R2 sites {[sorted(p) for p in pairs]} != reference "
                      f"{sorted(sorted(p) for p in r2_sites(tokens))}")
    return errors


def without(tokens, labels) -> list:
    """The tokens with every endpoint of the given chords removed."""
    return [t for t in tokens if t[0] not in labels]


def diagram_count(n: int) -> int:
    """(2n-1)!! * 4^n: perfect matchings times orientations times signs."""
    count = 4**n
    for k in range(1, 2 * n, 2):
        count *= k
    return count


def _matchings(points):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, partner in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1 :]):
            yield [(first, partner)] + tail


def matched_configurations(n: int) -> int:
    """Count (diagram, triple, tiling) configurations over every n-chord
    diagram, straight from the definition of a matched triple: the triple's
    six endpoints are split into three pairs, each pair cyclically adjacent
    on the circle, and the pairs are one head-head pair, one tail-tail pair
    and one head-tail pair of two distinct chords.  Signs play no part, so
    the count over unsigned diagrams is multiplied by 2^n."""
    m = 2 * n
    unsigned = 0
    for matching in _matchings(list(range(m))):
        for flips in itertools.product((False, True), repeat=n):
            # role[p] = (chord, is_head)
            role = {}
            for c, ((p, q), flip) in enumerate(zip(matching, flips)):
                tail, head = (q, p) if flip else (p, q)
                role[tail] = (c, False)
                role[head] = (c, True)
            for triple in itertools.combinations(range(n), 3):
                points = [p for p in range(m) if role[p][0] in triple]
                for tiling in _matchings(points):
                    if not all(_adjacent(p, q, m) for p, q in tiling):
                        continue
                    kinds = sorted(
                        "heads" if role[p][1] and role[q][1]
                        else "tails" if not role[p][1] and not role[q][1]
                        else "mixed" if role[p][0] != role[q][0]
                        else "same"
                        for p, q in tiling
                    )
                    if kinds == ["heads", "mixed", "tails"]:
                        unsigned += 1
    return unsigned * 2**n


PAPER_CENSUS_3 = (960, 192, 32)  # diagrams, movable configurations, up to rotation


def census_errors(n, total, matched, movable, up_to_rotation, matched_reference=None) -> list:
    """Identities every census must satisfy; returns the ones broken.

    - total = (2n-1)!! * 4^n;
    - matched = 4 * movable: flipping a triple's three signs runs through
      all eight sign patterns, and exactly two of them make the three
      3-signs equal;
    - movable = 2n * up_to_rotation: a configuration has a single heads
      pair, so no nontrivial rotation fixes it;
    - at n = 3 the paper's 960/192/32;
    - matched equals ``matched_reference`` when one is given.
    """
    errors = []
    if total != diagram_count(n):
        errors.append(f"census n={n}: total {total} != {diagram_count(n)}")
    if matched != 4 * movable:
        errors.append(f"census n={n}: matched {matched} != 4 * movable {movable}")
    if movable != 2 * n * up_to_rotation:
        errors.append(f"census n={n}: movable {movable} != 2n * {up_to_rotation}")
    if n == 3 and (total, movable, up_to_rotation) != PAPER_CENSUS_3:
        errors.append(f"census n=3: {(total, movable, up_to_rotation)} != {PAPER_CENSUS_3}")
    if matched_reference is not None and matched != matched_reference:
        errors.append(f"census n={n}: matched {matched} != recount {matched_reference}")
    return errors


def deletion_errors(before, after, removed) -> list:
    """Laws of an R1 (one chord) or R2 (two chords) deletion."""
    errors = []
    if after != without(before, removed):
        errors.append(f"deleting {sorted(removed)} did not just remove their endpoints")
    elif len(removed) == 2 and sum(signs_of(before)[c] for c in removed) != 0:
        errors.append(f"R2 pair {sorted(removed)} does not have opposite signs")
    if writhe(after) != writhe(before) - sum(signs_of(before)[c] for c in removed):
        errors.append("writhe law broken")
    if odd_writhe(after) != odd_writhe(before):
        errors.append("odd writhe changed")
    return errors


def r3_errors(before, after, triple) -> list:
    """Laws of an R3 rewrite: on each of three adjacent position pairs the
    endpoints of two of the three chords swap places, nothing else moves,
    and the signs (so the writhe) and the odd writhe stay."""
    errors = []
    m = len(before)
    changed = [i for i in range(m) if before[i] != after[i]]
    pairs = set()
    for i in changed:
        j = next((j for j in ((i + 1) % m, (i - 1) % m)
                  if before[j] == after[i] and before[i] == after[j]), None)
        if j is None or before[i][0] not in triple or before[i][0] == before[j][0]:
            errors.append(f"R3 {triple} moved position {i} other than by an adjacent swap")
            return errors
        pairs.add(frozenset((i, j)))
    if len(pairs) != 3 or len(changed) != 6:
        errors.append(f"R3 {triple} swapped {len(pairs)} pairs, not 3")
    if signs_of(after) != signs_of(before):
        errors.append(f"R3 {triple} changed a sign")
    if odd_writhe(after) != odd_writhe(before):
        errors.append("odd writhe changed")
    return errors


def insertion_errors(before, after, kind) -> tuple:
    """Laws of an R1 or R2 insertion.  Returns (errors, new chord labels)."""
    errors = []
    new = sorted(set(signs_of(after)) - set(signs_of(before)))
    want = 1 if kind == "R1" else 2
    if len(new) != want or chord_count(after) != chord_count(before) + want:
        return [f"{kind} insertion added chords {new}"], new
    if without(after, new) != before:
        errors.append(f"{kind} insertion moved old endpoints")
    if kind == "R1":
        if new[0] not in r1_sites(after):
            errors.append("inserted R1 chord is not an R1 site")
        if writhe(after) != writhe(before) + signs_of(after)[new[0]]:
            errors.append("writhe law broken")
    else:
        if frozenset(new) not in r2_sites(after):
            errors.append("inserted R2 pair is not an R2 site")
        if writhe(after) != writhe(before):
            errors.append("writhe law broken")
    if odd_writhe(after) != odd_writhe(before):
        errors.append("odd writhe changed")
    return errors, new


CHORD_DELTA = {"R1Delete": -1, "R2Delete": -2, "R3": 0, "R1Insert": 1, "R2Insert": 2}


def step_errors(before, after, kind) -> list:
    """Laws every search step obeys, by move kind: the chord-count change,
    the writhe law and the odd writhe."""
    errors = []
    if chord_count(after) != chord_count(before) + CHORD_DELTA[kind]:
        errors.append(f"{kind} step changed the chord count by the wrong amount")
    if kind in ("R1Delete", "R1Insert"):
        changed = set(signs_of(before)) ^ set(signs_of(after))
        moved = sum(signs_of(before).get(c, 0) - signs_of(after).get(c, 0) for c in changed)
        if writhe(after) != writhe(before) - moved:
            errors.append(f"{kind} step broke the writhe law")
    elif writhe(after) != writhe(before):
        errors.append(f"{kind} step changed the writhe")
    if odd_writhe(after) != odd_writhe(before):
        errors.append(f"{kind} step changed the odd writhe")
    return errors
