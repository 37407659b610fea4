"""The move graph up to four chords: an oracle for the search with insertions.

The graph's nodes are the canonical codes of every diagram with at most
four chords.  Its edges lead from each node to the canonical code of each
child of an offered move (``enumerate_moves(d, True)``) with at most four
chords.  The least chord count each node reaches is a fixed point over the
edges.  The graph is built from ``enumerate_moves`` and ``apply_move``
alone and shares none of the search's choices: its order, its dedup keys,
its walks over move families and the families it skips.

An exhaustive search with insertions under the same cap (``max_chords=4``)
walks the same edges.  So from every start with at most three chords it
must end at the graph's minimum, with no budget hit, at a node the start
reaches.  A search that never keys the unknot expands every node the start
reaches and nothing else.

Kauffman's chord bound B (``tests/invariants.py``) is read off the affine
index polynomial, which every move keeps, so B is at most the least count
of every node.

An edge is one-way when no edge leads back.  Two moves have no offered
inverse, and they account for every one-way edge:
- an R2 deletion of a pair whose four ends sit heads, heads, tails, tails
  in a row, since an R2 insertion at a shared gap puts the tails first;
- an R3 into one of the three-chord diagrams with two movable pairings,
  whose offered R3 swaps the other pairing.
"""

from __future__ import annotations

import collections

import pytest
from invariants import chord_bound
from test_symmetry import _two_pairings

from gaussdiag import (
    HEAD,
    TAIL,
    R1Insert,
    R2Delete,
    R2Insert,
    R3,
    SearchLimits,
    apply_move,
    canonical,
    enumerate_diagrams,
    enumerate_moves,
    serialize_gauss_code,
    simplify,
)

CAP = 4
ADDED = {R1Insert: 1, R2Insert: 2}  # chords a move adds; the rest add none


def _code(d) -> str:
    return serialize_gauss_code(canonical(d))


class Graph:
    """Nodes (code -> canonical diagram), edges ((code, child code) -> the
    moves that make it), each node's successors and least reachable count."""

    def __init__(self, cap: int):
        self.nodes = {}
        for n in range(cap + 1):
            for d in enumerate_diagrams(n):
                self.nodes.setdefault(_code(d), canonical(d))
        self.edges = collections.defaultdict(list)
        for code, d in self.nodes.items():
            for move in enumerate_moves(d, True):
                if d.n + ADDED.get(type(move), 0) <= cap:
                    self.edges[code, _code(apply_move(d, move))].append(move)
        self.out = collections.defaultdict(set)
        for u, v in self.edges:
            self.out[u].add(v)
        self.least = {code: d.n for code, d in self.nodes.items()}
        changed = True
        while changed:
            changed = False
            for u, successors in self.out.items():
                low = min(self.least[v] for v in successors)
                if low < self.least[u]:
                    self.least[u], changed = low, True

    def reach(self, start: str) -> set:
        seen, stack = {start}, [start]
        while stack:
            for v in self.out[stack.pop()] - seen:
                seen.add(v)
                stack.append(v)
        return seen


@pytest.fixture(scope="module")
def graph():
    g = Graph(CAP)
    assert (len(g.nodes), len(g.edges)) == (3_569, 10_202)
    return g


def test_exhaustive_searches_end_at_the_graph_minimum(graph):
    starts = [code for code, d in graph.nodes.items() if d.n < CAP]
    assert len(starts) == 181
    limits = SearchLimits(allow_insertions=True, max_chords=CAP)
    for start in starts:
        result = simplify(graph.nodes[start], limits)
        reached = graph.reach(start)
        assert not result.limit_hit, start
        assert result.final.n == graph.least[start], start
        assert _code(result.final) in reached, start
        if graph.least[start]:
            assert result.states_explored == len(reached), start
        else:
            assert result.states_explored <= len(reached), start


def test_chord_bound_is_at_most_the_graph_minimum(graph):
    for code, d in graph.nodes.items():
        assert chord_bound(d) <= graph.least[code], code


def _heads_then_tails(d, move) -> bool:
    """Whether ``move`` is an R2 deletion of a pair whose four ends sit
    head, head, tail, tail at consecutive positions of d."""
    if not isinstance(move, R2Delete):
        return False
    m = len(d.endpoints)
    for start in range(m):
        run = [d.endpoints[(start + i) % m] for i in range(4)]
        if ({ep.chord for ep in run} == set(move.chords)
                and [ep.role for ep in run] == [HEAD, HEAD, TAIL, TAIL]):
            return True
    return False


def test_one_way_edges_are_the_moves_without_an_offered_inverse(graph):
    kinds = collections.Counter()
    for (u, v), moves in graph.edges.items():
        if (v, u) in graph.edges:
            continue
        if any(_heads_then_tails(graph.nodes[u], move) for move in moves):
            kinds["r2 heads then tails"] += 1
        elif all(isinstance(move, R3) for move in moves) and _two_pairings(graph.nodes[v]):
            kinds["r3 into two pairings"] += 1
        else:
            kinds[u, v, tuple(moves)] += 1
    assert kinds == {"r2 heads then tails": 196, "r3 into two pairings": 2}
