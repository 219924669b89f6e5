"""Exact-size coclique (independent set) search by branch and bound on
bitsets.

One search, :func:`cocliques_of_size`, enumerates the independent sets
of one given size; :func:`hoffman_cocliques` runs it at the
Delsarte-Hoffman size c = v*s/(s-k), the only size the construction
uses.  Mode "all" is exhaustive and mode "first" stops at the first set.
Vertices are taken in increasing order, so the sets come out in
lexicographic order of their sorted members, and the order, the node
count and the sets found before a budget hit are reproducible.

Pruning combines the residual-size bound (not enough candidates left)
with a greedy clique-cover bound on the candidate set.  The search keeps
its open nodes on an explicit stack, not in Python frames, so its depth
is not limited by Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded
from .graphcore import Graph, VertexSet, bits
from .recognize import SrgParams

DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class CocliqueQuery:
    """Search knobs: mode ("first" or "all") and node budget."""

    mode: str = "all"
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.mode not in ("first", "all"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _cover_bound(cand: VertexSet, rows: tuple[int, ...]) -> int:
    """Greedy clique cover of the candidate set; #cliques bounds any
    independent subset's size."""
    classes: list[int] = []
    covered = 0  # union of the classes; v can join none if it misses it
    for v in bits(cand):
        rv = rows[v]
        for i, cl in enumerate(classes if rv & covered else ()):
            if cl & ~rv == 0:  # v adjacent to the whole clique
                classes[i] = cl | (1 << v)
                break
        else:
            classes.append(1 << v)
        covered |= 1 << v
    return len(classes)


def cocliques_of_size(
    g: Graph, size: int, query: CocliqueQuery | None = None
) -> list[VertexSet]:
    """All (or the first) independent sets of exactly the given size,
    in lexicographic order of the sorted member lists.

    A node of the search is a chosen set, its candidates (the vertices
    after its last member that miss it) and the number still needed.
    Each node visited counts against the budget; past it, BudgetExceeded
    carries the node count and the sets found so far.
    """
    if query is None:
        query = CocliqueQuery()
    if size < 1:
        raise ValueError("size must be >= 1")
    rows = g.rows
    first = query.mode == "first"
    budget = query.node_budget
    found: list[VertexSet] = []
    nodes = 0
    # one [chosen, untried candidates, need] per open node, root first
    stack: list[list[int]] = []
    chosen, cand, need = 0, (1 << g.order) - 1, size
    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("coclique search node budget exhausted", nodes, found)
        if need == 0:
            found.append(chosen)
            if first:
                return found
        elif cand.bit_count() >= need and (need <= 2 or _cover_bound(cand, rows) >= need):
            stack.append([chosen, cand, need])
        # the next node: the least untried candidate of the deepest open
        # node that still has enough candidates to finish
        while stack:
            top = stack[-1]
            chosen, rest, need = top
            if rest.bit_count() < need:
                stack.pop()
                continue
            low = rest & -rest
            rest ^= low
            top[1] = rest
            chosen, cand, need = chosen | low, rest & ~rows[low.bit_length() - 1], need - 1
            break
        else:
            return found


def hoffman_cocliques(
    g: Graph, p: SrgParams, query: CocliqueQuery | None = None
) -> list[VertexSet]:
    """Cocliques attaining the bound c = v*s/(s-k), lexicographically
    ordered; exhaustive in mode "all".

    Raises NoHoffmanBound when c is not an integer.
    """
    return cocliques_of_size(g, p.hoffman_size(), query)
