"""Exact-size coclique (independent set) search by branch and bound on
bitsets.

One walk, :func:`_walk`, yields the independent sets of one given size
as it finds them, and one collector, :func:`_collect`, keeps what a
function makes of each: :func:`cocliques_of_size` the sets, all or the
first, ``assembly.decompose`` the witnesses and census the witness
cocliques, up to the first in mode "first".  :func:`hoffman_cocliques`
takes the Delsarte-Hoffman size c = v*s/(s-k), the only size the
construction uses.
Vertices are taken in increasing order, so the sets come out in
lexicographic order of their sorted members, and the order, the node
count and the sets found before a budget hit are reproducible.

One pruning rule holds at every node: as many candidates left as
vertices still to take.  A greedy clique cover bounds the size once, at
the root, where it refuses a size above the cover number (grid(10, 10)
has no 11-coclique) without a walk; at every node it cost more than it
pruned.  Open nodes sit on a list, so no recursion limit binds the depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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


def _cover_bound(cand: VertexSet, rows: tuple[int, ...], need: int) -> int:
    """Greedy clique cover of the candidate set, stopped at need classes;
    an independent subset takes at most one vertex of each class."""
    classes: list[int] = []
    for v in bits(cand):
        if len(classes) == need:
            break
        for i, cl in enumerate(classes):
            if cl & ~rows[v] == 0:  # v adjacent to the whole clique
                classes[i] = cl | (1 << v)
                break
        else:
            classes.append(1 << v)
    return len(classes)


def _walk(g: Graph, size: int, budget: int) -> Iterator[VertexSet]:
    """The independent sets of exactly size >= 1 vertices, in
    lexicographic order of the sorted member lists.  A node is a chosen
    set, its candidates (the vertices after its last member that miss
    it) and the number still needed; it is kept while it has that many
    candidates.  Each node visited counts against the budget; past it,
    BudgetExceeded carries the count."""
    rows = g.rows
    nodes = 0
    # one [chosen, untried candidates, need] per open node, root first
    stack: list[list[int]] = []
    chosen, cand, need = 0, (1 << g.order) - 1, size
    if _cover_bound(cand, rows, size) < size:  # the cover bound, at the root only
        cand = 0
    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("coclique search node budget exhausted", nodes)
        if need == 0:
            yield chosen
        elif cand.bit_count() >= need:
            stack.append([chosen, cand, need])
        # the next node: the least untried candidate of the deepest open
        # node that still has enough candidates to finish
        while stack:
            chosen, rest, need = top = stack[-1]
            if rest.bit_count() < need:
                stack.pop()
                continue
            low = rest & -rest
            top[1] = rest = rest ^ low
            chosen, cand, need = chosen | low, rest & ~rows[low.bit_length() - 1], need - 1
            break
        else:
            return


def _collect(g: Graph, size: int, query: CocliqueQuery, keep=None) -> list:
    """``keep(C)`` for each set C of :func:`_walk`, C itself without
    ``keep``, skipping None; mode "first" stops at the first item kept.
    Past the node budget, BudgetExceeded carries the node count and the
    items kept before it."""
    found = []
    try:
        for c in _walk(g, size, query.node_budget):
            item = c if keep is None else keep(c)
            if item is not None:
                found.append(item)
                if query.mode == "first":
                    break
    except BudgetExceeded as exc:
        exc.partial = found
        raise
    return found


def cocliques_of_size(
    g: Graph, size: int, query: CocliqueQuery | None = None
) -> list[VertexSet]:
    """All (or the first) sets of :func:`_walk`; past the node budget,
    BudgetExceeded carries the node count and the sets found before it."""
    if size < 1:
        raise ValueError("size must be >= 1")
    return _collect(g, size, query or CocliqueQuery())


def hoffman_cocliques(
    g: Graph, p: SrgParams, query: CocliqueQuery | None = None
) -> list[VertexSet]:
    """The cocliques of size c = v*s/(s-k), the Hoffman bound, as
    :func:`cocliques_of_size` gives them; NoHoffmanBound if c is not integral."""
    return cocliques_of_size(g, p.hoffman_size(), query)
