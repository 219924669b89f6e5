"""Coclique (independent set) search by branch and bound on bitsets.

Two entry points: :func:`hoffman_cocliques` enumerates independent sets
of exactly the Delsarte-Hoffman size c = v*s/(s-k) (mode "all" is
exhaustive), and :func:`max_independent_set` finds a maximum independent
set.  Branching is deterministic, so output order is reproducible:
exact-size search emits sets in lexicographic order of their sorted
members; maximum search branches on the highest-degree candidate
(lowest index on ties).

Pruning combines the residual-size bound (not enough candidates left)
with a greedy clique-cover bound on the candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic

from .errors import BudgetExceeded
from .graphcore import Graph, VertexSet, bits
from .recognize import SrgParams

DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class CocliqueQuery:
    """Search knobs: target size, mode, node budget, optional wall-clock
    budget in seconds (None means no time limit)."""

    target: int | None = None
    mode: str = "all"  # first | all | maximum
    node_budget: int = DEFAULT_NODE_BUDGET
    time_budget: float | None = None

    def __post_init__(self):
        if self.mode not in ("first", "all", "maximum"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.target is not None and self.target < 1:
            raise ValueError("target must be >= 1")


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


class _Search:
    __slots__ = ("rows", "budget", "deadline", "nodes")

    def __init__(self, rows, budget, time_budget=None):
        self.rows = rows
        self.budget = budget
        self.deadline = None if time_budget is None else monotonic() + time_budget
        self.nodes = 0

    def tick(self, partial):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded("coclique search node budget exhausted", self.nodes, partial)
        if self.deadline is not None and self.nodes % 1024 == 0 and monotonic() > self.deadline:
            raise BudgetExceeded("coclique search time budget exhausted", self.nodes, partial)


def cocliques_of_size(
    g: Graph,
    size: int,
    mode: str = "all",
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float | None = None,
) -> list[VertexSet]:
    """All (or the first) independent sets of exactly the given size,
    in lexicographic order of the sorted member lists."""
    if size < 1:
        raise ValueError("size must be >= 1")
    rows = g.rows
    full = (1 << g.order) - 1
    found: list[VertexSet] = []
    state = _Search(rows, node_budget, time_budget)

    def rec(chosen: int, cand: int, need: int) -> bool:
        state.tick(found)
        if need == 0:
            found.append(chosen)
            return mode == "first"
        if cand.bit_count() < need:
            return False
        if need > 2 and _cover_bound(cand, rows) < need:
            return False
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if rest.bit_count() + 1 < need:
                # too few candidates at or after v to finish
                break
            if rec(chosen | low, rest & ~rows[v], need - 1):
                return True
        return False

    rec(0, full, size)
    return found


def hoffman_cocliques(
    g: Graph, p: SrgParams, query: CocliqueQuery | None = None
) -> list[VertexSet]:
    """Cocliques attaining the bound c = v*s/(s-k), lexicographically
    ordered; exhaustive in mode "all".

    Raises NoHoffmanBound when c is not an integer.
    """
    if query is None:
        query = CocliqueQuery()
    c = p.hoffman_size()
    if query.target is not None and query.target != c:
        raise ValueError(f"query target {query.target} != coclique bound {c}")
    mode = "first" if query.mode == "first" else "all"
    return cocliques_of_size(
        g, c, mode=mode, node_budget=query.node_budget, time_budget=query.time_budget
    )


def max_independent_set(g: Graph, query: CocliqueQuery | None = None) -> VertexSet:
    """A maximum independent set by branch and bound.

    Branches on the candidate vertex of maximum degree (ties broken by
    lowest index), first taking it and then leaving it out; prunes with
    the greedy clique-cover bound.  The search runs on an explicit stack,
    so its depth is not limited by Python's recursion limit.  On budget
    exhaustion raises BudgetExceeded carrying the best set found.
    """
    if query is None:
        query = CocliqueQuery(mode="maximum")
    rows = g.rows
    best, best_size = 0, 0
    state = _Search(rows, query.node_budget, query.time_budget)
    # (chosen set, its size, candidates); the top is the next node visited
    stack = [(0, 0, (1 << g.order) - 1)]
    while stack:
        chosen_mask, chosen_size, cand = stack.pop()
        state.tick(best)
        if chosen_size > best_size:
            best, best_size = chosen_mask, chosen_size
        if not cand:
            continue
        if chosen_size + cand.bit_count() <= best_size:
            continue
        if chosen_size + _cover_bound(cand, rows) <= best_size:
            continue
        # branch vertex: max degree within candidates, lowest index on ties
        bv, bd = -1, -1
        for v in bits(cand):
            d = (rows[v] & cand).bit_count()
            if d > bd:
                bv, bd = v, d
        low = 1 << bv
        stack.append((chosen_mask, chosen_size, cand & ~low))
        stack.append((chosen_mask | low, chosen_size + 1, cand & ~rows[bv] & ~low))
    return best
