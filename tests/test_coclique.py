import random
from itertools import combinations

import pytest

from srgddg import assembly as asm
from srgddg import coclique as cq
from srgddg import graphcore as gc
from srgddg import recognize as rec
from srgddg.errors import BudgetExceeded, NoHoffmanBound


def brute_independent_sets(g, size):
    out = []
    for sub in combinations(range(g.order), size):
        if all(not g.has_edge(a, b) for a, b in combinations(sub, 2)):
            out.append(gc.mask_of(sub))
    return out


class _Search:
    """Node counter of the recursive oracle below (deadline left out)."""

    __slots__ = ("rows", "budget", "nodes")

    def __init__(self, rows, budget):
        self.rows = rows
        self.budget = budget
        self.nodes = 0

    def tick(self, partial):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded("coclique search node budget exhausted", self.nodes, partial)


def recursive_cocliques_of_size(
    g,
    size,
    mode="all",
    node_budget=cq.DEFAULT_NODE_BUDGET,
    state=None,
):
    """The exact-size search as it was written recursively, one Python
    frame per vertex taken (oracle for order, node counts and partials).
    A given state counts the nodes in place of a new one."""
    if size < 1:
        raise ValueError("size must be >= 1")
    rows = g.rows
    full = (1 << g.order) - 1
    found = []
    state = state or _Search(rows, node_budget)

    def rec(chosen, cand, need):
        state.tick(found)
        if need == 0:
            found.append(chosen)
            return mode == "first"
        if cand.bit_count() < need:
            return False
        if chosen == 0 and cq._cover_bound(cand, rows, need) < need:
            return False  # the clique-cover bound, at the root only
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


def naive_cover_bound(cand, rows):
    """Greedy clique cover: each vertex joins the first class it is
    adjacent to throughout."""
    classes = []
    for v in gc.bits(cand):
        for i, cl in enumerate(classes):
            if cl & ~rows[v] == 0:
                classes[i] = cl | 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


def random_graph(n, p, rng):
    edges = [(x, y) for x, y in combinations(range(n), 2) if rng.random() < p]
    return gc.from_edges(n, edges)


class TestHoffmanCocliques:
    def test_petersen_exactly_5(self, petersen):
        p = rec.srg_params(petersen)
        found = cq.hoffman_cocliques(petersen, p)
        assert len(found) == 5
        assert sorted(found) == sorted(brute_independent_sets(petersen, 4))

    def test_t6_exactly_15(self, t6):
        p = rec.srg_params(t6)
        found = cq.hoffman_cocliques(t6, p)
        assert len(found) == 15
        assert sorted(found) == sorted(brute_independent_sets(t6, 3))

    def test_grid_first_is_transversal(self, grid66):
        p = rec.srg_params(grid66)
        found = cq.hoffman_cocliques(grid66, p, cq.CocliqueQuery(mode="first"))
        assert len(found) == 1
        cells = gc.set_of(found[0])
        assert len({c // 6 for c in cells}) == 6  # one per row
        assert len({c % 6 for c in cells}) == 6  # one per column

    def test_lexicographic_order(self, petersen):
        p = rec.srg_params(petersen)
        found = cq.hoffman_cocliques(petersen, p)
        keys = [tuple(gc.set_of(c)) for c in found]
        assert keys == sorted(keys)

    def test_every_member_pair_nonadjacent(self, t6):
        p = rec.srg_params(t6)
        for c in cq.hoffman_cocliques(t6, p):
            for a, b in combinations(gc.set_of(c), 2):
                assert not t6.has_edge(a, b)

    def test_outside_vertices_have_minus_s_inside(self, petersen, t6):
        # every vertex outside a Hoffman coclique sees exactly -s inside
        for g in (petersen, t6):
            p = rec.srg_params(g)
            for c in cq.hoffman_cocliques(g, p):
                for x in range(g.order):
                    if not c >> x & 1:
                        assert (g.rows[x] & c).bit_count() == -p.s

    def test_non_integral_bound_raises(self, petersen):
        p = rec.srg_params(gc.complement_of(petersen))
        with pytest.raises(NoHoffmanBound):
            cq.hoffman_cocliques(gc.complement_of(petersen), p)

    def test_budget_exceeded_carries_partial(self, grid66):
        p = rec.srg_params(grid66)
        with pytest.raises(BudgetExceeded) as info:
            cq.hoffman_cocliques(grid66, p, cq.CocliqueQuery(node_budget=50))
        assert info.value.nodes > 50 - 2
        assert isinstance(info.value.partial, list)


class TestExactSizeEnumeration:
    def test_matches_brute_force_on_small_graphs(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(4, 14)
            g = random_graph(n, rng.uniform(0.2, 0.7), rng)
            size = rng.randint(1, 4)
            assert sorted(cq.cocliques_of_size(g, size)) == sorted(
                brute_independent_sets(g, size)
            )

    def test_mode_first_prefix(self, petersen):
        allc = cq.cocliques_of_size(petersen, 4, cq.CocliqueQuery(mode="all"))
        first = cq.cocliques_of_size(petersen, 4, cq.CocliqueQuery(mode="first"))
        assert first == allc[:1]

    def test_sizes_out_of_range(self, petersen):
        with pytest.raises(ValueError, match="size must be >= 1"):
            cq.cocliques_of_size(petersen, 0)
        # a size above the order is answered at the root, one node
        assert cq.cocliques_of_size(petersen, 11, cq.CocliqueQuery(node_budget=1)) == []
        with pytest.raises(BudgetExceeded) as info:
            cq.cocliques_of_size(petersen, 11, cq.CocliqueQuery(node_budget=0))
        assert (info.value.nodes, info.value.partial) == (1, [])


class TestCoverBound:
    def test_matches_naive_greedy(self, petersen, grid66):
        rng = random.Random(43)
        graphs = [petersen, grid66, gc.edgeless(9), gc.complete(6), gc.path(10)]
        graphs += [
            random_graph(rng.randint(2, 20), rng.uniform(0.05, 0.95), rng) for _ in range(40)
        ]
        for g in graphs:
            full = (1 << g.order) - 1
            for cand in (full, full & rng.getrandbits(g.order), full & rng.getrandbits(g.order)):
                naive = naive_cover_bound(cand, g.rows)
                for need in (0, 1, 2, 3, 5, naive, naive + 1, g.order + 1):
                    assert cq._cover_bound(cand, g.rows, need) == min(naive, need)

    def test_taken_once_per_search(self, sp62, monkeypatch):
        calls = []
        real = cq._cover_bound
        monkeypatch.setattr(cq, "_cover_bound", lambda *args: calls.append(args) or real(*args))
        found = cq.hoffman_cocliques(sp62, rec.srg_params(sp62))
        assert len(found) == 135 and len(calls) == 1

    def test_root_refuses_size_above_cover(self):
        # grid(10, 10) is covered by its 10 rows: no coclique of 11, and
        # the root alone says so, in one node
        g = gc.grid(10, 10)
        assert cq.cocliques_of_size(g, 11, cq.CocliqueQuery(node_budget=1)) == []


class TestQueryValidation:
    def test_bad_mode(self):
        for mode in ("everything", "maximum"):
            with pytest.raises(ValueError):
                cq.CocliqueQuery(mode=mode)


def twisted_srg63(sp62):
    """SRG(63,32,16,16) glued from the first split of the Sp(6,2)
    complement with phi = (1, 2, 3, 0, 4, 5, 6)."""
    dec = asm.decompose(sp62, cq.CocliqueQuery(mode="first"))[0]
    return asm.attach_coclique(dec.ddg, dec.ddg_partition, dec.design, (1, 2, 3, 0, 4, 5, 6))


def outcome(search):
    """What a search call gives: its list, or its budget hit."""
    try:
        return "done", search()
    except BudgetExceeded as exc:
        return "budget", exc.nodes, exc.partial, str(exc)


@pytest.fixture(scope="module")
def oracle_corpus(petersen, grid66, t6, sp43, sp62):
    """(graph, largest size searched): Petersen, the 6 x 6 grid, T(6), the
    Sp(4,3) and Sp(6,2) complements and the twisted SRG(63) up to their
    Hoffman size, and seeded random graphs up to size 6."""
    corpus = [(g, rec.srg_params(g).hoffman_size()) for g in (petersen, grid66, t6, sp43, sp62)]
    corpus.append((twisted_srg63(sp62), 7))
    rng = random.Random(53)
    for _ in range(30):
        g = random_graph(rng.randint(1, 18), rng.uniform(0.1, 0.9), rng)
        corpus.append((g, min(g.order, 6)))
    return corpus


class TestStackSearchAgainstRecursion:
    @pytest.mark.parametrize("mode", ["first", "all"])
    def test_same_sets_nodes_and_partials(self, oracle_corpus, mode):
        for g, top in oracle_corpus:
            for size in range(1, top + 1):
                state = _Search(g.rows, cq.DEFAULT_NODE_BUDGET)
                recursive_cocliques_of_size(g, size, mode, state=state)
                nodes = state.nodes
                for budget in sorted({5, 50, 500, nodes - 1, nodes, cq.DEFAULT_NODE_BUDGET}):
                    want = outcome(lambda: recursive_cocliques_of_size(g, size, mode, budget))
                    query = cq.CocliqueQuery(mode=mode, node_budget=budget)
                    assert outcome(lambda: cq.cocliques_of_size(g, size, query)) == want

    def test_edgeless_1200_no_recursion_limit(self):
        # one stack entry per vertex taken, past Python's recursion limit
        assert cq.cocliques_of_size(gc.edgeless(1200), 1200) == [(1 << 1200) - 1]
