import random
from itertools import combinations

import pytest

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


def recursive_max_independent_set(g):
    """The branch and bound of max_independent_set written recursively:
    same branching order and bounds (oracle for the set returned)."""
    rows = g.rows
    best = [0, 0]

    def rec(chosen, size, cand):
        if size > best[1]:
            best[:] = [chosen, size]
        if not cand or size + cand.bit_count() <= best[1]:
            return
        if size + naive_cover_bound(cand, rows) <= best[1]:
            return
        bv = max(gc.bits(cand), key=lambda v: ((rows[v] & cand).bit_count(), -v))
        rec(chosen | 1 << bv, size + 1, cand & ~rows[bv] & ~(1 << bv))
        rec(chosen, size, cand & ~(1 << bv))

    rec(0, 0, (1 << g.order) - 1)
    return best[0]


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
        allc = cq.cocliques_of_size(petersen, 4, mode="all")
        first = cq.cocliques_of_size(petersen, 4, mode="first")
        assert first == allc[:1]


class TestMaxIndependentSet:
    def test_edgeless(self):
        assert cq.max_independent_set(gc.edgeless(7)).bit_count() == 7

    def test_complete(self):
        assert cq.max_independent_set(gc.complete(7)).bit_count() == 1

    def test_petersen(self, petersen):
        best = cq.max_independent_set(petersen)
        assert best.bit_count() == 4
        for a, b in combinations(gc.set_of(best), 2):
            assert not petersen.has_edge(a, b)

    def test_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(3, 12)
            g = random_graph(n, rng.uniform(0.2, 0.8), rng)
            best = cq.max_independent_set(g)
            want = max(
                (size for size in range(n, 0, -1) if brute_independent_sets(g, size)),
            )
            assert best.bit_count() == want

    def test_budget_carries_best_so_far(self, grid66):
        with pytest.raises(BudgetExceeded) as info:
            cq.max_independent_set(grid66, cq.CocliqueQuery(mode="maximum", node_budget=10))
        assert isinstance(info.value.partial, int)

    def test_deterministic(self, petersen):
        assert cq.max_independent_set(petersen) == cq.max_independent_set(petersen)

    def test_same_set_as_recursive_search(self, petersen, grid66):
        rng = random.Random(41)
        graphs = [petersen, grid66, gc.path(9), gc.cycle(11)]
        graphs += [random_graph(rng.randint(2, 16), rng.uniform(0.1, 0.9), rng) for _ in range(40)]
        for g in graphs:
            assert cq.max_independent_set(g) == recursive_max_independent_set(g)

    def test_edgeless_1200_no_recursion_limit(self):
        # the search is one level deeper per vertex taken
        assert cq.max_independent_set(gc.edgeless(1200)) == (1 << 1200) - 1


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
                assert cq._cover_bound(cand, g.rows) == naive_cover_bound(cand, g.rows)


class TestQueryValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            cq.CocliqueQuery(mode="everything")

    def test_bad_target(self):
        with pytest.raises(ValueError):
            cq.CocliqueQuery(target=0)

    def test_target_mismatch(self, petersen):
        p = rec.srg_params(petersen)
        with pytest.raises(ValueError, match="target"):
            cq.hoffman_cocliques(petersen, p, cq.CocliqueQuery(target=3))
