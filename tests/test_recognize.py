import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from test_assembly import ORACLE_CASES, oracle_graph

from srgddg import assembly as asm
from srgddg import designs as ds
from srgddg import exact as ex
from srgddg import galois as gf
from srgddg import graphcore as gc
from srgddg import recognize as rec
from srgddg.coclique import CocliqueQuery
from srgddg.errors import NoHoffmanBound
from srgddg.graphcore import bits


def t6_coclique_mask():
    """A perfect-matching Hoffman coclique of the triangular graph T(6)."""
    pairs = list(combinations(range(6), 2))
    return gc.mask_of([pairs.index(p) for p in [(0, 1), (2, 3), (4, 5)]])


class TestSrgParams:
    def test_petersen(self, petersen):
        p = rec.srg_params(petersen)
        assert p.tuple4 == (10, 3, 0, 1)
        assert (p.r, p.s, p.f, p.g) == (1, -2, 5, 4)
        assert p.c == 4

    def test_triangular6(self, t6):
        p = rec.srg_params(t6)
        assert p.tuple4 == (15, 8, 4, 4)
        assert (p.r, p.s, p.f, p.g) == (2, -2, 5, 9)
        assert p.c == 3

    def test_grid66(self, grid66):
        p = rec.srg_params(grid66)
        assert p.tuple4 == (36, 10, 4, 2)
        assert (p.r, p.s) == (4, -2)
        assert p.c == 6

    def test_edge_deleted_petersen_not_srg(self, petersen):
        rows = list(petersen.rows)
        x = 0
        y = next(iter(petersen.neighbors(0)))
        rows[x] ^= 1 << y
        rows[y] ^= 1 << x
        broken = gc.Graph(10, rows)
        res = rec.srg_params(broken)
        assert not res
        assert "regular" in res.reason

    def test_violating_pair_reported(self):
        # C6 is regular and connected but not strongly regular
        res = rec.srg_params(gc.cycle(6))
        assert not res
        assert res.pair is not None

    def test_complete_and_edgeless_rejected(self):
        assert rec.srg_params(gc.complete(5)) == rec.NotSrg("complete")
        assert rec.srg_params(gc.edgeless(5)) == rec.NotSrg("edgeless")

    def test_complete_parameter_tuples_rejected(self):
        # K_v meets the counting identity with lambda = v - 2 for every
        # mu, and with 0 < mu < k it would pass as primitive
        for v in range(2, 40):
            for mu in range(v):
                assert rec.srg_params_from_tuple(v, v - 1, v - 2, mu) == rec.NotSrg("complete")

    def test_disconnected_rejected(self):
        g = gc.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        res = rec.srg_params(g)
        assert not res and res.reason == "disconnected"

    def test_conference_graph_reports_irrational(self):
        # C5 = SRG(5,2,0,1) has irrational eigenvalues, mirroring the
        # non-integral outcome of the exact spectrum
        res = rec.srg_params(gc.cycle(5))
        assert not res
        assert "irrational" in res.reason

    def test_imprimitive_complete_multipartite(self):
        # K_{3x2}: mu = k, primitive flag must be off
        g = gc.complement_of(gc.from_edges(6, [(0, 1), (2, 3), (4, 5)]))
        p = rec.srg_params(g)
        assert p and p.tuple4 == (6, 4, 2, 4)
        assert not p.primitive

    def test_hoffman_size_integral_gate(self, petersen):
        p = rec.srg_params(petersen)
        assert p.hoffman_size() == 4
        q = rec.srg_params(gc.complement_of(petersen))
        assert q.c == Fraction(5, 2)
        with pytest.raises(NoHoffmanBound):
            q.hoffman_size()

    def test_agrees_with_exact_spectrum(self, petersen, t6, grid66):
        # srg_params succeeds iff the graph is regular with exactly
        # three distinct integral eigenvalues
        corpus = [petersen, t6, grid66, gc.cycle(5), gc.cycle(6), gc.complete(5),
                  gc.grid(3, 3), gc.path(4), gc.composition(t6, gc.edgeless(2))]
        for g in corpus:
            p = rec.srg_params(g)
            spec = ex.integral_spectrum(g)
            sr = bool(spec) and len(spec.pairs) == 3 and g.regular_degree() is not None
            if g.order > 1 and g.regular_degree() not in (None, 0, g.order - 1) and g.is_connected():
                assert bool(p) == sr, g
            if p:
                assert spec.pairs == p.spectrum_pairs()


class TestDezaParams:
    def test_any_srg_is_deza(self, petersen, t6):
        assert rec.deza_params(petersen) == rec.DezaParams(10, 3, 1, 0)
        assert rec.deza_params(t6) == rec.DezaParams(15, 8, 4, 4)

    def test_composition_with_coclique(self, t6):
        d = rec.deza_params(gc.composition(t6, gc.edgeless(2)))
        assert d == rec.DezaParams(30, 16, 16, 8)
        assert d.b == d.k  # composition signature
        # parameter map for compositions: k = b = k1*v2, a = lambda*v2
        assert d.k == 8 * 2 and d.a == 4 * 2
        # v2 recoverable as (k^2 - a*v)/(k - a)
        assert (d.k**2 - d.a * d.v) // (d.k - d.a) == 2

    def test_path_not_regular(self):
        res = rec.deza_params(gc.path(4))
        assert not res and res.reason == "not regular"

    def test_cycles_are_deza(self):
        assert rec.deza_params(gc.cycle(7)) == rec.DezaParams(7, 2, 1, 0)

    def test_three_counts_rejected(self):
        # triangular prism: counts 0 (matching edges), 1 (triangle
        # edges), 2 (cross non-edges)
        prism = gc.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
        )
        res = rec.deza_params(prism)
        assert not res and "two" in res.reason
        assert res.counts == (0, 1, 2)


class TestDdgRecognize:
    def test_t6_minus_matching(self, t6):
        ddg = gc.induced_subgraph(t6, (1 << 15) - 1 ^ t6_coclique_mask())
        wits = rec.ddg_recognize(ddg)
        assert wits and len(wits) == 1
        dp, part = wits[0]
        assert dp.tuple6 == (12, 6, 2, 3, 3, 4)
        assert dp.proper
        assert part.m == 3 and part.n == 4

    def test_classes_partition_and_counts(self, t6):
        ddg = gc.induced_subgraph(t6, (1 << 15) - 1 ^ t6_coclique_mask())
        dp, part = rec.ddg_recognize(ddg)[0]
        part.validate(ddg.order)
        # brute-force both count kinds
        cls = [part.class_of(x) for x in range(ddg.order)]
        for x in range(ddg.order):
            for y in range(x + 1, ddg.order):
                cnt = ddg.common_neighbors(x, y)
                want = dp.lambda1 if cls[x] == cls[y] else dp.lambda2
                assert cnt == want

    def test_srg_with_lam_eq_mu_is_improper(self, t6):
        res = rec.ddg_recognize(t6)
        assert not res
        assert res.srg_note

    def test_grid_minus_transversal_not_ddg(self, grid66):
        # diagonal transversal is a Hoffman coclique of the 6x6 grid
        diag = gc.mask_of([i * 6 + i for i in range(6)])
        ddg = gc.induced_subgraph(grid66, (1 << 36) - 1 ^ diag)
        res = rec.ddg_recognize(ddg)
        assert not res

    def test_composition_is_ddg(self, t6):
        comp = gc.composition(t6, gc.edgeless(2))
        wits = rec.ddg_recognize(comp)
        assert wits
        tuples = {dp.tuple6 for dp, _ in wits}
        assert (30, 16, 16, 8, 15, 2) in tuples

    def test_witness_observed_unique(self, t6, grid66):
        # at most one witness: the two class sizes at a vertex sum to
        # v + 1 (ddg_recognize's docstring)
        corpus = [
            gc.composition(t6, gc.edgeless(2)),
            gc.induced_subgraph(t6, (1 << 15) - 1 ^ t6_coclique_mask()),
            gc.cycle(6),
            gc.composition(gc.complete(2), gc.edgeless(3)),
        ]
        for g in corpus:
            wits = rec.ddg_recognize(g)
            if wits:
                assert len(wits) == 1

    def test_ddg_rows_stop_at_the_first_row_off_the_identity(self):
        # pair rows of M = (K - l1) I + (l1 - l2) B + l2 J, classes
        # {x : x % 3 = r} of size 4, then M with symmetric pairs of entries
        # changed: a third value, an l1 or l2 too many, or one l1 moved out
        # of vertex 4's class, which keeps every count; and at vertex 1,
        # which opens its class, an l1 too many, or one l1 moved into the
        # class vertex 0 opened.  The row test must stop at the first row
        # that differs
        n, k, l1, l2 = 12, 5, 2, 1

        def first_failure(m):
            rows = rec._DdgRows(n, k)
            return next((x for x in range(n) if not rows.fits(x, m[x][x + 1 :])), None), rows

        ideal = [[k if x == y else l1 if x % 3 == y % 3 else l2 for y in range(n)] for x in range(n)]
        stop, rows = first_failure(ideal)
        assert stop is None and rows.params() == rec.DdgParams(12, 5, 2, 1, 3, 4)
        assert rows.partition() == rec.CanonicalPartition(tuple(gc.mask_of(range(r, n, 3)) for r in range(3)))
        changes = [
            [(5, 9, 4)], [(4, 6, l1)], [(4, 7, l2)], [(0, 4, 9)],
            [(4, 6, l1), (4, 7, l2)], [(1, 5, l1)], [(1, 3, l1), (1, 4, l2)],
        ]
        for change in changes:
            m = [list(row) for row in ideal]
            for x, y, value in change:
                m[x][y] = m[y][x] = value
            assert first_failure(m)[0] == change[0][0], change

    def test_ddg_rows_leave_regularity_to_their_callers(self):
        # the pair rows never see the diagonal of A^2, the degrees.  The
        # path 0-1-2-3 has c_02 = c_13 = 1 and every other count 0, the
        # pattern of classes {0, 2} and {1, 3}, but degrees 1, 2, 2, 1:
        # its rows pass, and both callers refuse it as not regular
        p4 = gc.path(4)
        rows = rec._DdgRows(4, 2)
        assert all(rows.fits(x, upper) for x, upper in enumerate(rec._pair_rows(p4.rows)))
        assert rows.partition() == rec.CanonicalPartition((0b0101, 0b1010))
        assert rec.ddg_recognize(p4) == rec.NotDdg("not a Deza graph: not regular")
        assert ex._moments(p4)[2] is None

    def test_each_pair_is_anded_once(self, t6, sp43):
        # rows that count the ANDs taken between two of them: the power
        # sums and ddg_recognize on a DDG, whose row test proves its Deza
        # counts, AND each pair x < y once
        class CountingRow(int):
            ands = 0

            def __and__(self, other):
                if isinstance(other, CountingRow):
                    CountingRow.ands += 1
                return int.__and__(self, other)

        ddgs = [gc.induced_subgraph(t6, (1 << 15) - 1 ^ t6_coclique_mask()),
                asm.decompose(sp43, CocliqueQuery(mode="first"))[0].ddg]
        for g in ddgs + [t6, gc.petersen(), gc.path(7), gc.cycle(9)]:
            counting, pairs = gc.Graph(g.order, map(CountingRow, g.rows)), g.order * (g.order - 1) // 2
            CountingRow.ands = 0
            ex._moments(counting)
            assert CountingRow.ands == pairs, g
            if g in ddgs:
                CountingRow.ands = 0
                assert rec.ddg_recognize(counting)
                assert CountingRow.ands == pairs, g

    def test_quotient_succeeds_on_every_recognized_ddg(self, t6):
        # the canonical partition of a divisible design graph is equitable
        corpus = [
            gc.composition(t6, gc.edgeless(2)),
            gc.induced_subgraph(t6, (1 << 15) - 1 ^ t6_coclique_mask()),
            gc.cycle(6),
        ]
        for g in corpus:
            wits = rec.ddg_recognize(g)
            if not wits:
                continue
            for dp, part in wits:
                q = rec.quotient_matrix(g, part)
                assert q
                for j in range(q.m):
                    assert sum(q.R[i][j] for i in range(q.m)) == dp.K


class TestQuotientMatrix:
    def test_ddg_canonical_quotient(self, t6):
        ddg = gc.induced_subgraph(t6, (1 << 15) - 1 ^ t6_coclique_mask())
        dp, part = rec.ddg_recognize(ddg)[0]
        q = rec.quotient_matrix(ddg, part)
        assert q.is_constant(2)  # (n+s) = 4-2
        # column sums equal K for a DDG partition
        for j in range(q.m):
            assert sum(q.R[i][j] for i in range(q.m)) == dp.K

    def test_grid_row_partition(self, grid66):
        part = rec.CanonicalPartition(
            tuple(gc.mask_of(range(i * 6, (i + 1) * 6)) for i in range(6))
        )
        q = rec.quotient_matrix(grid66, part)
        for i in range(6):
            for j in range(6):
                assert q.R[i][j] == (5 if i == j else 1)

    def test_not_equitable_names_witness(self, petersen):
        part = rec.CanonicalPartition((gc.mask_of(range(5)), gc.mask_of(range(5, 10))))
        res = rec.quotient_matrix(petersen, part)
        assert not res
        assert 0 <= res.vertex < 10 and res.class_index in (0, 1)

    def test_partition_must_cover(self, petersen):
        part = rec.CanonicalPartition((gc.mask_of(range(4)), gc.mask_of(range(4, 8))))
        with pytest.raises(ValueError):
            rec.quotient_matrix(petersen, part)


# -- the five pair-counting loops that _pair_counts replaced, kept as the
# oracles of srg_params, deza_params and ddg_recognize, and of the partition
# check of attach_coclique, which compares the given classes with those
# ddg_recognize finds


def loop_srg_params(g):
    n = g.order
    if n < 2:
        return rec.NotSrg("graph too small")
    k = g.regular_degree()
    if k is None:
        return rec.NotSrg("not regular")
    if k == 0:
        return rec.NotSrg("edgeless")
    if k == n - 1:
        return rec.NotSrg("complete")
    if not g.is_connected():
        return rec.NotSrg("disconnected")
    rows = g.rows
    lam = mu = None
    for x in range(n):
        rx = rows[x]
        for y in range(x + 1, n):
            cnt = (rx & rows[y]).bit_count()
            if rx >> y & 1:
                if lam is None:
                    lam = cnt
                elif cnt != lam:
                    return rec.NotSrg("adjacent pairs disagree on common neighbours", (x, y))
            else:
                if mu is None:
                    mu = cnt
                elif cnt != mu:
                    return rec.NotSrg("non-adjacent pairs disagree on common neighbours", (x, y))
    assert lam is not None and mu is not None
    return rec.srg_params_from_tuple(n, k, lam, mu)


def loop_deza_params(g):
    n = g.order
    if n < 2:
        return rec.NotDeza("graph too small")
    k = g.regular_degree()
    if k is None:
        return rec.NotDeza("not regular")
    if k == 0 or k == n - 1:
        return rec.NotDeza("complete or edgeless")
    rows = g.rows
    seen = set()
    for x in range(n):
        rx = rows[x]
        for y in range(x + 1, n):
            seen.add((rx & rows[y]).bit_count())
            if len(seen) > 2:
                return rec.NotDeza("more than two distinct counts", tuple(sorted(seen)))
    vals = sorted(seen, reverse=True)
    if len(vals) == 1:
        vals.append(vals[0])
    return rec.DezaParams(n, k, vals[0], vals[1])


def loop_ddg_recognize(g):
    dz = loop_deza_params(g)
    if not dz:
        return rec.NotDdg(f"not a Deza graph: {dz.reason}")
    if dz.b == dz.a:
        return rec.NotDdg(
            "all pairs share the same count: graph is strongly regular "
            "with lambda = mu, an improper divisible design",
            srg_note=True,
        )
    n_verts = g.order
    rows = g.rows
    witnesses = []
    for lam1, lam2 in ((dz.b, dz.a), (dz.a, dz.b)):
        mates = []
        for x in range(n_verts):
            rx = rows[x]
            mask = 1 << x
            for y in range(n_verts):
                if y != x and (rx & rows[y]).bit_count() == lam1:
                    mask |= 1 << y
            mates.append(mask)
        # equivalence iff every member of a candidate class sees the same class
        ok = True
        for x in range(n_verts):
            mx = mates[x]
            for y in bits(mx):
                if mates[y] != mx:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        classes = sorted(set(mates), key=lambda cl: (cl & -cl).bit_length())
        size = classes[0].bit_count()
        if any(cl.bit_count() != size for cl in classes):
            continue
        m = len(classes)
        part = rec.CanonicalPartition(tuple(classes))
        part.validate(n_verts)
        witnesses.append((rec.DdgParams(n_verts, dz.k, lam1, lam2, m, size), part))
    if not witnesses:
        return rec.NotDdg("same-count relation is not an equivalence with equal classes")
    return witnesses


def loop_check_ddg_partition(ddg, partition):
    partition.validate(ddg.order)
    K = ddg.regular_degree()
    if K is None:
        raise asm.ParameterMismatch("graph is not regular")
    rows = ddg.rows
    classes = partition.classes
    lam1 = lam2 = None
    cls_of = [0] * ddg.order
    for i, cl in enumerate(classes):
        for x in bits(cl):
            cls_of[x] = i
    for x in range(ddg.order):
        rx = rows[x]
        for y in range(x + 1, ddg.order):
            cnt = (rx & rows[y]).bit_count()
            if cls_of[x] == cls_of[y]:
                if lam1 is None:
                    lam1 = cnt
                elif cnt != lam1:
                    raise asm.ParameterMismatch(
                        f"same-class pair ({x}, {y}) has {cnt} common "
                        f"neighbours, expected {lam1}"
                    )
            else:
                if lam2 is None:
                    lam2 = cnt
                elif cnt != lam2:
                    raise asm.ParameterMismatch(
                        f"cross-class pair ({x}, {y}) has {cnt} common "
                        f"neighbours, expected {lam2}"
                    )
    if lam1 is None or lam2 is None or lam1 == lam2:
        raise asm.ParameterMismatch("partition does not give a proper divisible design")
    return rec.DdgParams(ddg.order, K, lam1, lam2, partition.m, partition.n)


def loop_pair_counts(rows, related, limit):
    """The contract of _pair_counts, pair by pair."""
    found = (set(), set())
    for x in range(len(rows)):
        for y in range(x + 1, len(rows)):
            cnt = (rows[x] & rows[y]).bit_count()
            seen = found[related[x] >> y & 1]
            if cnt not in seen:
                if len(seen) == limit:
                    return found, (x, y)
                seen.add(cnt)
    return found, None


def assert_recognition_matches_loops(g):
    assert rec.srg_params(g) == loop_srg_params(g)
    assert rec.deza_params(g) == loop_deza_params(g)
    wits = rec.ddg_recognize(g)
    assert wits == loop_ddg_recognize(g)
    # the loop tries both choices of lambda1; at most one succeeds
    assert not wits or len(wits) == 1


def assert_partition_check_matches_loop(g, part):
    """The loop accepts part exactly when its classes, as a set, are
    those ddg_recognize finds, and then with the same parameters; a
    non-partition raises the same ValueError in attach_coclique, before
    the design is read."""
    try:
        want = loop_check_ddg_partition(g, part)
    except asm.ParameterMismatch as exc:
        want = rec.NotDdg(str(exc))
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            asm.attach_coclique(g, part, ds.all_ksubsets_design(4), ())
        return None
    wits = rec.ddg_recognize(g)
    assert bool(want) == bool(wits and set(part.classes) == set(wits[0][1].classes))
    if want:
        assert want == wits[0][0]
    return want


def swapped(part, rnd):
    """part with one vertex of one class exchanged for one of another."""
    classes = list(part.classes)
    i, j = rnd.sample(range(len(classes)), 2)
    a = rnd.choice(list(bits(classes[i])))
    b = rnd.choice(list(bits(classes[j])))
    classes[i] ^= 1 << a | 1 << b
    classes[j] ^= 1 << a | 1 << b
    return rec.CanonicalPartition(tuple(classes))


def random_regular(n, k, seed):
    """A k-regular graph on n vertices: a circulant scrambled by seeded
    double-edge swaps, each of which keeps every degree."""
    rnd = random.Random(seed)
    edges = {frozenset((x, (x + d) % n)) for x in range(n) for d in range(1, k // 2 + 1)}
    if k % 2:
        edges |= {frozenset((x, x + n // 2)) for x in range(n // 2)}
    for _ in range(10 * len(edges)):
        (a, b), (c, d) = (tuple(e) for e in rnd.sample(sorted(edges, key=sorted), 2))
        new = {frozenset((a, d)), frozenset((c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges -= {frozenset((a, b)), frozenset((c, d))}
            edges |= new
    return gc.from_edges(n, [tuple(e) for e in edges])


def random_partition(n, m, seed):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    size = n // m
    return rec.CanonicalPartition(
        tuple(gc.mask_of(order[i * size : (i + 1) * size]) for i in range(m))
    )


PRISM = gc.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])


def edge_deleted_petersen():
    rows = list(gc.petersen().rows)
    y = next(iter(bits(rows[0])))
    rows[0] ^= 1 << y
    rows[y] ^= 1
    return gc.Graph(10, rows)


def grid_minus_transversal():
    return gc.induced_subgraph(gc.grid(6, 6), (1 << 36) - 1 ^ gc.mask_of(i * 7 for i in range(6)))


SMALL_CASES = {
    "c5": lambda: gc.cycle(5),
    "c6": lambda: gc.cycle(6),
    "prism": lambda: PRISM,
    "petersen": gc.petersen,
    "edge_deleted_petersen": edge_deleted_petersen,
    "t6": lambda: gc.triangular(6),
    "t6_minus_matching": lambda: gc.induced_subgraph(
        gc.triangular(6), (1 << 15) - 1 ^ t6_coclique_mask()
    ),
    "t6_times_2": lambda: gc.composition(gc.triangular(6), gc.edgeless(2)),
    "k3_times_3": lambda: gc.composition(gc.complete(3), gc.edgeless(3)),
    "k4_times_2": lambda: gc.composition(gc.complete(4), gc.edgeless(2)),
    "c5_times_3": lambda: gc.composition(gc.cycle(5), gc.edgeless(3)),
    "grid_minus_transversal": grid_minus_transversal,
    "complete": lambda: gc.complete(5),
    "edgeless": lambda: gc.edgeless(5),
    "path": lambda: gc.path(4),
    "single_vertex": lambda: gc.edgeless(1),
}


def late_switch(g):
    """g with edges a - b and c - d, among its last twelve vertices,
    switched to a - d and c - b: every degree stays."""
    n, rows = g.order, list(g.rows)
    late = range(max(n - 12, 0), n)
    a, b, c, d = next(
        (a, b, c, d)
        for a, b, c, d in combinations(late, 4)
        if rows[a] >> b & rows[c] >> d & 1 and not (rows[a] >> d | rows[c] >> b) & 1
    )
    for x, y in ((a, b), (c, d), (a, d), (c, b)):
        rows[x] ^= 1 << y
        rows[y] ^= 1 << x
    return gc.Graph(n, rows)


class TestPairCountsAgainstLoops:
    @pytest.mark.parametrize("name", SMALL_CASES)
    def test_small_graphs(self, name):
        assert_recognition_matches_loops(SMALL_CASES[name]())

    @pytest.mark.parametrize("n, k", [(10, 3), (12, 4), (15, 4), (16, 6), (20, 5), (24, 7)])
    def test_random_regular_graphs(self, n, k):
        for seed in range(6):
            g = random_regular(n, k, 1000 * n + 10 * k + seed)
            assert g.regular_degree() == k
            assert_recognition_matches_loops(g)
            for m in (2, 4):
                if n % m == 0:
                    assert_partition_check_matches_loop(g, random_partition(n, m, seed))

    @pytest.mark.parametrize("name", ["petersen", "t6_minus_matching", "k3_times_3", "prism"])
    def test_relation_with_one_pair_flipped(self, name):
        # every pair in turn is keyed wrongly, so a count that does not
        # fit can sit anywhere in a row, the last pair of the last row too
        g = SMALL_CASES[name]()
        wits = rec.ddg_recognize(g)
        relations = [list(g.rows)]
        if wits:
            part = wits[0][1]
            relations.append([part.classes[part.class_of(x)] for x in range(g.order)])
        for related in relations:
            for x, y in combinations(range(g.order), 2):
                flipped = list(related)
                flipped[x] ^= 1 << y
                flipped[y] ^= 1 << x
                for limit in (1, 2):
                    want = loop_pair_counts(g.rows, flipped, limit)
                    assert rec._pair_counts(g.rows, flipped, limit) == want

    @pytest.mark.parametrize("name", [c[0] for c in ORACLE_CASES])
    def test_assembly_corpus_with_ddgs(self, name):
        graph = oracle_graph(name)
        assert_recognition_matches_loops(graph)
        rnd = random.Random(name)
        for dec in asm.decompose(graph):
            assert_recognition_matches_loops(dec.ddg)
            part = dec.ddg_partition
            assert assert_partition_check_matches_loop(dec.ddg, part) == dec.ddg_params
            for _ in range(2):
                assert not assert_partition_check_matches_loop(dec.ddg, swapped(part, rnd))

    def test_sp82_first_ddg(self):
        # the v = 240 DDG left by the first Hoffman coclique of Sp(8,2)^c
        g = gf.symplectic_complement(4, gf.field_by_order(2))
        ddg = asm.decompose(g, CocliqueQuery(mode="first"))[0].ddg
        (dp, part), = loop_ddg_recognize(ddg)
        assert dp.tuple6 == (240, 120, 56, 60, 15, 16)
        assert rec.ddg_recognize(ddg) == [(dp, part)]

    @pytest.mark.parametrize("d", [3, 4])
    def test_single_count_rows(self, d):
        # lambda = mu in Sp(2d, 2)^c: after row 0 both keys hold that one
        # count, and a row fits when each of its counts is that count
        g = gf.symplectic_complement(d, gf.field_by_order(2))
        n = g.order
        # one count too many in pair (n - 3, n - 1) alone, by a common
        # neighbour n outside the matrix
        rows = list(g.rows)
        rows[n - 3] |= 1 << n
        rows[n - 1] |= 1 << n
        for limit in (1, 2):
            assert rec._pair_counts(rows, rows, limit) == loop_pair_counts(rows, rows, limit)
        assert rec._pair_counts(rows, rows)[1] == (n - 3, n - 1)
        # a regular graph whose first pair off the count falls after row 0
        switched = late_switch(g)
        assert switched.regular_degree() == g.regular_degree()
        got = rec.srg_params(switched)
        assert not got and got.pair[0] > 0
        assert got == loop_srg_params(switched)
        assert rec._pair_counts(switched.rows, switched.rows) == loop_pair_counts(switched.rows, switched.rows, 1)
        assert rec.deza_params(switched) == loop_deza_params(switched)

    @pytest.mark.parametrize("name", ["petersen", "t7", "grid66"])
    def test_lambda_not_mu(self, name):
        g = {"petersen": gc.petersen, "t7": lambda: gc.triangular(7), "grid66": lambda: gc.grid(6, 6)}[name]()
        for h in (g, late_switch(g)):
            assert_recognition_matches_loops(h)

    def test_ddg_partitions_with_a_swap(self):
        rnd = random.Random(7)
        for name in ("t6_minus_matching", "t6_times_2", "k3_times_3", "k4_times_2"):
            g = SMALL_CASES[name]()
            (_, part), = rec.ddg_recognize(g)
            assert assert_partition_check_matches_loop(g, part)
            for _ in range(10):
                assert not assert_partition_check_matches_loop(g, swapped(part, rnd))

    def test_partition_check_failures(self, t6):
        # every pair of T(6) has 4 common neighbours, so no partition of
        # it gives a proper divisible design
        ddg = SMALL_CASES["t6_minus_matching"]()
        cases = [
            (t6, tuple(1 << x for x in range(15)), "partition does not give"),
            (t6, tuple(gc.mask_of(range(i, 15, 3)) for i in range(3)), "partition does not give"),
            (ddg, tuple(1 << x for x in range(12)), "cross-class pair"),
            (ddg, (gc.mask_of(range(12)),), "same-class pair"),
            (ddg, (gc.mask_of(range(5)), gc.mask_of(range(5, 12))), None),
            (gc.path(4), (0b0011, 0b1100), "graph is not regular"),
        ]
        for g, classes, reason in cases:
            got = assert_partition_check_matches_loop(g, rec.CanonicalPartition(classes))
            if reason is None:  # classes of unequal sizes raise ValueError
                assert got is None
            else:
                assert got.reason.startswith(reason)

    def test_attach_coclique_names_a_class_it_does_not_find(self, sp42):
        dec = asm.decompose(sp42)[0]
        part = swapped(dec.ddg_partition, random.Random(1))
        i = next(i for i, cl in enumerate(part.classes) if cl not in dec.ddg_partition.classes)
        want = f"class {i}, {gc.set_of(part.classes[i])}, is not a class of the divisible design graph"
        with pytest.raises(asm.ParameterMismatch, match=re.escape(want)):
            asm.attach_coclique(dec.ddg, part, dec.design, dec.phi)
