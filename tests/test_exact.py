import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from srgddg import assembly as asm
from srgddg import coclique as cq
from srgddg import exact as ex
from srgddg import galois
from srgddg import graphcore as gc
from srgddg.errors import SizeCapExceeded

from oracles import IntPoly, identity_matrix, mat_mul


def refuse(*args):
    raise AssertionError("work started above the size cap")


def random_symmetric(n, lo, hi, rng):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


def fraction_rank(m):
    """Independent rank oracle: plain Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    rk = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(nrows):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        rk += 1
        row += 1
        if row == nrows:
            break
    return rk


def random_regular(n, d, rng):
    """Seeded random d-regular simple graph (configuration model)."""
    while True:
        pts = [v for v in range(n) for _ in range(d)]
        rng.shuffle(pts)
        edges = list(zip(pts[::2], pts[1::2]))
        if all(a != b for a, b in edges) and len({frozenset(e) for e in edges}) == len(edges):
            return gc.from_edges(n, edges)


def oracle_spectrum(m):
    """Independent spectrum oracle: factor char_poly by synthetic division
    over every integer in the row-sum radius.  Returns (integer roots
    with multiplicities, descending; degree of the unsplit remainder)."""
    poly = IntPoly(ex.char_poly(m))
    bound = max(sum(abs(x) for x in row) for row in m)
    found = []
    for theta in range(bound, -bound - 1, -1):
        mult = 0
        while poly.degree > 0:
            q, rem = poly.synthetic_div(theta)
            if rem:
                break
            poly, mult = q, mult + 1
        if mult:
            found.append((theta, mult))
    return tuple(found), poly.degree


def rank_spectrum(m):
    """The rank path, kept as the oracle: every root in [-D, D] of the
    characteristic polynomial modulo SCREEN_PRIME gets its nullity by
    Bareiss rank.  Returns (integer eigenvalues with multiplicities,
    descending; number of eigenvalues left over)."""
    n = len(m)
    poly = ex.char_poly_mod(m, ex.SCREEN_PRIME)
    bound = max(sum(abs(x) for x in row) for row in m)
    found = []
    for theta in range(bound, -bound - 1, -1):
        if sum(c * theta**i for i, c in enumerate(poly)) % ex.SCREEN_PRIME == 0:
            k = n - ex.rank(ex.add_scaled_identity(m, -theta))
            if k:
                found.append((theta, k))
    return tuple(found), n - sum(k for _, k in found)


def heawood():
    """Point-line incidence graph of the Fano plane: a bipartite DDG with
    eigenvalues +-3 and +-sqrt(2)."""
    fano = galois.pg_hyperplane_design(3, galois.fieldspec(2, 1))
    return gc.from_edges(14, [(p, 7 + i) for i, b in enumerate(fano.blocks) for p in gc.bits(b)])


def first_ddg(g):
    return asm.decompose(g, cq.CocliqueQuery(mode="first"))[0].ddg


def ddg_squares_oracle(g):
    """Independent test of the DDG identity on the dense A^2: if A^2 =
    (K - l1) I + (l1 - l2) B + l2 J with B the 0/1 matrix of a partition
    into classes of one size c > 1, the eigenvalues of A^2 with their
    multiplicities (K^2 once, K^2 - l2 n on m - 1, K - l1 on n - m
    dimensions); else None."""
    n = g.order
    A = gc.adjacency_matrix(g)
    sq = mat_mul(A, A)
    k = sq[0][0]
    off = {sq[x][y] for x in range(n) for y in range(n) if x != y}
    if len(off) != 2 or any(sq[x][x] != k for x in range(n)):
        return None
    for l1, l2 in permutations(off):
        classes = {frozenset([x] + [y for y in range(n) if y != x and sq[x][y] == l1])
                   for x in range(n)}
        c, *other_sizes = {len(cl) for cl in classes}
        m = len(classes)
        # distinct sets, each holding its own vertex, that sum to n are
        # a partition
        if not other_sizes and c > 1 and c * m == n:
            return dict(Counter({k * k: 1}) + Counter({k * k - l2 * n: m - 1})
                        + Counter({k - l1: n - m}))
    return None


def random_graphs():
    """Seeded random graphs, regular and not, connected and not."""
    rng = random.Random(1234)
    graphs = []
    for _ in range(60):
        n = rng.randint(1, 12)
        p = rng.choice((0.15, 0.3, 0.5, 0.8))
        graphs.append(gc.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    for n, d in ((8, 3), (10, 4), (12, 3), (12, 5), (16, 6)):
        graphs.append(random_regular(n, d, rng))
    # two copies side by side: regular and disconnected, so mult(k) = 2
    for g in (gc.petersen(), *(random_regular(n, d, rng) for n, d in ((6, 2), (8, 3), (7, 4)))):
        graphs.append(union(g, g))
    return graphs


def union(*graphs):
    """Disjoint union, each graph's vertices numbered after the ones before."""
    rows, order = [], 0
    for g in graphs:
        rows += [r << order for r in g.rows]
        order += g.order
    return gc.Graph(order, rows)


def complete_bipartite(a, b):
    return gc.from_edges(a + b, [(x, a + y) for x in range(a) for y in range(b)])


def hypercube(d):
    return gc.from_edges(1 << d, [(x, x | 1 << i) for x in range(1 << d) for i in range(d)
                                  if not x >> i & 1])


def benchmark_c60(seed):
    """C60 with vertex x renamed perm[x], perm drawn as the spectrum
    benchmark draws it for a seed."""
    perm = list(range(60))
    random.Random(f"{seed}:cycle60").shuffle(perm)
    return gc.from_edges(60, [(perm[x], perm[(x + 1) % 60]) for x in range(60)])


def bipartite_graphs():
    """Bipartite graphs, regular and not, integral and not, connected and
    with isolated vertices, among them K_{1,3} + K_{4,2}, whose smaller
    sides are the even breadth-first layers of one component and the odd
    layers of the other."""
    rng = random.Random(1801)
    tree = gc.from_edges(20, [(x, rng.randrange(x)) for x in range(1, 20)])
    graphs = [gc.cycle(n) for n in range(4, 13, 2)] + [gc.path(n) for n in range(2, 10)]
    graphs += [complete_bipartite(1, b) for b in range(1, 7)]
    graphs += [complete_bipartite(3, 5), complete_bipartite(4, 4), hypercube(3), hypercube(4), tree]
    graphs += [union(gc.cycle(8), gc.edgeless(3)), union(gc.edgeless(2), complete_bipartite(2, 3))]
    graphs += [union(complete_bipartite(1, 3), complete_bipartite(4, 2))]
    graphs += [benchmark_c60(seed) for seed in (3, 7, 11)]
    assert all(g.bipartite_side() is not None for g in graphs)
    return graphs


@pytest.fixture(scope="module")
def corpus(petersen, t6, grid66, sp42, sp43, sp62):
    """Graphs of order <= 63: SRGs, the DDGs left by a Hoffman coclique,
    and controls whose spectra do not split over the integers."""
    rng = random.Random(2023)
    graphs = [
        petersen, t6, grid66, sp42, sp43, sp62,
        gc.complete(1), gc.complete(5), gc.edgeless(4), gc.grid(3, 3), gc.cycle(6),
        gc.cycle(5), gc.cycle(60), gc.path(10), random_regular(20, 3, rng),
    ]
    graphs += [first_ddg(g) for g in (sp42, sp43, sp62)]
    return graphs


class TestIntPoly:
    def test_eval_and_division(self):
        p = IntPoly((6, -5, 1))  # (x-2)(x-3)
        assert p(2) == 0 and p(3) == 0 and p(0) == 6
        q, rem = p.synthetic_div(2)
        assert rem == 0 and q.coeffs == (-3, 1)

    def test_mul(self):
        assert (IntPoly((-1, 1)) * IntPoly((1, 1))).coeffs == (-1, 0, 1)

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            IntPoly((1, 0))


class TestCharPoly:
    def test_zero_3x3(self):
        assert ex.char_poly([[0] * 3 for _ in range(3)]) == (0, 0, 0, 1)

    def test_identity_2x2(self):
        assert ex.char_poly([[1, 0], [0, 1]]) == (1, -2, 1)

    def test_petersen_factored(self, petersen):
        got = ex.char_poly(gc.adjacency_matrix(petersen))
        want = IntPoly((-3, 1))
        for _ in range(5):
            want = want * IntPoly((-1, 1))
        for _ in range(4):
            want = want * IntPoly((2, 1))
        assert got == want.coeffs

    def test_trace_power_oracle(self, petersen):
        # sum of k-th powers of the roots must equal tr(A^k)
        A = gc.adjacency_matrix(petersen)
        poly = IntPoly(ex.char_poly(A))
        spec = ex.integral_spectrum(petersen)
        P = identity_matrix(10)
        for k in range(1, 11):
            P = mat_mul(A, P)
            tr = sum(P[i][i] for i in range(10))
            assert spec.power_sum(k) == tr
        assert poly(3) == 0 and poly(1) == 0 and poly(-2) == 0

    def test_random_vs_leading_minors(self):
        # det(xI - M) at x=0 must be det(-M) = (-1)^n det(M); cross-check
        # the determinant through Bareiss triangularization of small cases
        rng = random.Random(12)
        for n in (2, 3, 4):
            m = random_symmetric(n, -4, 4, rng)
            p = IntPoly(ex.char_poly(m))
            # numeric determinant by Fraction elimination
            a = [[Fraction(x) for x in row] for row in m]
            det = Fraction(1)
            for col in range(n):
                piv = next((r for r in range(col, n) if a[r][col]), None)
                if piv is None:
                    det = Fraction(0)
                    break
                if piv != col:
                    a[col], a[piv] = a[piv], a[col]
                    det = -det
                det *= a[col][col]
                inv = 1 / a[col][col]
                for r in range(col + 1, n):
                    f = a[r][col] * inv
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            assert p(0) == (-1) ** n * det

    def test_size_cap(self):
        # the cap refuses a 513 x 513 matrix before any product, which
        # would test the truth of an entry
        class Refused:
            __bool__ = refuse

        with pytest.raises(SizeCapExceeded, match="char_poly: dimension 513 exceeds cap 512"):
            ex.char_poly([[Refused()] * 513 for _ in range(513)])

    def test_mod_p_matches_exact(self, petersen):
        # Hessenberg reduction over GF(p) against the integer polynomial,
        # on non-symmetric matrices too, for a tiny and a word-size prime
        rng = random.Random(31)
        mats = [gc.adjacency_matrix(petersen), [[0]]]
        mats += [[[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                 for n in (2, 3, 5, 8, 8, 11)]
        for m in mats:
            want = ex.char_poly(m)
            for p in (3, 7, ex.SCREEN_PRIME):
                assert ex.char_poly_mod(m, p) == [c % p for c in want]


class TestIntegralSpectrum:
    def test_complete_4(self):
        spec = ex.integral_spectrum(gc.complete(4))
        assert spec.pairs == ((3, 1), (-1, 3))

    def test_triangular_6(self, t6):
        spec = ex.integral_spectrum(t6)
        assert spec.pairs == ((8, 1), (2, 5), (-2, 9))
        # SRG identity oracle: (A - 2I)(A + 2I) = 4J on T(6)
        A = gc.adjacency_matrix(t6)
        prod = mat_mul(ex.add_scaled_identity(A, -2), ex.add_scaled_identity(A, 2))
        assert all(prod[i][j] == 4 for i in range(15) for j in range(15))

    def test_c5_nonintegral(self):
        res = ex.integral_spectrum(gc.cycle(5))
        assert isinstance(res, ex.NonIntegral)
        assert not res
        assert res.found == ((2, 1),)
        assert res.residual_degree == 4

    def test_spectrum_invariants_regular(self, petersen):
        spec = ex.integral_spectrum(petersen)
        assert spec.n == 10
        assert spec.power_sum(1) == 0
        assert spec.power_sum(2) == 10 * 3  # n*K for K-regular

    def test_agrees_with_char_poly_oracle(self, corpus):
        kinds = set()
        for g in corpus + bipartite_graphs():
            assert g.order <= 63
            res = ex.integral_spectrum(g)
            found, residual = oracle_spectrum(gc.adjacency_matrix(g))
            kinds.add(bool(res))
            if res:
                assert residual == 0 and res.pairs == found, g
            else:
                assert (res.found, res.residual_degree) == (found, residual), g
        assert kinds == {True, False}

    def test_false_positives_dropped(self, corpus, monkeypatch):
        # modulo 3 many candidates are roots of the characteristic
        # polynomial without being eigenvalues; their exact nullity is 0
        want = [ex.integral_spectrum(g) for g in corpus]
        dropped = []
        real_rank = ex.rank

        def counting_rank(m):
            r = real_rank(m)
            dropped.append(r == len(m))
            return r

        monkeypatch.setattr(ex, "SCREEN_PRIME", 3)
        monkeypatch.setattr(ex, "rank", counting_rank)
        got = [ex.integral_spectrum(g) for g in corpus]
        assert got == want
        assert any(dropped)

    def test_costliest_rank_deduced(self, sp62, monkeypatch):
        # a regular graph's top multiplicity is its component count, and
        # power sums 0-4 give SRG(63)'s other two: no rank at all.  C5's
        # only integer candidate is that top one, so it takes none either,
        # and the v = 56 DDG's four eigenvalues follow from its identity
        shifts = []
        real_rank = ex.rank

        def recording_rank(m):
            shifts.append(-m[0][0])
            return real_rank(m)

        monkeypatch.setattr(ex, "rank", recording_rank)
        spec = ex.integral_spectrum(sp62)
        assert spec.pairs == ((32, 1), (4, 27), (-4, 35))
        assert shifts == []
        assert not ex.integral_spectrum(gc.cycle(5))
        assert shifts == []
        spec = ex.integral_spectrum(first_ddg(sp62))
        assert spec.pairs == ((28, 1), (4, 21), (0, 6), (-4, 28))
        assert shifts == []

    def test_srg_needs_no_screen_and_no_rank(self, sp62, monkeypatch):
        # a connected SRG is certified from its bit rows alone: no dense
        # matrix, no screen and no rank
        sp45 = galois.symplectic_complement(2, galois.fieldspec(5, 1))
        for name in ("adjacency_matrix", "char_poly_mod", "rank"):
            monkeypatch.setattr(ex, name, refuse)
        assert ex.integral_spectrum(sp62).pairs == ((32, 1), (4, 27), (-4, 35))
        assert ex.integral_spectrum(sp45).pairs == ((125, 1), (5, 65), (-5, 90))

    def test_ddg_needs_no_screen_and_no_rank(self, sp43, sp62, monkeypatch):
        # a DDG's spectrum follows from its identity A^2 = (K - l1) I +
        # (l1 - l2) B + l2 J, read from the rows of A^2 that give the power
        # sums; the Heawood graph's +-sqrt(2) stay uncounted.  The grid
        # K4 x Kb is a DDG(4b, b+2, b-2, 2; 4, b) with alpha = 2 and
        # beta = b - 2, two nonzero squares that s_1 and s_3 split
        sp82 = galois.symplectic_complement(4, galois.fieldspec(2, 1))
        ddgs = [first_ddg(g) for g in (sp43, sp62, sp82)]
        ddgs += [gc.grid(4, b) for b in (3, 5, 6, 7)]
        for name in ("adjacency_matrix", "char_poly_mod", "rank"):
            monkeypatch.setattr(ex, name, refuse)
        assert [ex.integral_spectrum(g).pairs for g in ddgs] == [
            ((24, 1), (3, 12), (0, 3), (-3, 20)),
            ((28, 1), (4, 21), (0, 6), (-4, 28)),
            ((120, 1), (8, 105), (0, 14), (-8, 120)),
            ((5, 1), (2, 2), (1, 3), (-2, 6)),
            ((7, 1), (3, 3), (2, 4), (-2, 12)),
            ((8, 1), (4, 3), (2, 5), (-2, 15)),
            ((9, 1), (5, 3), (2, 6), (-2, 18)),
        ]
        assert ex.integral_spectrum(heawood()) == ex.NonIntegral(
            found=((3, 1), (-3, 1)), residual_degree=12)

    def test_bipartite_fallback_runs_at_half_dimension(self, monkeypatch):
        # a bipartite graph that is neither an SRG nor a DDG is screened
        # and ranked on A^2 restricted to its smaller side, of dimension at
        # most n/2; the dense A is never built.  K_{1,3} + K_{4,2} has
        # sides of 3 and 7 vertices, and eigenvalues +-sqrt(3), +-sqrt(8)
        dims = []

        def recording(real):
            def call(m, *args):
                dims.append(len(m))
                return real(m, *args)
            return call

        for name in ("char_poly_mod", "rank"):
            monkeypatch.setattr(ex, name, recording(getattr(ex, name)))
        monkeypatch.setattr(ex, "adjacency_matrix", refuse)
        c60 = ex.NonIntegral(found=((2, 1), (1, 2), (0, 2), (-1, 2), (-2, 1)), residual_degree=52)
        q6 = ((6, 1), (4, 6), (2, 15), (0, 20), (-2, 15), (-4, 6), (-6, 1))
        unequal = ex.NonIntegral(found=((0, 6),), residual_degree=4)
        for g, want in ((gc.cycle(60), c60), (benchmark_c60(3), c60), (hypercube(6), q6),
                        (union(complete_bipartite(1, 3), complete_bipartite(4, 2)), unequal)):
            dims.clear()
            res = ex.integral_spectrum(g)
            assert (res if not res else res.pairs) == want
            assert dims and max(dims) <= g.order // 2, g

    def test_moments_vs_dense_traces(self, corpus):
        # s_0 .. s_4 from the pair rows against tr A^0 .. tr A^4 of the
        # dense A, on graphs that are not regular, not connected, bipartite
        # or edgeless too: there the rank fallback could mask a wrong s_3
        # or s_4
        graphs = corpus + random_graphs() + bipartite_graphs()
        graphs += [gc.edgeless(n) for n in (1, 2, 5)] + [union(gc.cycle(5), gc.path(3))]
        kinds = Counter()
        for g in graphs:
            A, power, traces = gc.adjacency_matrix(g), identity_matrix(g.order), []
            for _ in range(5):
                traces.append(sum(power[i][i] for i in range(g.order)))
                power = mat_mul(power, A)
            assert ex._moments(g)[0] == traces, g
            kinds.update({
                "not regular": g.regular_degree() is None,
                "disconnected": g.components() > 1,
                "bipartite": g.bipartite_side() is not None,
                "edgeless": not g.num_edges(),
            })
        assert all(kinds[kind] >= 3 for kind in ("not regular", "disconnected", "bipartite", "edgeless"))

    def test_ddg_identity_vs_dense_oracle(self, corpus, sp42):
        # the row test in _moments against the identity checked on the
        # dense A^2; C60 and C9 have the right values and counts in every
        # row of A^2 but no partition, and C6, K_{3,3} minus a perfect
        # matching, is a DDG
        graphs = corpus + random_graphs() + [heawood(), gc.cycle(6), gc.cycle(9)]
        graphs += [gc.composition(sp42, gc.edgeless(2)), gc.composition(gc.edgeless(3), gc.complete(4))]
        kinds = Counter()
        for g in graphs:
            want = ddg_squares_oracle(g)
            kinds[want is not None] += 1
            assert ex._moments(g)[2] == want, g
        assert kinds == {True: 9, False: 83}

    def test_signed_checks_its_claim(self):
        # the split is accepted only with multiplicities >= 0, each
        # irrational pair even and s_0 .. s_4 reproduced
        def sums(spec, irrational=()):
            return [sum(c * t**j for t, c in spec) + sum(c * t ** (j // 2) for t, c in irrational
                                                         if j % 2 == 0) for j in range(5)]

        ddg56 = ((28, 1), (4, 21), (0, 6), (-4, 28))
        squares = {784: 1, 16: 49, 0: 6}
        assert ex._signed(sums(ddg56), {28: 1}, squares) == ex.Spectrum(ddg56)
        tampered = sums(ddg56)
        tampered[4] += 1
        assert ex._signed(tampered, {28: 1}, squares) is None
        # s_1 and s_3 of 4^53 (-4)^-4: a split with a negative multiplicity
        assert ex._signed(sums(((28, 1), (4, 53), (0, 6), (-4, -4))), {28: 1}, squares) is None
        # +-3 and an odd number of +-sqrt(2)
        assert ex._signed(sums(((3, 1), (-3, 1)), ((2, 3),)), {3: 1}, {9: 2, 2: 3}) is None
        heawood_sums = sums(((3, 1), (-3, 1)), ((2, 12),))
        assert ex._signed(heawood_sums, {3: 1}, {9: 2, 2: 12}) == ex.NonIntegral(((3, 1), (-3, 1)), 12)

    def test_certificate_vs_rank_oracle(self, corpus, sp42):
        sp44 = galois.symplectic_complement(2, galois.fieldspec(2, 2))
        sp45 = galois.symplectic_complement(2, galois.fieldspec(5, 1))
        graphs = corpus + random_graphs() + bipartite_graphs()
        graphs += [sp44, sp45, first_ddg(sp44), heawood()]
        graphs += [gc.grid(4, b) for b in (3, 5, 6, 7)]
        # the lexicographic product Sp(4,2)c[2 K1]: a DDG whose classes
        # have identical neighbourhoods, so l1 = K
        graphs.append(gc.composition(sp42, gc.edgeless(2)))
        graphs += [gc.complete(n) for n in range(1, 9)] + [gc.edgeless(n) for n in range(1, 9)]
        kinds = set()
        for g in graphs:
            res = ex.integral_spectrum(g)
            kinds.add(bool(res))
            got = (res.pairs, 0) if res else (res.found, res.residual_degree)
            assert got == rank_spectrum(gc.adjacency_matrix(g)), g
        assert kinds == {True, False}

    def test_free_points_avoid_proven_eigenvalues(self):
        # power sums 0-4 of 3^1 (-2)^4 left over beside a proven 3: the
        # two points that carry them would count 3 twice
        resid = [sum(k * t**j for t, k in ((3, 1), (-2, 4))) for j in range(5)]
        assert ex._free_points(resid, {}) == {3: 1, -2: 4}
        assert ex._free_points(resid, {3: 1}) is None
        assert ex._free_points(resid, {-2: 0}) is None

    def test_size_cap(self, monkeypatch):
        # the cap refuses a 513-vertex graph before its power sums
        for name in ("_moments", "adjacency_matrix", "char_poly_mod"):
            monkeypatch.setattr(ex, name, refuse)
        with pytest.raises(SizeCapExceeded, match="integral_spectrum: dimension 513 exceeds cap 512"):
            ex.integral_spectrum(gc.edgeless(513))

    def test_multiplicity_rank_cross_check(self, petersen, t6):
        for g in (petersen, t6, gc.complete(5), gc.grid(3, 3)):
            A = gc.adjacency_matrix(g)
            spec = ex.integral_spectrum(g)
            assert spec, "corpus graphs here have integral spectra"
            for theta, mult in spec.pairs:
                shifted = ex.add_scaled_identity(A, -theta)
                assert g.order - ex.rank(shifted) == mult


class TestRank:
    def test_identity(self):
        for n in (1, 4, 9):
            assert ex.rank(identity_matrix(n)) == n

    def test_all_ones(self):
        assert ex.rank([[1] * 5 for _ in range(5)]) == 1

    def test_petersen_shifted(self, petersen):
        A = gc.adjacency_matrix(petersen)
        assert ex.rank(ex.add_scaled_identity(A, -1)) == 5

    def test_zero(self):
        assert ex.rank([[0, 0], [0, 0]]) == 0

    def test_against_fraction_oracle(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(1, 8)
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            # plant rank deficiency half the time
            if rng.random() < 0.5 and n > 1:
                m[n - 1] = [2 * x for x in m[0]]
            assert ex.rank(m) == fraction_rank(m)
        # sparse, banded and non-square matrices, whose pivots need row
        # swaps and leave rows 0 in pivot columns over several steps
        for trial in range(600):
            r, c = rng.randint(1, 9), rng.randint(1, 9)
            if trial % 3 == 0:
                m = [[rng.choice([0, 0, 0, rng.randint(-4, 4)]) for _ in range(c)] for _ in range(r)]
            elif trial % 3 == 1:
                m = [[rng.randint(-3, 3) if abs(i - j) <= 1 else 0 for j in range(c)] for i in range(r)]
            else:
                m = [[rng.choice([0, 1, 2, -1]) * (j >= i // 2) for j in range(c)] for i in range(r)]
            assert ex.rank(m) == fraction_rank(m), m
        # row 2 skips the second pivot, 1, after the first, 2, and is then
        # the pivot row: it is scaled by prev/level = 1/2, exact as a
        # whole though 2 does not divide 1, and row 3 is eliminated by it
        assert ex.rank([[2, 1, 0, 0], [1, 1, 0, 0], [2, 1, 1, 0], [0, 0, 1, 1]]) == 4

    def test_row_zero_in_every_pivot_column_is_left_alone(self):
        class Untouchable(int):
            def __mul__(self, other):
                raise AssertionError("a row with no entry in any pivot column was rescaled")

            __rmul__ = __mul__

        zero = Untouchable(0)
        # pivots 1, 2, 3: each step's pv/prev is not 1
        m = [[1, 0, 0], [0, 2, 0], [zero, zero, zero], [0, 0, 3]]
        assert ex.rank(m) == 3
