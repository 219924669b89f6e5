import random
from fractions import Fraction
from itertools import combinations

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
        graphs.append(gc.Graph(2 * g.order, g.rows + tuple(r << g.order for r in g.rows)))
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
    graphs += [asm.decompose(g, cq.CocliqueQuery(mode="first"))[0].ddg for g in (sp42, sp43, sp62)]
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
        for g in corpus:
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
        # and the v = 56 DDG's four eigenvalues take one, the cheapest
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
        ddg = asm.decompose(sp62, cq.CocliqueQuery(mode="first"))[0].ddg
        spec = ex.integral_spectrum(ddg)
        assert spec.pairs == ((28, 1), (4, 21), (0, 6), (-4, 28))
        assert shifts == [0]

    def test_srg_needs_no_screen_and_no_rank(self, sp62, monkeypatch):
        # a connected SRG is certified from its bit rows alone: no dense
        # matrix, no screen and no rank
        sp45 = galois.symplectic_complement(2, galois.fieldspec(5, 1))
        for name in ("adjacency_matrix", "char_poly_mod", "rank"):
            monkeypatch.setattr(ex, name, refuse)
        assert ex.integral_spectrum(sp62).pairs == ((32, 1), (4, 27), (-4, 35))
        assert ex.integral_spectrum(sp45).pairs == ((125, 1), (5, 65), (-5, 90))

    def test_certificate_vs_rank_oracle(self, corpus):
        sp44 = galois.symplectic_complement(2, galois.fieldspec(2, 2))
        sp45 = galois.symplectic_complement(2, galois.fieldspec(5, 1))
        graphs = corpus + random_graphs() + [sp44, sp45]
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
