"""Exact integer linear algebra: integral spectra of graphs by power sums
and rank, characteristic polynomials, and fraction-free rank.

Everything here runs on arbitrary-precision Python ints; there is no
floating point and no tolerance anywhere.  A graph whose spectrum is not
all integers is a legitimate outcome, reported as :class:`NonIntegral`,
never approximated.

Integral spectra are certified by power sums s_j = tr A^j of the
adjacency matrix A, read straight from a graph's bit rows.  Let mu be
the true spectrum minus a claimed one, as a signed measure on the
eigenvalues.  Some multiplicities are proven outright (the top one of a
regular graph is its number of components; others by rank), and the
claim adds at most two integer points t1, t2 that are not among them.
If s_0 .. s_4 of the claim match, mu has vanishing moments 0-4, so
sum((x - t1)^2 (x - t2)^2) over the uncounted eigenvalues x is 0: there
are none, and mu's mass and first moment then force the multiplicities
of t1 and t2, so mu = 0.  s_3 and s_4 take a popcount of two bit rows
for each pair x < y, so a connected strongly regular graph (three
eigenvalues) needs no elimination at all.  See Cvetkovic, Rowlinson &
Simic, *An Introduction to the Theory of Graph Spectra* (2010), ch. 1, 3.

A divisible design graph (DDG) has four eigenvalues, too many for the
free points, but its identity A^2 = (K - l1) I + (l1 - l2) B + l2 J (B
the 0/1 matrix of a partition into m classes of one size, J all ones)
is tested on the pair counts that give s_3 and s_4, once the graph is
K-regular, by ``recognize._DdgRows``.  On the orthogonal spaces spanned
by the all-ones vector, by the class-constant vectors orthogonal to it
and by the vectors summing to 0 on each class, of dimensions 1, m - 1
and n - m, A^2 acts as the scalars K^2, K^2 - l2 n and K - l1, which
``theory.ddg_spectrum`` gives.  A is symmetric and commutes with A^2,
so the squares of its eigenvalues are exactly these, with these
multiplicities.  mult(K) is proven, so mult(-K) is the rest of K^2; a
square t that is not a perfect square gives +-sqrt(t) equal
multiplicities, as both are roots of one factor x^2 - t of the integer
characteristic polynomial (Galois conjugates), and they are left out of
the integer spectrum; for each other square u^2 > 0 the split of its
multiplicity between u and -u solves s_1 and s_3.  So a DDG needs no
elimination either.  See Haemers, Kharaghani & Meulenberg, "Divisible
design graphs", J. Combin. Theory Ser. A 118 (2011).

When neither route fits, multiplicities are proven by rank: a
symmetric integer matrix is diagonalizable, so an integer theta has
multiplicity n - rank(A - theta I).  Candidates theta are screened with
the characteristic polynomial modulo one word-size prime (O(n^3)
word-size work by Hessenberg reduction), and each survivor's nullity is
computed exactly by Bareiss elimination, the free points being sought
again after each; the spectrum is integral exactly when some claim fits.
A bipartite graph, with sides X and Y (the smaller colour class of each
component in X, so a = |X| <= n/2), has A = [[0, N], [N^T, 0]] and
A^2 = N N^T (+) N^T N (Brouwer & Haemers, *Spectra of Graphs* (2012),
1.3.6).  Its spectrum is symmetric, A being similar to -A by the
diagonal matrix that is -1 on Y, so a proven mult(K) proves mult(-K).
For u > 0, x -> (x, N^T x / u) maps the u^2-eigenspace of M = A^2[X, X]
= N N^T onto the u-eigenspace of A, so mult(u) = mult(-u) = a -
rank(M - u^2 I); and mult(0) = n - rank A = n - 2 rank N = n - 2 rank M,
as rank N N^T = rank N over the rationals.  So the fallback screens and
ranks the a x a matrix M, whose entries are the popcounts (A^2)_xy, at
t = u^2 for u = 0 .. D; when 0 is not a root modulo the prime, det M is
not 0, rank M = a and mult(0) = n - 2a with no rank.  Only this
fallback builds a dense matrix, M from its own a^2 popcounts, and only
a graph that is not bipartite builds A itself.  :func:`char_poly`
(Faddeev-LeVerrier, Theta(n^4) big-int work) is kept as an independent
route to the same answer.  Operations refuse to run above the size cap
``SIZE_CAP`` instead of silently crawling.

Matrices are plain nested lists of ints (``IntMatrix`` is an alias).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from math import isqrt
from operator import mul

from .errors import FalsyVerdict, SizeCapExceeded
from .graphcore import Graph, adjacency_matrix, set_of
from .recognize import _KEY1, _DdgRows, _pair_keys, _pair_rows
from .theory import ddg_spectrum

IntMatrix = list  # n x n nested lists of ints

SIZE_CAP = 512


def check_cap(op: str, n: int) -> None:
    """Refuse an n x n matrix above SIZE_CAP before any work on it."""
    if n > SIZE_CAP:
        raise SizeCapExceeded(f"{op}: dimension {n} exceeds cap {SIZE_CAP}")


def _check_square(m: IntMatrix) -> int:
    n = len(m)
    if n < 1:
        raise ValueError("matrix must have dimension >= 1")
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return n


@dataclass(frozen=True)
class Spectrum:
    """Integer eigenvalues with multiplicities, sorted descending."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        vals = [v for v, _ in self.pairs]
        if vals != sorted(vals, reverse=True) or len(set(vals)) != len(vals):
            raise ValueError("eigenvalues must be distinct and descending")
        if any(m < 1 for _, m in self.pairs):
            raise ValueError("multiplicities must be positive")

    @property
    def n(self) -> int:
        return sum(m for _, m in self.pairs)

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def power_sum(self, e: int) -> int:
        return sum(m * v**e for v, m in self.pairs)


@dataclass(frozen=True)
class NonIntegral(FalsyVerdict):
    """The spectrum is not all integers.

    ``found`` holds every integer eigenvalue with its multiplicity,
    sorted descending; the other ``residual_degree`` eigenvalues are not
    integers.
    """

    found: tuple[tuple[int, int], ...]
    residual_degree: int


def char_poly(m: IntMatrix) -> tuple[int, ...]:
    """Coefficients of det(xI - M), ascending degree, by Faddeev-LeVerrier.

    The recurrence divides the trace by the step index; that division is
    exact over the integers, so no fractions ever appear.  Each product
    M W skips the zero entries of M, so a 0/1 matrix only adds.
    """
    n = _check_square(m)
    check_cap("char_poly", n)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    work = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = []
        for row in m:
            acc = [0] * n
            for v, wj in zip(row, work):
                if v == 1:
                    acc = [x + y for x, y in zip(acc, wj)]
                elif v:
                    acc = [x + v * y for x, y in zip(acc, wj)]
            prod.append(acc)
        work = prod
        tr = sum(work[i][i] for i in range(n))
        q, r = divmod(-tr, k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier trace division not exact")
        coeffs[n - k] = q
        if k < n:
            for i in range(n):
                work[i][i] += q
    return tuple(coeffs)


# Screening modulus, the Mersenne prime 2^61 - 1.  Any prime is sound;
# a large one makes false positives (candidates that are roots only
# modulo the prime) rare.
SCREEN_PRIME = (1 << 61) - 1


def char_poly_mod(m: IntMatrix, p: int) -> list[int]:
    """Coefficients of det(xI - M) modulo the prime p, ascending degree.

    Reduces M to upper Hessenberg form by similarity transforms over
    GF(p), then expands the Hessenberg determinant row by row:
    O(n^3) operations on word-size residues, with no big-int growth.
    """
    n = _check_square(m)
    a = [[x % p for x in row] for row in m]
    for j in range(n - 2):
        k = j + 1
        piv = next((r for r in range(k, n) if a[r][j]), None)
        if piv is None:
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
        inv = pow(a[k][j], p - 2, p)
        tail = a[k][j:]
        mults = []
        for i in range(k + 1, n):
            ai = a[i]
            u = ai[j] * inv % p
            mults.append(u)
            if u:
                ai[j:] = [(x - u * y) % p for x, y in zip(ai[j:], tail)]
        # the inverse transform adds u_i times column i to column k
        if any(mults):
            for row in a:
                row[k] = (row[k] + sum(map(mul, mults, row[k + 1:]))) % p
    polys = [[1]]
    for r in range(n):
        prev = polys[r]
        cur = [0] + prev
        cur[: r + 1] = [x - a[r][r] * y for x, y in zip(cur, prev)]
        t = 1
        for i in range(1, r + 1):
            t = t * a[r - i + 1][r - i] % p
            if not t:
                break
            c = t * a[r - i][r] % p
            if c:
                q = polys[r - i]
                cur[: len(q)] = [x - c * y for x, y in zip(cur, q)]
        polys.append([x % p for x in cur])
    return polys[n]


def _moments(g: Graph) -> tuple[list[int], dict[int, int], dict[int, int] | None]:
    """Power sums tr A^0 .. tr A^4 of g's adjacency matrix A, with, for a
    regular graph, one proven multiplicity, and for a divisible design
    graph the eigenvalues of A^2.

    s_0 = n, s_1 = 0 (no loops) and s_2 = 2|E|.  (A^2)_xx is the degree
    of x, and for x < y (A^2)_xy = c_xy, the popcount of row x AND row y
    from ``recognize._pair_rows``; so tr A^3 = 2 sum(c_xy, x ~ y) and
    tr A^4 = sum(deg(x)^2) + 2 sum(c_xy^2).  For a regular graph the same
    rows are tested against the divisible design graph identity
    (``recognize._DdgRows``) until one fails; a graph that passes gets
    A^2's eigenvalues with their multiplicities, the squares of the
    eigenvalues of ``theory.ddg_spectrum``, any other None.
    If g is k-regular, k is the largest eigenvalue of each connected
    component (Perron-Frobenius) and simple there, so its multiplicity
    is the number of components.
    """
    n, rows = g.order, g.rows
    k = g.regular_degree()
    ddg = k is not None and _DdgRows(n, k)
    cube = quart = 0
    for x, upper in enumerate(_pair_rows(rows)):
        cube += sum(compress(upper, _pair_keys(rows[x], x, len(upper)).translate(_KEY1)))
        quart += sum(map(mul, upper, upper))
        if ddg and not ddg.fits(x, upper):
            ddg = None
    sums = [n, 0, 2 * g.num_edges(), 2 * cube, sum(d * d for d in g.degrees()) + 2 * quart]
    if k is None:
        return sums, {}, None
    # the eigenvalues of A^2, equal ones adding their dimensions; A^2 is
    # positive semidefinite, so ddg_spectrum finds none negative
    sp = ddg and ddg_spectrum(ddg.params())
    squares = sp and Counter({sp.K**2: 1}) + Counter({sp.beta2: sp.g_sum}) + Counter({sp.alpha2: sp.f_sum})
    return sums, {k: g.components()}, squares


def _free_points(resid: list[int], proven: dict[int, int]) -> dict[int, int] | None:
    """The at most two integer eigenvalues, none of them in ``proven``,
    that carry the residual power sums ``resid``, or None.

    The points solve x^2 - e1 x + e2 from the Hankel system of resid[0..3]
    (one point if resid has zero variance), and their multiplicities
    solve resid[0..1].  The answer stands only if no multiplicity is
    negative, no point is already proven (so the spectrum is a disjoint
    union) and every given power sum matches.
    """
    r0, r1, r2, r3 = resid[:4]
    if not r0:
        return None if any(resid) else {}
    var = r0 * r2 - r1 * r1
    if var == 0:
        theta, rem = divmod(r1, r0)
        if rem:
            return None
        sol = {theta: r0}
    else:
        e1, rem1 = divmod(r0 * r3 - r1 * r2, var)
        e2, rem2 = divmod(r1 * r3 - r2 * r2, var)
        disc = e1 * e1 - 4 * e2
        if rem1 or rem2 or disc <= 0:
            return None
        root = isqrt(disc)
        if root * root != disc or (e1 + root) % 2:
            return None
        hi, lo = (e1 + root) // 2, (e1 - root) // 2
        m_hi, rem = divmod(r1 - r0 * lo, hi - lo)
        if rem or not 0 <= m_hi <= r0:
            return None
        sol = {hi: m_hi, lo: r0 - m_hi}
    if any(theta in proven for theta in sol):
        return None
    if any(sum(k * theta**j for theta, k in sol.items()) != s for j, s in enumerate(resid)):
        return None
    return sol


def _signed(
    sums: list[int], top: dict[int, int], squares: dict[int, int]
) -> Spectrum | NonIntegral | None:
    """The spectrum of a regular graph whose eigenvalue squares are known
    with their multiplicities (``squares``, from the divisible design
    graph identity), or None if the power sums admit no consistent split.

    top = {K: mult(K)} is proven, so mult(-K) is the rest of K^2.  A
    square t that is not a perfect square is carried by +-sqrt(t), two
    roots of the irreducible factor x^2 - t of the characteristic
    polynomial, so each has half its multiplicity and they cancel in
    every odd power sum.  0 is its own square.  For the at most two
    integers u > 0 left, the differences d_u = mult(u) - mult(-u) solve
    s_1 and s_3, a linear system with determinant u1 u2 (u2^2 - u1^2),
    which is not 0.
    """
    (k, comps), = top.items()
    mult = {k: comps, -k: squares[k * k] - comps}
    pairs, irrational = [], {}
    for t, dim in squares.items():
        u = isqrt(t)
        if u * u != t:
            irrational[t] = dim
        elif u == 0:
            mult[0] = dim
        elif u != k:
            pairs.append((u, dim))
    e = comps - mult[-k]
    r1, r3 = sums[1] - k * e, sums[3] - k**3 * e
    if len(pairs) == 2:
        (a, _), (b, _) = pairs
        det, nums = a * b * (b * b - a * a), (r1 * b**3 - r3 * b, r3 * a - r1 * a**3)
    else:
        det, nums = (pairs[0][0] if pairs else 1), (r1,)
    for (u, dim), num in zip(pairs, nums):
        d = num // det
        mult[u], mult[-u] = (dim + d) // 2, (dim - d) // 2
    # a remainder in d or an odd dim - d shows below as an s_1, s_3 or
    # s_0 that does not match
    if min(mult.values()) < 0 or any(dim % 2 for dim in irrational.values()):
        return None
    for j, s in enumerate(sums):
        got = sum(c * t**j for t, c in mult.items())
        if j % 2 == 0:
            got += sum(dim * t ** (j // 2) for t, dim in irrational.items())
        if got != s:
            return None
    found = tuple(sorted(((t, c) for t, c in mult.items() if c), reverse=True))
    residual = sum(irrational.values())
    return NonIntegral(found, residual) if residual else Spectrum(found)


def integral_spectrum(g: Graph) -> Spectrum | NonIntegral:
    """Full integer adjacency spectrum of g, or NonIntegral.

    Some multiplicities are proven outright (the top one of a regular
    graph by its component count, see ``_moments``); the rest of the
    spectrum must carry the power sums tr A^j left over.  The routes, in
    order (see the module docstring for the proofs):

    1. at most two integer eigenvalues outside the proven ones carry
       them all (``_free_points``);
    2. g is a divisible design graph: its identity gives the squares of
       its eigenvalues with their multiplicities (``theory.ddg_spectrum``),
       and ``_signed`` splits each square between +-sqrt, an irrational
       pair evenly (the two are Galois conjugates);
    3. the candidates theta in [-D, D] (D the largest degree) that are
       roots of the characteristic polynomial modulo SCREEN_PRIME, a set
       that holds every integer eigenvalue, are proven one at a time,
       cheapest (smallest |theta|) first, as n - rank(A - theta I) by
       Bareiss elimination, and the free points are sought again after
       each.  Candidates of multiplicity 0 drop out; if every candidate
       is proven and the multiplicities fall short of n, the spectrum
       is not integral.  A bipartite graph (``Graph.bipartite_side``)
       runs the same steps on M = A^2[X, X], X the smaller side, a = |X|:
       its proven multiplicities are mirrored to -theta, the candidates
       are the u in [0, D] with u^2 a root of M's characteristic
       polynomial, and each gives mult(u) = mult(-u) = a - rank(M - u^2 I),
       or for u = 0 mult(0) = n - 2 rank M; if 0 is not a candidate, M is
       nonsingular and mult(0) = n - 2a.
    """
    n = g.order
    check_cap("integral_spectrum", n)
    sums, proven, squares = _moments(g)

    def solve():
        resid = [s - sum(k * t**j for t, k in proven.items()) for j, s in enumerate(sums)]
        return _free_points(resid, proven)

    free = solve()
    if free is None and squares:
        spec = _signed(sums, proven, squares)
        if spec is not None:
            return spec
    if free is None:
        bound = max(row.bit_count() for row in g.rows)
        side = g.bipartite_side()
        if side is None:
            m = adjacency_matrix(g)
            shifts = {theta: theta for theta in range(bound, -bound - 1, -1)}
        else:
            # the spectrum is symmetric, so -K is proven with K; A^2[X, X]
            # has eigenvalue u^2 for each pair +-u (X is not empty: an
            # edgeless graph is settled by route 1)
            proven.update({-t: k for t, k in proven.items()})
            xs, rows = set_of(side), g.rows
            m = [[(rows[x] & rows[y]).bit_count() for y in xs] for x in xs]
            shifts = {u: u * u for u in range(bound + 1)}
        p = SCREEN_PRIME
        poly = char_poly_mod(m, p)
        cands = []
        for theta, t in shifts.items():
            acc = 0
            for c in reversed(poly):
                acc = (acc * t + c) % p
            if not acc and theta not in proven:
                cands.append(theta)
        if side is not None:
            if 0 not in cands:
                # det M is not 0 modulo p, so M has full rank a
                proven[0] = n - 2 * len(m)
            free = solve()
        for theta in sorted(cands, key=abs):
            if free is not None:
                break
            null = len(m) - rank(add_scaled_identity(m, -shifts[theta]))
            if side is None:
                proven[theta] = null
            elif theta:
                proven[theta] = proven[-theta] = null
            else:
                proven[0] = n - 2 * (len(m) - null)
            free = solve()
    found = tuple(sorted(((t, k) for t, k in proven.items() if k), reverse=True))
    if free is None:
        return NonIntegral(found, n - sum(proven.values()))
    return Spectrum(tuple(sorted(found + tuple(free.items()), reverse=True)))


def rank(m: IntMatrix) -> int:
    """Exact rank by Bareiss fraction-free Gaussian elimination.  A row
    that is 0 in the pivot column is left alone, as its update would only
    scale it by pv/prev.  Those factors telescope to prev/level[r],
    level[r] the pivot value after row r's last update: a row divides by
    level[r] where Bareiss divides by prev, and a pivot row is scaled once."""
    a = [list(row) for row in m]
    nrows, ncols = len(a), len(a[0]) if a else 0
    level = [1] * nrows
    prev = 1
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        level[row], level[piv] = level[piv], level[row]
        if level[row] != prev:
            a[row][col:] = [x * prev // level[row] for x in a[row][col:]]
        pv, tail = a[row][col], a[row][col + 1:]
        for r in range(row + 1, nrows):
            ar = a[r]
            arc = ar[col]
            if arc == 0:
                continue
            lv, level[r] = level[r], pv
            ar[col + 1:] = [(x * pv - arc * y) // lv for x, y in zip(ar[col + 1:], tail)]
            ar[col] = 0
        prev = pv
        row += 1
    return row


def add_scaled_identity(m: IntMatrix, scale: int) -> IntMatrix:
    """Return m + scale*I without mutating the input."""
    n = _check_square(m)
    out = [list(row) for row in m]
    for i in range(n):
        out[i][i] += scale
    return out
