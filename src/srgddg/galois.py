"""Finite fields GF(p^e), the symplectic non-orthogonality graph, and
projective-geometry hyperplane designs.

Field elements are ints in [0, q): the element sum(c_i * p^i) stands for
the polynomial sum(c_i * x^i) over GF(p).  The reduction modulus is the
lexicographically smallest monic irreducible of degree e (equivalently,
smallest under this integer encoding), so vertex numberings derived from
field arithmetic are reproducible across runs and platforms.

A field is its two tables, filled on first use (``fieldspec`` finds
only the modulus) by one path for prime and extension fields: digit
sums, and polynomial products reduced modulo the modulus.  ``add``,
``neg``, ``mul`` and ``inv`` read them.  Tables stay small
because no builder can use a large field.  The least object built over
GF(q) is PG(2, q), on q^2 + q + 1 points, which must fit under
``GRAPH_SIZE_CAP``; so ``FIELD_SIZE_CAP`` is the largest q with
q^2 + q + 1 <= GRAPH_SIZE_CAP, 70 for a cap of 5000.

Both builders are one routine, ``_hyperplanes(forms, pts, f)``: for each
form c, the bitset of the points x with c . x = 0.  It first files the
points by coordinate, ``cells[j][a]`` holding those whose coordinate j
is a; a pass over the coordinates of c then keeps, for each field value
t, the points whose partial sum c_0 x_0 + ... + c_j x_j is t.  Each point
lies in exactly one of those sets after every step, so the set for t = 0
after the last coordinate is exactly the hyperplane: no search and no
sampling, and q^2 bitset ANDs per coordinate instead of one field sum
per point.

Convention note: ``symplectic_complement`` builds the graph whose
adjacency is NON-vanishing of the standard alternating form
B(x, y) = sum_i (x_{2i} y_{2i+1} - x_{2i+1} y_{2i}).  Conventions for
"the symplectic graph" differ across the literature; everything in this
package uses the B != 0 graph directly rather than building B = 0 and
complementing.  B(x, y) = (Jx) . y with Jx = (-x_1, x_0, -x_3, x_2, ...),
so the row of x is the complement of the hyperplane of the form Jx.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import isqrt

from .designs import SymmetricDesign, _factor, _prime_power
from .errors import SizeCapExceeded
from .graphcore import GRAPH_SIZE_CAP, Graph, _trusted_graph, check_order

# the largest q with q^2 + q + 1 <= GRAPH_SIZE_CAP; see the module docstring
FIELD_SIZE_CAP = (isqrt(4 * GRAPH_SIZE_CAP - 3) - 1) // 2


def _digits(n: int, p: int, deg: int) -> list[int]:
    """The deg lowest base-p digits of n, ascending."""
    return [n // p**i % p for i in range(deg)]


def _monic(low: int, p: int, deg: int) -> list[int]:
    """The monic polynomial of degree deg whose lower coefficients are
    the base-p digits of low < p^deg."""
    return _digits(low, p, deg) + [1]


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """num mod the monic den over GF(p), with no trailing zeros."""
    num = num[:]
    dd = len(den) - 1
    while True:
        while num and num[-1] == 0:
            num.pop()
        if len(num) <= dd:
            return num
        shift, factor = len(num) - 1 - dd, num[-1]
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _irreducible(candidate: list[int], p: int) -> bool:
    # trial division by every monic of degree 1..deg/2
    deg = len(candidate) - 1
    return all(_poly_mod(candidate, _monic(low, p, d), p)
               for d in range(1, deg // 2 + 1) for low in range(p**d))


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^e), held as its addition and multiplication tables."""

    p: int
    e: int
    modulus: tuple[int, ...]  # coefficients ascending, monic of degree e

    @property
    def q(self) -> int:
        return self.p**self.e

    def elements(self) -> range:
        return range(self.q)

    @cached_property
    def _tables(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """(addition, multiplication); a graph refused by its cap fills none."""
        p, polys = self.p, [_digits(a, self.p, self.e) for a in self.elements()]

        def value(poly: list[int]) -> int:
            return sum(c % p * p**i for i, c in enumerate(poly))

        add = tuple(tuple(value([x + y for x, y in zip(a, b)]) for b in polys) for a in polys)
        mul = tuple(tuple(value(_poly_mod(_poly_mul(a, b, p), self.modulus, p)) for b in polys) for a in polys)
        return add, mul

    def add(self, a: int, b: int) -> int:
        return self._tables[0][a][b]

    def neg(self, a: int) -> int:
        return self._tables[1][self.p - 1][a]  # (-1) * a

    def mul(self, a: int, b: int) -> int:
        return self._tables[1][a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._tables[1][a].index(1)

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


def fieldspec(p: int, e: int = 1) -> FieldSpec:
    """GF(p^e) with the lexicographically smallest irreducible modulus.
    The size cap is checked before p is factored."""
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    # with p >= 2, an e past the cap's bit length is over the cap; p**e
    # is not built for it
    if p >= 2 and (e > FIELD_SIZE_CAP.bit_length() or p**e > FIELD_SIZE_CAP):
        raise SizeCapExceeded(f"field size {p}^{e} exceeds cap {FIELD_SIZE_CAP}")
    if _factor(p) != {p: 1}:
        raise ValueError(f"{p} is not prime")
    monics = (_monic(low, p, e) for low in range(p**e))
    return FieldSpec(p, e, tuple(next(m for m in monics if _irreducible(m, p))))


def field_by_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q.  The size cap is checked before q is
    factored."""
    if q > FIELD_SIZE_CAP:
        raise SizeCapExceeded(f"field size {q} exceeds cap {FIELD_SIZE_CAP}")
    base = _prime_power(q)
    if base is None:
        raise ValueError(f"{q} is not a prime power")
    return fieldspec(*base)


def projective_points(dim: int, f: FieldSpec) -> list[tuple[int, ...]]:
    """Points of PG(dim-1, q): vectors of length dim normalized so the
    first nonzero coordinate is 1, in lexicographic order."""
    return [x for x in product(range(f.q), repeat=dim) if next(filter(None, x), 0) == 1]


def _hyperplanes(forms, pts, f: FieldSpec) -> list[int]:
    """For each form c of ``forms``, the bitset of the indices i with
    c . pts[i] = 0 over f; see the module docstring."""
    add, mul = f._tables
    cells = [[0] * f.q for _ in pts[0]]
    for i, x in enumerate(pts):
        for cell, a in zip(cells, x):
            cell[a] |= 1 << i
    full = (1 << len(pts)) - 1
    out = []
    for form in forms:
        sums = [full] + [0] * (f.q - 1)  # points by partial sum
        for c, cell in zip(form, cells):
            if c:
                step = [0] * f.q
                for t, part in enumerate(sums):
                    if part:
                        for a, at_a in enumerate(cell):
                            step[add[t][mul[c][a]]] |= part & at_a
                sums = step
        out.append(sums[0])
    return out


def symplectic_complement(d: int, f: FieldSpec) -> Graph:
    """Graph on the points of PG(2d-1, q), adjacent iff B(x, y) != 0.

    Scaling a point multiplies B by a nonzero constant, so adjacency is
    well defined on projective points, and Jx needs no normalizing.
    """
    if d < 2:
        raise ValueError("symplectic_complement needs d >= 2")
    q = f.q
    bits = GRAPH_SIZE_CAP.bit_length()
    if d > bits:  # v > 2^(2d-1): over the cap, and q^(2d) is not built
        raise SizeCapExceeded(f"graph on over 2^{2 * bits + 1} vertices exceeds cap {GRAPH_SIZE_CAP}")
    v = (q ** (2 * d) - 1) // (q - 1)
    check_order(v)
    pts = projective_points(2 * d, f)
    assert len(pts) == v
    forms = [tuple(c for i in range(0, 2 * d, 2) for c in (f.neg(x[i + 1]), x[i])) for x in pts]
    full = (1 << v) - 1
    # B is alternating, so x lies on its own hyperplane and gets no loop,
    # and B(x, y) = -B(y, x), so the rows are symmetric
    return _trusted_graph(v, [full ^ h for h in _hyperplanes(forms, pts, f)], f"Sp({2*d},{q}) complement")


def pg_hyperplane_design(d: int, f: FieldSpec) -> SymmetricDesign:
    """Points and hyperplanes of PG(d-1, q), the classical symmetric
    2-((q^d-1)/(q-1), (q^(d-1)-1)/(q-1), (q^(d-2)-1)/(q-1)) design.
    Duals are normalized as points are, so the points are the forms."""
    if d < 3:
        raise ValueError("pg_hyperplane_design needs d >= 3 (lambda >= 1)")
    q = f.q
    v = (q**d - 1) // (q - 1)
    if v > GRAPH_SIZE_CAP:
        raise SizeCapExceeded(f"design on {v} points exceeds cap {GRAPH_SIZE_CAP}")
    pts = projective_points(d, f)
    k = (q ** (d - 1) - 1) // (q - 1)
    lam = (q ** (d - 2) - 1) // (q - 1)
    return SymmetricDesign(v, tuple(_hyperplanes(pts, pts, f)), k, lam)
