"""Finite fields GF(p^e), the symplectic non-orthogonality graph, and
projective-geometry hyperplane designs.

Field elements are ints in [0, q): the element sum(c_i * p^i) stands for
the polynomial sum(c_i * x^i) over GF(p).  The reduction modulus is the
lexicographically smallest monic irreducible of degree e (equivalently,
smallest under this integer encoding), so vertex numberings derived from
field arithmetic are reproducible across runs and platforms.

Convention note: ``symplectic_complement`` builds the graph whose
adjacency is NON-vanishing of the standard alternating form
B(x, y) = sum_i (x_{2i} y_{2i+1} - x_{2i+1} y_{2i}).  Conventions for
"the symplectic graph" differ across the literature; everything in this
package uses the B != 0 graph directly rather than building B = 0 and
complementing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .designs import SymmetricDesign, _factor
from .errors import SizeCapExceeded
from .graphcore import Graph

FIELD_SIZE_CAP = 1 << 16
GRAPH_SIZE_CAP = 5000


def _poly_of(n: int, p: int) -> list[int]:
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    num = num[:]
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    while len(num) - 1 >= dd and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dd:
            break
        shift = len(num) - 1 - dd
        factor = num[-1] * inv_lead % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
        while num and num[-1] == 0:
            num.pop()
    return num


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
    for d in range(1, deg // 2 + 1):
        for low in range(p**d):
            div = _poly_of(low, p) + [0] * (d - len(_poly_of(low, p)))
            div = div[:d] + [1]
            if not _poly_mod(candidate, div, p):
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^e) with element arithmetic on int-encoded polynomials."""

    p: int
    e: int
    modulus: tuple[int, ...]  # coefficients ascending, monic of degree e
    _exp: tuple[int, ...] = field(repr=False, default=())
    _log: tuple[int, ...] = field(repr=False, default=())

    @property
    def q(self) -> int:
        return self.p**self.e

    def elements(self) -> range:
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        while a or b:
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            out += (ra + rb) % p * mult
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        p = self.p
        out = 0
        mult = 1
        while a:
            a, ra = divmod(a, p)
            out += -ra % p * mult
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


def _mul_poly_direct(a: int, b: int, p: int, modulus: tuple[int, ...]) -> int:
    pa = _poly_of(a, p)
    pb = _poly_of(b, p)
    prod = _poly_mod(_poly_mul(pa, pb, p), list(modulus), p)
    out = 0
    for c in reversed(prod):
        out = out * p + c
    return out


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
    q = p**e
    if e == 1:
        return FieldSpec(p, 1, (0, 1))
    modulus = None
    for low in range(q):
        cand = _poly_of(low, p)
        cand += [0] * (e - len(cand))
        cand = cand[:e] + [1]
        if _irreducible(cand, p):
            modulus = tuple(cand)
            break
    assert modulus is not None, "an irreducible of every degree exists"
    # discrete-log tables over a multiplicative generator
    for gen in range(2, q):
        seen = [False] * q
        x = 1
        order = 0
        while not seen[x]:
            seen[x] = True
            x = _mul_poly_direct(x, gen, p, modulus)
            order += 1
        if order == q - 1:
            exp = [0] * (q - 1)
            log = [0] * q
            x = 1
            for i in range(q - 1):
                exp[i] = x
                log[x] = i
                x = _mul_poly_direct(x, gen, p, modulus)
            return FieldSpec(p, e, modulus, tuple(exp), tuple(log))
    raise AssertionError("no multiplicative generator found")


def field_by_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q.  The size cap is checked before q is
    factored."""
    if q > FIELD_SIZE_CAP:
        raise SizeCapExceeded(f"field size {q} exceeds cap {FIELD_SIZE_CAP}")
    fac = _factor(q) if q > 1 else {}
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    return fieldspec(*next(iter(fac.items())))


def projective_points(dim: int, f: FieldSpec) -> list[tuple[int, ...]]:
    """Points of PG(dim-1, q): vectors of length dim normalized so the
    first nonzero coordinate is 1, in lexicographic order."""
    q = f.q
    pts = []
    for code in range(1, q**dim):
        vec = []
        rest = code
        for i in range(dim - 1, -1, -1):  # most-significant digit first
            digit, rest = divmod(rest, q**i)
            vec.append(digit)
        first = next(c for c in vec if c)
        if first == 1:
            pts.append(tuple(vec))
    return pts


def symplectic_form(x: tuple[int, ...], y: tuple[int, ...], f: FieldSpec) -> int:
    """Standard alternating form on hyperbolic pairs (0,1), (2,3), ..."""
    acc = 0
    for i in range(0, len(x), 2):
        term = f.sub(f.mul(x[i], y[i + 1]), f.mul(x[i + 1], y[i]))
        acc = f.add(acc, term)
    return acc


def symplectic_complement(d: int, f: FieldSpec) -> Graph:
    """Graph on the points of PG(2d-1, q), adjacent iff B(x, y) != 0.

    Scaling a point multiplies B by a nonzero constant, so adjacency is
    well defined on projective points.
    """
    if d < 2:
        raise ValueError("symplectic_complement needs d >= 2")
    q = f.q
    v = (q ** (2 * d) - 1) // (q - 1)
    if v > GRAPH_SIZE_CAP:
        raise SizeCapExceeded(f"graph on {v} vertices exceeds cap {GRAPH_SIZE_CAP}")
    pts = projective_points(2 * d, f)
    assert len(pts) == v
    rows = [0] * v
    for i in range(v):
        for j in range(i + 1, v):
            if symplectic_form(pts[i], pts[j], f) != 0:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(v, rows, f"Sp({2*d},{q}) complement")


def pg_hyperplane_design(d: int, f: FieldSpec) -> SymmetricDesign:
    """Points and hyperplanes of PG(d-1, q), the classical symmetric
    2-((q^d-1)/(q-1), (q^(d-1)-1)/(q-1), (q^(d-2)-1)/(q-1)) design."""
    if d < 3:
        raise ValueError("pg_hyperplane_design needs d >= 3 (lambda >= 1)")
    q = f.q
    v = (q**d - 1) // (q - 1)
    if v > GRAPH_SIZE_CAP:
        raise SizeCapExceeded(f"design on {v} points exceeds cap {GRAPH_SIZE_CAP}")
    pts = projective_points(d, f)
    forms = pts  # duals are normalized the same way
    blocks = []
    for form in forms:
        blk = 0
        for i, x in enumerate(pts):
            acc = 0
            for a, b in zip(form, x):
                acc = f.add(acc, f.mul(a, b))
            if acc == 0:
                blk |= 1 << i
        blocks.append(blk)
    k = (q ** (d - 1) - 1) // (q - 1)
    lam = (q ** (d - 2) - 1) // (q - 1)
    return SymmetricDesign(v, tuple(blocks), k, lam)
