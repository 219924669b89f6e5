"""Symmetric 2-designs: verification, small builders, and the parameter
map used when attaching a coclique to a divisible design graph.

Designs are stored as explicit incidence bitsets (a block is an int
bitset over the points); :func:`verify_design` counts pairs of points
with ``recognize._pair_counts``.  The Bruck-Ryser-Chowla test,
:func:`bruck_ryser_chowla`, is the last filter of
``theory.match_spectrum_shapes``; ``theory.enumerate_feasible`` only
annotates its families with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import FalsyVerdict, SizeCapExceeded
from .graphcore import mask_of, set_of
from .recognize import _pair_counts

__all__ = [
    "SymmetricDesign",
    "Violation",
    "verify_design",
    "complement_design",
    "all_ksubsets_design",
    "required_design_params",
    "bruck_ryser_chowla",
]


@dataclass(frozen=True)
class SymmetricDesign:
    """Point/block incidence structure with #blocks == #points.

    ``blocks[i]`` is the bitset of points on block i; the blocks are
    stored as a tuple whatever sequence they are given as, so that a
    design hashes and compares by value.  ``k_blk`` and
    ``lam`` are the nominal parameters; :func:`verify_design` checks that
    the incidences actually realize a symmetric 2-(v, k, lam) design.
    """

    v_pts: int
    blocks: tuple[int, ...]
    k_blk: int
    lam: int

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if self.v_pts < 1:
            raise ValueError("design needs at least one point")
        if len(blocks) != self.v_pts:
            raise ValueError(
                f"symmetric design needs {self.v_pts} blocks, got {len(blocks)}"
            )
        full = (1 << self.v_pts) - 1
        for i, b in enumerate(blocks):
            if b & ~full:
                raise ValueError(f"block {i} mentions a point outside 0..{self.v_pts - 1}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def params(self) -> tuple[int, int, int]:
        return (self.v_pts, self.k_blk, self.lam)

    def block_points(self, i: int) -> list[int]:
        return set_of(self.blocks[i])


def design_from_blocks(blocks: list[list[int]], v_pts: int | None = None) -> SymmetricDesign:
    """Build a design from explicit point lists, deriving k and lambda."""
    if not blocks:
        raise ValueError("no blocks given")
    if v_pts is None:
        if not any(blocks):
            raise ValueError("no block holds a point")
        v_pts = max(max(b) for b in blocks if b) + 1
    if len(blocks) != v_pts:  # before any mask as wide as v_pts is built
        raise ValueError(f"symmetric design needs {v_pts} blocks, got {len(blocks)}")
    masks = tuple(mask_of(b) for b in blocks)
    lam = (masks[0] & masks[1]).bit_count() if len(masks) > 1 else 0
    return SymmetricDesign(v_pts, masks, masks[0].bit_count(), lam)


@dataclass(frozen=True)
class Violation(FalsyVerdict):
    """A failed design axiom, naming the offending pair."""

    axiom: str
    detail: tuple


def verify_design(d: SymmetricDesign) -> bool | Violation:
    """The first failed axiom of a symmetric 2-(v, k, lam) design, in the
    order block size, point replication, pair coverage (pairs ascending),
    or True.  No other can fail.  With these the v blocks form a 2-design,
    so by Ryser's theorem any two meet in lam (Beth, Jungnickel and Lenz,
    Design Theory, ch. II): for the incidence matrix N, N'N = N^-1 (NN') N
    = (k - lam)I + lam J if lam < k, and if lam = k all blocks are full or
    all empty.  Counting pairs on the blocks through a point gives
    lam(v - 1) = k(k - 1)."""
    v, k, lam = d.params
    points = [mask_of(i for i, b in enumerate(d.blocks) if b >> p & 1) for p in range(v)]
    for axiom, sets in (("block size", d.blocks), ("point replication", points)):
        for i, x in enumerate(sets):
            if x.bit_count() != k:
                return Violation(axiom, (i, x.bit_count(), k))
    (counts, _), pair = _pair_counts(points, [0] * v)
    if pair or counts - {lam}:
        p, q = pair if counts == {lam} else (0, 1)  # the first count is (0, 1)'s
        return Violation("pair coverage", (p, q, (points[p] & points[q]).bit_count(), lam))
    return True


def complement_design(d: SymmetricDesign) -> SymmetricDesign:
    """Replace each block by its complement: 2-(v, v-k, v-2k+lam)."""
    v, k, lam = d.params
    new_lam = v - 2 * k + lam
    if new_lam <= 0:
        raise ValueError(f"complement design is degenerate (lambda = {new_lam})")
    if k > v - 2:
        raise ValueError("complement needs k <= v - 2")
    full = (1 << v) - 1
    return SymmetricDesign(v, tuple(full ^ b for b in d.blocks), v - k, new_lam)


def all_ksubsets_design(v: int) -> SymmetricDesign:
    """The 2-(v, v-1, v-2) design whose blocks are all (v-1)-subsets."""
    if v < 3:
        raise ValueError("all_ksubsets_design needs v >= 3")
    full = (1 << v) - 1
    return SymmetricDesign(v, tuple(full ^ (1 << p) for p in range(v)), v - 1, v - 2)


def required_design_params(n: int, s: int) -> tuple[int, int, int]:
    """Design parameters (m, -s, (-s)(n+s)/n) demanded by the coclique
    attachment for a divisible design graph built on the (n, s) family.

    Raises ValueError if either m or the design lambda is not an integer.
    """
    if s >= 0 or n + s <= 0:
        raise ValueError("need s < 0 and n + s > 0")
    m, rem = divmod((-s) * (n - 1), n + s)
    if rem:
        raise ValueError(f"class count (-s)(n-1)/(n+s) not integral for (n={n}, s={s})")
    lam, rem = divmod((-s) * (n + s), n)
    if rem:
        raise ValueError(f"design lambda (-s)(n+s)/n not integral for (n={n}, s={s})")
    return (m, -s, lam)


# Miller-Rabin with the 13 primes up to 41 as bases proves primality
# below FACTOR_CAP (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
FACTOR_CAP = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for an n below FACTOR_CAP with no prime
    factor in _MR_BASES, as _factor leaves it; so n > 41 and every base
    is a unit mod n."""
    d, r = n - 1, 0
    while not d & 1:
        d >>= 1
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of a composite n with no prime factor in
    _MR_BASES: Floyd's cycle search in Pollard's rho on x -> x^2 + c
    from x = 2, for c = 1, 2, ... until a run does not end on n itself."""
    c = 0
    while True:
        c += 1
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
        if g != n:
            return g


def _factor(n: int) -> dict[int, int]:
    """{prime: exponent} of |n|; the package's only factorization.

    Small primes are divided out, primality is proven by Miller-Rabin
    and composites are split by Pollard's rho, which finds a prime
    factor p in about sqrt(p) steps where trial division takes p.  At
    or above FACTOR_CAP, where the Miller-Rabin bases are no proof, it
    raises SizeCapExceeded before any work."""
    n = abs(n)
    if n >= FACTOR_CAP:
        raise SizeCapExceeded(f"_factor: {n} is not below the cap {FACTOR_CAP}")
    out: dict[int, int] = {}
    for p in _MR_BASES:
        while n > 1 and n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    todo = [n] if n > 1 else []
    while todo:
        x = todo.pop()
        if _is_prime(x):
            out[x] = out.get(x, 0) + 1
        else:
            d = _rho(x)
            todo += (d, x // d)
    return dict(sorted(out.items()))


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e for a prime p and e >= 1, or None."""
    fac = _factor(q) if q > 1 else {}
    return next(iter(fac.items())) if len(fac) == 1 else None


# -- Bruck-Ryser-Chowla -------------------------------------------------


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _hilbert_symbol(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p for a prime p or p == -1 (the real place)."""
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if p == -1:
        return -1 if (a < 0 and b < 0) else 1
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    beta = 0
    while b % p == 0:
        b //= p
        beta += 1
    if p == 2:
        e = ((a - 1) // 2) * ((b - 1) // 2) + alpha * ((b * b - 1) // 8) + beta * ((a * a - 1) // 8)
        return -1 if e % 2 else 1
    e = alpha * beta * ((p - 1) // 2)
    sign = (-1) ** (e % 2)
    if beta % 2:
        sign *= _legendre(a, p)
    if alpha % 2:
        sign *= _legendre(b, p)
    return sign


def _isotropic(a: int, b: int) -> bool:
    """Whether a*x^2 + b*y^2 = z^2 has a nontrivial rational solution."""
    if a == 0 or b == 0:
        return True
    places = {-1, 2}
    places.update(_factor(a))
    places.update(_factor(b))
    return all(_hilbert_symbol(a, b, p) == 1 for p in places)


def bruck_ryser_chowla(v: int, k: int, lam: int) -> bool:
    """Bruck-Ryser-Chowla feasibility for a symmetric 2-(v, k, lam) design.

    Returns True when the parameters survive the test.
    """
    if lam * (v - 1) != k * (k - 1):
        return False
    order = k - lam
    if order <= 0:
        return False
    if v % 2 == 0:
        r = isqrt(order)
        return r * r == order
    sign = -1 if ((v - 1) // 2) % 2 else 1
    return _isotropic(order, sign * lam)
