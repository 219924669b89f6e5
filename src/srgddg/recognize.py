"""Graph classification: regular / strongly regular / Deza / divisible
design, plus canonical-partition recovery and equitable quotient matrices.

All common-neighbour counts are popcounts of row ANDs on bitset rows,
made a row of the pairs x < y at a time by :func:`_pair_rows`.
:func:`_pair_counts` keys them by a relation the caller passes:
adjacency in :func:`srg_params` (lambda, mu), none in :func:`deza_params`.
:class:`_DdgRows`, the one DDG recognizer, tests them on the DDG identity.
Recognition functions return falsy result objects (NotSrg, NotDeza,
NotDdg, ...) carrying a reason and a witness instead of raising, so
callers can classify arbitrary graphs without exception plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import isqrt
from typing import Iterator, Sequence

from .errors import FalsyVerdict, NoHoffmanBound
from .graphcore import _BIT_SELECTORS, Graph, VertexSet, mask_of, set_of

__all__ = [
    "SrgParams",
    "NotSrg",
    "srg_params",
    "DezaParams",
    "NotDeza",
    "deza_params",
    "DdgParams",
    "CanonicalPartition",
    "NotDdg",
    "ddg_recognize",
    "QuotientMatrix",
    "NotEquitable",
    "quotient_matrix",
    "srg_params_from_tuple",
]


# -- pair counting -------------------------------------------------------

# selectors of the pairs of key 0 and of key 1 from a row's b"0"/b"1" keys
_KEY0, _KEY1 = bytes.maketrans(b"01", b"\1\0"), _BIT_SELECTORS


def _pair_rows(rows: Sequence[int]) -> Iterator[list[int]]:
    """For each x, the counts |rows[x] & rows[y]| of the pairs x < y, by y."""
    for x, rx in enumerate(rows):
        yield [(rx & ry).bit_count() for ry in rows[x + 1 :]]


def _pair_keys(related: int, x: int, length: int) -> bytes:
    """Pair row x's keys: byte y - x - 1 is b"1" if y is in related, else b"0"."""
    return bin(related >> x + 1)[:1:-1].encode().ljust(length, b"0")


def _pair_counts(
    rows: Sequence[int], related: Sequence[int], limit: int = 1
) -> tuple[tuple[set[int], set[int]], tuple[int, int] | None]:
    """Distinct counts |rows[x] & rows[y]| of the pairs x < y, keyed 1
    when y is in related[x] and 0 otherwise, as (found, pair): found[key]
    is the set of counts of that key, at most limit of them; pair is None
    when all pairs fit, else the first pair (x, then y, ascending) whose
    count is one too many for its key, found holding the counts before it."""
    found: tuple[set[int], set[int]] = (set(), set())
    for x, counts in enumerate(_pair_rows(rows)):
        if len(found[0]) == 1 and found[0] == found[1]:
            (c,) = found[0]
            if counts.count(c) == len(counts):
                continue  # one count under both keys, as when lambda = mu
        keys = _pair_keys(related[x], x, len(counts))
        fits = found[0].issuperset(compress(counts, keys.translate(_KEY0)))
        if fits and found[1].issuperset(compress(counts, keys.translate(_KEY1))):
            continue
        # a count new to its key: walk the row pair by pair
        for y, c in enumerate(counts, x + 1):
            seen = found[related[x] >> y & 1]
            if c not in seen:
                if len(seen) == limit:
                    return found, (x, y)
                seen.add(c)
    return found, None


# -- strongly regular ---------------------------------------------------


@dataclass(frozen=True)
class SrgParams:
    """Parameters of a strongly regular graph with integral spectrum.

    r > s are the non-principal eigenvalues, f and g their
    multiplicities, and c the Delsarte-Hoffman coclique bound
    v*s/(s-k), kept as an exact fraction.
    """

    v: int
    k: int
    lam: int
    mu: int
    r: int
    s: int
    f: int
    g: int
    c: Fraction

    @property
    def primitive(self) -> bool:
        """Connected with connected complement: 0 < mu < k."""
        return 0 < self.mu < self.k

    @property
    def tuple4(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)

    def hoffman_size(self) -> int:
        """The coclique bound as an int; raises if it is not integral."""
        if self.c.denominator != 1:
            raise NoHoffmanBound(f"coclique bound {self.c} is not an integer")
        return int(self.c)

    def spectrum_pairs(self) -> tuple[tuple[int, int], ...]:
        return ((self.k, 1), (self.r, self.f), (self.s, self.g))


@dataclass(frozen=True)
class NotSrg(FalsyVerdict):
    reason: str
    pair: tuple[int, int] | None = None


def srg_params_from_tuple(v: int, k: int, lam: int, mu: int) -> SrgParams | NotSrg:
    """Derive spectral data from a bare (v, k, lambda, mu) tuple; the
    complete graph, k = v - 1, is refused whatever mu."""
    if k == v - 1:
        return NotSrg("complete")
    if k * (k - lam - 1) != mu * (v - k - 1):
        return NotSrg("counting identity k(k-l-1) = mu(v-k-1) fails")
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = isqrt(disc)
    if root * root != disc or (lam - mu + root) % 2:
        return NotSrg("eigenvalues are irrational (conference-type parameters)")
    r = (lam - mu + root) // 2
    s = (lam - mu - root) // 2
    if r == s:
        return NotSrg("eigenvalues coincide (complete multipartite degenerate)")
    num = -k - (v - 1) * s
    f, rem = divmod(num, r - s)
    if rem:
        return NotSrg("eigenvalue multiplicities are not integral")
    g = v - 1 - f
    if f < 0 or g < 0:
        return NotSrg("negative multiplicity")
    return SrgParams(v, k, lam, mu, r, s, f, g, Fraction(v * s, s - k))


def srg_params(g: Graph) -> SrgParams | NotSrg:
    """Check strong regularity by exhaustive pair counting.

    Adjacent pairs must share lambda neighbours and non-adjacent pairs
    mu; the first violating pair is reported.  Disconnected input and
    complete/edgeless graphs are rejected up front.
    """
    n = g.order
    if n < 2:
        return NotSrg("graph too small")
    k = g.regular_degree()
    if k is None:
        return NotSrg("not regular")
    if k == 0:
        return NotSrg("edgeless")
    if k == n - 1:
        return NotSrg("complete")
    if not g.is_connected():
        return NotSrg("disconnected")
    (mu, lam), pair = _pair_counts(g.rows, g.rows)
    if pair is not None:
        kind = "adjacent" if g.has_edge(*pair) else "non-adjacent"
        return NotSrg(f"{kind} pairs disagree on common neighbours", pair)
    return srg_params_from_tuple(n, k, lam.pop(), mu.pop())


# -- Deza ---------------------------------------------------------------


@dataclass(frozen=True)
class DezaParams:
    """Regular graph whose common-neighbour counts take at most two
    values b >= a."""

    v: int
    k: int
    b: int
    a: int


@dataclass(frozen=True)
class NotDeza(FalsyVerdict):
    reason: str
    counts: tuple[int, ...] = ()


def deza_params(g: Graph) -> DezaParams | NotDeza:
    n = g.order
    if n < 2:
        return NotDeza("graph too small")
    k = g.regular_degree()
    if k is None:
        return NotDeza("not regular")
    if k == 0 or k == n - 1:
        return NotDeza("complete or edgeless")
    (seen, _), pair = _pair_counts(g.rows, [0] * n, 2)
    if pair is not None:
        counts = tuple(sorted(seen | {g.common_neighbors(*pair)}))
        return NotDeza("more than two distinct counts", counts)
    return DezaParams(n, k, max(seen), min(seen))


# -- divisible design ----------------------------------------------------


@dataclass(frozen=True)
class DdgParams:
    V: int
    K: int
    lambda1: int
    lambda2: int
    m: int
    n: int

    def __post_init__(self):
        if self.V != self.m * self.n:
            raise ValueError("V must equal m*n")

    @property
    def proper(self) -> bool:
        return self.m > 1 and self.n > 1 and self.lambda1 != self.lambda2

    @property
    def tuple6(self) -> tuple[int, int, int, int, int, int]:
        return (self.V, self.K, self.lambda1, self.lambda2, self.m, self.n)


@dataclass(frozen=True)
class CanonicalPartition:
    """Disjoint classes of equal size covering all vertices, stored as a
    tuple of bitsets in the given order, so that a partition built from a
    list hashes and compares like one built from a tuple.  :class:`_DdgRows`
    and ``assembly._split`` order the classes by smallest member;
    ``construct`` keeps the order of ``--partition``, which phi reads."""

    classes: tuple[VertexSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def m(self) -> int:
        return len(self.classes)

    @property
    def n(self) -> int:
        return self.classes[0].bit_count()

    def class_of(self, x: int) -> int:
        for i, cl in enumerate(self.classes):
            if cl >> x & 1:
                return i
        raise ValueError(f"vertex {x} not covered")

    def validate(self, order: int) -> None:
        if not self.classes:
            raise ValueError("classes do not partition the vertex set")
        union = 0
        total = 0
        size = self.classes[0].bit_count()
        for cl in self.classes:
            if cl.bit_count() != size:
                raise ValueError("classes have unequal sizes")
            union |= cl
            total += cl.bit_count()
        if union != (1 << order) - 1 or total != order:
            raise ValueError("classes do not partition the vertex set")


@dataclass(frozen=True)
class NotDdg(FalsyVerdict):
    reason: str
    srg_note: bool = False


class _DdgRows:
    """The divisible design graph identity A^2 = (K - l1) I + (l1 - l2) B
    + l2 J, for some l1 != l2 and B the 0/1 matrix of a partition of the
    vertices into classes of one size c > 1, tested on the rows of
    :func:`_pair_rows`.  On the diagonal, the degrees, it holds when the
    graph is K-regular, which each caller checks once beforehand.

    Row 0 fixes l1, l2 and c: of its two values, l1 is the one whose
    count plus one, c, divides the order.  At most one does
    (:func:`ddg_recognize`); if neither does, a later row fails.

    Every row holds only l1 and l2.  A vertex in no class yet opens one:
    itself and its later places of l1, c members, none of them in a
    class already.  Any other vertex's later places of l1 must be the
    later members of its class.  So if every row fits, the classes are
    disjoint, of size c and cover the vertices, and a pair x < y has l1
    exactly when x and y share a class.  ``fits`` checks one row and is
    called until a row fails; if none does, ``params`` and
    ``partition`` hold.
    """

    def __init__(self, order: int, k: int):
        self.order, self.k = order, k
        self.classes: list[list[int]] = []  # ascending, by least member
        self.owner: dict[int, list[int]] = {}  # vertex -> its class

    def fits(self, x: int, upper: list[int]) -> bool:
        if x == 0:
            values = set(upper)
            if len(values) != 2:
                return False
            l1, l2 = values
            if self.order % (upper.count(l1) + 1):
                l1, l2 = l2, l1
            self.l1, self.l2, self.size = l1, l2, upper.count(l1) + 1
        l1 = self.l1
        ones = upper.count(l1)
        if ones + upper.count(self.l2) != len(upper):
            return False
        members = self.owner.get(x)
        if members is None:
            members = [x, *compress(range(x + 1, self.order), map(l1.__eq__, upper))]
            if ones != self.size - 1 or any(y in self.owner for y in members):
                return False
            self.classes.append(members)
            self.owner.update(dict.fromkeys(members, members))
            return True
        later = members[members.index(x) + 1 :]
        return ones == len(later) and all(upper[y - x - 1] == l1 for y in later)

    def params(self) -> DdgParams:
        return DdgParams(self.order, self.k, self.l1, self.l2, self.order // self.size, self.size)

    def partition(self) -> CanonicalPartition:
        return CanonicalPartition(tuple(map(mask_of, self.classes)))


def ddg_recognize(g: Graph) -> list[tuple[DdgParams, CanonicalPartition]] | NotDdg:
    """Recover the proper divisible-design structure of a graph, found and
    proven by one pass of :class:`_DdgRows` over its pairs.  A success is
    a list of exactly one witness: at each vertex x the c_b - 1 vertices
    sharing b neighbours with x and the c_a - 1 sharing a are the other
    v - 1, so c_b + c_a = v + 1, but a proper class size divides v and
    lies in 2..v/2 (m > 1 and n > 1), so two of them sum to at most v."""
    return _deza_and_ddg(g)[1]


def _deza_and_ddg(
    g: Graph, srg: SrgParams | NotSrg | None = None
) -> tuple[DezaParams | NotDeza, list[tuple[DdgParams, CanonicalPartition]] | NotDdg]:
    """``deza_params`` and ``ddg_recognize`` of a graph, in one pass over
    its pairs if it is an SRG or a DDG.  The two Deza counts are the first
    of: lambda and mu of ``srg``, its ``srg_params`` if they succeeded; l1
    and l2 of the DDG witness, as the rows are tested only on a regular
    graph, and passing rows hold only l1 and l2, row 0 both, so the graph
    is neither complete nor edgeless; else those of ``deza_params``, which
    then names why the graph is no DDG.
    """
    k = g.regular_degree()
    counts = {srg.lam, srg.mu} if srg else set()
    wits = NotDdg("same-count relation is not an equivalence with equal classes")
    if k is not None:
        test = _DdgRows(g.order, k)
        if all(test.fits(x, upper) for x, upper in enumerate(_pair_rows(g.rows))):
            counts, wits = {test.l1, test.l2}, [(test.params(), test.partition())]
    dz = DezaParams(g.order, k, max(counts), min(counts)) if counts else deza_params(g)
    if not dz:
        wits = NotDdg(f"not a Deza graph: {dz.reason}")
    elif dz.b == dz.a:
        wits = NotDdg(
            "all pairs share the same count: graph is strongly regular "
            "with lambda = mu, an improper divisible design",
            srg_note=True,
        )
    return dz, wits


# -- equitable quotient --------------------------------------------------


@dataclass(frozen=True)
class QuotientMatrix:
    R: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.R)

    def is_constant(self, value: int) -> bool:
        return all(x == value for row in self.R for x in row)


@dataclass(frozen=True)
class NotEquitable(FalsyVerdict):
    vertex: int
    class_index: int


def quotient_matrix(g: Graph, p: CanonicalPartition) -> QuotientMatrix | NotEquitable:
    """Row-sum matrix of the partition, or the violating (vertex, class).

    Every vertex of class i must have the same number of neighbours in
    class j, for all ordered pairs (i, j).
    """
    p.validate(g.order)
    R = []
    for i, cl_i in enumerate(p.classes):
        members = set_of(cl_i)
        row = []
        for j, cl_j in enumerate(p.classes):
            counts = [(g.rows[x] & cl_j).bit_count() for x in members]
            first = counts[0]
            for x, cnt in zip(members, counts):
                if cnt != first:
                    return NotEquitable(x, j)
            row.append(first)
        R.append(tuple(row))
    return QuotientMatrix(tuple(R))
