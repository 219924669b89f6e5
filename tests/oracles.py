"""Generic integer polynomial and matrix arithmetic, kept beside the
tests as independent oracles for ``srgddg.exact``: the package itself
certifies spectra from bit rows and never needs them.  Also field
arithmetic on the digits of the elements, the oracle of the tables of
``srgddg.galois.FieldSpec``; the pairwise builders of ``srgddg.galois``,
which evaluate the form of every pair of points one field operation at a
time; the pairwise builder of ``srgddg.graphcore.triangular``; the
per-column graph6 encoder that ``srgddg.graphcore.encode_graph6``
replaced; the block-wise graph6 decoder and the transposer of "0"/"1"
strings that ``srgddg.graphcore.decode_graph6`` and
``srgddg.graphcore._transpose_bits`` replaced; all five symmetric
design axioms checked by brute force, the oracle of
``srgddg.designs.verify_design``; and the strongly regular
parameter sets listed by their eigenvalues, the sweep of
``srgddg.theory``; the labeling search that backjumps only at a
repeat of the first or the best leaf, the rule ``srgddg.iso._Search``
widened to every earlier leaf; and the equitable refinement that pops
every queued splitter, which ``srgddg.iso._refine`` replaced by one that
queues no splitter that splits nothing."""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from itertools import combinations, zip_longest
from math import isqrt

from srgddg import graphcore as gc, iso
from srgddg.designs import Violation
from srgddg.errors import Graph6Error
from srgddg.graphcore import bits, pack_graph6


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients in ascending degree order."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = self.coeffs
        if len(c) > 1 and c[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def synthetic_div(self, root: int) -> tuple["IntPoly", int]:
        """Divide by (x - root); returns (quotient, remainder)."""
        out = []
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        rem = out.pop()
        out.reverse()
        if not out:
            out = [0]
        return IntPoly(tuple(out)), rem

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return IntPoly(tuple(out))


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Exact matrix product of nested lists of ints."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def field_add(a, b, f):
    """a + b in f, base-p digit by digit."""
    p = f.p
    return sum((a // p**i + b // p**i) % p * p**i for i in range(f.e))


def field_mul(a, b, f):
    """a * b in f: the product of the polynomials whose coefficients are
    the base-p digits of a and b, reduced modulo f.modulus one leading
    term at a time."""
    p, e = f.p, f.e
    prod = [0] * (2 * e - 1)
    for i in range(e):
        for j in range(e):
            prod[i + j] += (a // p**i % p) * (b // p**j % p)
    for top in range(2 * e - 2, e - 1, -1):
        lead = prod[top]
        for i, c in enumerate(f.modulus):
            prod[top - e + i] -= lead * c
    return sum(c % p * p**i for i, c in enumerate(prod[:e]))


def projective_points(dim, f):
    """Points of PG(dim-1, q) by counting through the base-q codes of the
    vectors, keeping those whose first nonzero digit is 1."""
    q = f.q
    pts = []
    for code in range(1, q**dim):
        vec = [code // q**i % q for i in range(dim - 1, -1, -1)]
        if next(c for c in vec if c) == 1:
            pts.append(tuple(vec))
    return pts


def symplectic_form(x, y, f):
    """B(x, y) = sum_i (x_{2i} y_{2i+1} - x_{2i+1} y_{2i}) over f."""
    acc = 0
    for i in range(0, len(x), 2):
        term = f.add(f.mul(x[i], y[i + 1]), f.neg(f.mul(x[i + 1], y[i])))
        acc = f.add(acc, term)
    return acc


def symplectic_rows(d, f):
    """Rows of the Sp(2d, q) complement, B(x, y) != 0 checked pair by pair."""
    pts = projective_points(2 * d, f)
    rows = [0] * len(pts)
    for i, x in enumerate(pts):
        for j in range(i + 1, len(pts)):
            if symplectic_form(x, pts[j], f) != 0:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def pg_blocks(d, f):
    """Hyperplanes of PG(d-1, q), the dot product checked point by point;
    the forms are the points."""
    pts = projective_points(d, f)
    blocks = []
    for form in pts:
        blk = 0
        for i, x in enumerate(pts):
            acc = 0
            for a, b in zip(form, x):
                acc = f.add(acc, f.mul(a, b))
            if acc == 0:
                blk |= 1 << i
        blocks.append(blk)
    return blocks


def triangular_rows(m):
    """Rows of T(m), every two 2-subsets of {0..m-1} tested for a common
    point; vertices are the 2-subsets in lexicographic order."""
    pairs = list(combinations(range(m), 2))
    rows = [0] * len(pairs)
    for i, p in enumerate(pairs):
        for j, q in enumerate(pairs):
            if p != q and (p[0] in q or p[1] in q):
                rows[i] |= 1 << j
    return rows


def column_graph6(g):
    """graph6 of g by one format and one reversal per upper-triangle
    column, the encoder ``srgddg.graphcore.encode_graph6`` replaces."""
    return pack_graph6(
        g.order, (format(g.rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.order))
    )


def string_transpose(lines):
    """The rows of the transpose of a 0/1 matrix held as one "0"/"1"
    string per row, character y for entry y, by one zip over the strings,
    made one at a time.  Lines shorter than the longest are taken as
    padded with "0"."""
    return map("".join, zip_longest(*lines, fillvalue="0"))


def string_transpose_rows(rows):
    """The transpose of a square bit matrix given by int rows, taken as
    strings by :func:`string_transpose`."""
    fmt = f"0{len(rows)}b"
    return [int(line[::-1], 2) for line in string_transpose([format(row, fmt)[::-1] for row in rows])]


def _bit_field(data, start, width):
    """Bits ``start`` .. ``start + width - 1`` of ``data`` as a "0"/"1"
    string; bit 0 is the high bit of byte 0."""
    end = start + width
    lo, hi = start // 8, -(-end // 8)
    value = int.from_bytes(data[lo:hi], "big") >> (8 * hi - end)
    return format(value & ((1 << width) - 1), f"0{width}b")


_DECODE_BLOCK = 128  # upper-triangle columns transposed at a time


def block_decode_graph6(data):
    """graph6 decoding with the columns of the upper triangle cut as
    strings and transposed by :func:`string_transpose`, a block of
    columns at a time."""
    if isinstance(data, str):
        data = data.encode("ascii", errors="surrogateescape")
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    n, pos = gc._decode_order(data)
    if n == 0:
        raise Graph6Error("order-0 graph6 input not supported", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6Error(
            f"truncated adjacency data: need {nbytes} bytes, have {len(data) - pos}",
            len(data),
        )
    if len(data) - pos > nbytes:
        raise Graph6Error("trailing bytes after adjacency data", pos + nbytes)
    body = data[pos:]
    bad = body.translate(None, gc._G6_BYTES)
    if bad:
        raise Graph6Error(f"invalid graph6 byte {bad[0]:#x}", pos + body.index(bad[0]))
    packed = binascii.a2b_base64(body.translate(gc._G6_TO_B64) + b"A" * (-nbytes % 4))
    if "1" in _bit_field(packed, nbits, 6 * nbytes - nbits):
        raise Graph6Error("nonzero padding bits", pos + nbytes - 1)
    rows = [0] * n
    for lo in range(1, n, _DECODE_BLOCK):
        columns = [_bit_field(packed, j * (j - 1) // 2, j) for j in range(lo, min(lo + _DECODE_BLOCK, n))]
        for j, column in enumerate(columns, lo):
            rows[j] |= int(column[::-1], 2)
        for x, above in enumerate(string_transpose(columns)):
            rows[x] |= int(above[::-1], 2) << lo
    return gc._trusted_graph(n, rows)


def design_axioms(d):
    """Brute-force check of every symmetric 2-design axiom."""
    v, k, lam = d.params
    for i, b in enumerate(d.blocks):
        if b.bit_count() != k:
            return Violation("block size", (i, b.bit_count(), k))
    for p in range(v):
        rep = sum(1 for b in d.blocks if b >> p & 1)
        if rep != k:
            return Violation("point replication", (p, rep, k))
    for p, q in combinations(range(v), 2):
        cov = sum(1 for b in d.blocks if b >> p & 1 and b >> q & 1)
        if cov != lam:
            return Violation("pair coverage", (p, q, cov, lam))
    for i, j in combinations(range(len(d.blocks)), 2):
        meet = (d.blocks[i] & d.blocks[j]).bit_count()
        if meet != lam:
            return Violation("block intersection", (i, j, meet, lam))
    if lam * (v - 1) != k * (k - 1):
        return Violation("counting identity", (v, k, lam))
    return True


def srg_parameter_sets(v_max):
    """Every (v, k, lambda, mu) with v <= v_max, lambda >= 0 and mu >= 1
    whose eigenvalues r >= 1 and s <= -2 are integers, sorted.

    With t = -s: k = mu + rt, lambda = mu + r - t and mu v = (k - r)(k + t)
    = (mu + A)(mu + B) for A = r(t - 1), B = t(r + 1).  So v = mu + A + B
    + AB/mu, convex in mu with least value at least A + B + 2 isqrt(AB),
    which grows with t; past sqrt(AB), v grows with mu.  Integral
    multiplicities are not asked for: that is the library's test.
    """
    out = []
    for r in range(1, v_max):
        for t in range(2, v_max):
            A, B = r * (t - 1), t * (r + 1)
            if A + B + 2 * isqrt(A * B) > v_max:
                break
            for mu in range(max(1, t - r), v_max + 1):
                k = mu + r * t
                v, rem = divmod((k - r) * (k + t), mu)
                if v > v_max and mu * mu >= A * B:
                    break
                if not rem and v <= v_max:
                    out.append((v, k, mu + r - t, mu))
    return sorted(out)


class FirstBestSearch(iso._Search):
    """``iso._Search`` with automorphisms and backjumps taken only from a
    leaf whose certificate is that of the first leaf or of the least leaf
    so far, as nauty does (McKay & Piperno, "Practical graph
    isomorphism, II", 2014).  A repeat of any other certificate is
    searched past.  ``known`` still collects every certificate reached."""

    def leaf(self, cells):
        known = self.known
        cert = iso._leaf_certificate(self.n, self.matrix, [c.bit_length() - 1 for c in cells])
        if cert in known and cert not in (next(iter(known)), min(known)):
            self.leaves += 1
            return
        super().leaf(cells)


def first_best_form(g):
    """(certificate, leaves, generators) of the search by
    :class:`FirstBestSearch`."""
    search = FirstBestSearch(g)
    search.run()
    return min(search.known), search.leaves, tuple(search.autos)


def plain_refine(rows, cells, queue):
    """Equitable refinement of an ordered partition by every queued
    splitter: each popped splitter splits every cell by the number of
    neighbours in it, the sub-cells take the cell's place in ascending
    order of that count, and every sub-cell joins the queue."""
    multi = [i for i, cell in enumerate(cells) if cell & (cell - 1)]
    while queue and multi:
        splitter = queue.pop()
        planes = []
        for u in bits(splitter):
            carry = rows[u]
            for i, plane in enumerate(planes):
                planes[i] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        if not planes:
            continue
        touched = 0
        for plane in planes:
            touched |= plane
        planes.reverse()
        splits = []
        for i in multi:
            cell = cells[i]
            if not cell & touched:
                continue
            parts = [cell]
            for plane in planes:
                if not cell & plane or cell & plane == cell:
                    continue
                split = []
                for part in parts:
                    high = part & plane
                    if high and high != part:
                        split += (part ^ high, high)
                    else:
                        split.append(part)
                parts = split
            if len(parts) > 1:
                splits.append((i, parts))
                queue += parts
        if splits:
            out = []
            start = 0
            for i, parts in splits:
                out += cells[start:i]
                out += parts
                start = i + 1
            cells = out + cells[start:]
            multi = [i for i, cell in enumerate(cells) if cell & (cell - 1)]
    return cells


class PlainSearch(iso._Search):
    """``iso._Search`` refining by :func:`plain_refine`: from the uniform
    partition at the root, and at a child from the parent's cells with
    the target cell cut into v and the rest, both queued."""

    def root(self):
        full = (1 << self.n) - 1
        return plain_refine(self.rows, [full], [full])

    def child(self, cells, t, v):
        new = [1 << v, cells[t] ^ (1 << v)]
        return plain_refine(self.rows, cells[:t] + new + cells[t + 1 :], list(new))
