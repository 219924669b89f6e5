"""Immutable simple graphs on dense 0-based vertices, with bitset adjacency rows.

Every graph in this package is an instance of :class:`Graph`.  Adjacency is
stored as one Python int per vertex, used as a bitset: bit ``y`` of
``g.rows[x]`` is set iff ``x ~ y``.  Row AND + popcount is the workhorse for
all common-neighbour counting, so the representation is chosen for that.

Vertex sets (cocliques, partition classes, induced-subgraph selectors) are
plain int bitsets as well; see :func:`bits`, :func:`mask_of`,
:func:`set_of`.  ``bits`` is the one mask reader, and it has two paths.
A mask wider than 8 bits with at least one bit set in eight is scanned
in C: one ``bin``, one ``bytes.translate`` and one ``itertools.compress``
over ``range(width)``, at a cost that grows with the width.  A sparser
or narrower mask is read by a loop, one Python step per set bit.  Both
stay, because each is the faster one on its side of the switch, which
is where the two cross at widths 16 to 1000 (best of 7 on a 2-core VM,
Python 3.11.7): V∖C of a v = 255 decompose, 240 bits of 240, takes
32.1 µs by the loop and 4.2 µs in C, and a 128-of-255 row 16.7 against
4.0 µs; but the singleton splitters that canonical labeling refines by
would go from 0.32 to 2.5 µs in C (bit 200), and a lone bit 4999, the
breadth-first frontier of ``path(5000)``, from 0.65 to 97 µs.  The C
scan's fixed cost, about 0.6 µs, makes the loop win or tie up to width
8, however dense: ``1 << 3`` takes 0.28 µs by the loop against 0.63 µs
in C, and ``0xFF`` 0.77 against 0.71 µs.

``encode_graph6`` builds one int per block of whole upper-triangle
columns, about 16,384 bits, each column at its offset in the triangle
(j(j - 1)/2 for column j) less the block's.  It formats the int once
and reverses the string once, and ``pack_graph6`` packs it in bounded
pieces, so memory stays small up to ``GRAPH_SIZE_CAP``.  One format and
one reversal per column took 0.244 ms for the v = 240 DDG of Sp(8,2)ᶜ
and 46.8 ms for ``complete(5000)``; a block takes 0.156 and 43.9 ms
(best of 5, measured the same way).

``Graph`` is a frozen dataclass of ``order``, ``rows`` and ``label``,
checked once, where it is built: ``Graph(...)`` checks range and loops
row by row, and symmetry by one comparison of the rows with their
transpose, taken by ``_transpose_bits`` in 128 x 128 tiles of one int
each, all-zero tiles skipped.  Besides the rows it holds a band of 128
rows as bytes, a 2 KB tile, an output buffer of the rows padded to
whole tiles and the transposed rows, about twice the rows again.  The
check of Sp(8,2)ᶜ (v = 255) takes 0.30-0.47 ms, against 1.0-1.2 ms by
one ``zip`` over the rows as "0"/"1" strings, and of Sp(10,2)ᶜ
(v = 1023) 2.7-4.3 against 14-15 ms (best of 11, two runs, 2-core VM,
Python 3.11.7).  ``_trusted_graph`` is the only way round those checks,
for rows that are valid by construction: those of the graph6 decoder,
``induced_subgraph``, ``complete``, ``edgeless``, ``triangular``,
``grid``, ``composition``, ``complement_of`` and ``Graph.with_label``.
``from_edges``, and with it ``cycle`` and ``path``, keeps them.
Unpickling restores the fields of a graph without checking them again.

All generators document a deterministic vertex numbering so results are
reproducible across runs, and refuse an order above ``GRAPH_SIZE_CAP``
before they build a row:

* ``triangular(m)``: vertices are the 2-subsets of {0..m-1} in
  lexicographic order.
* ``grid(a, b)``: vertex (i, j) has index i*b + j (row-major).
* ``petersen()``: Kneser numbering, i.e. triangular(5) complemented.
* ``composition(g1, g2)``: vertex (x1, x2) has index x1*order(g2) + x2.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass, field
from itertools import accumulate, combinations, compress
from typing import Callable, Iterable, Iterator, Sequence

from .errors import Graph6Error, SizeCapExceeded

# A VertexSet is an int bitset over the vertices of a host graph.
VertexSet = int


# the bytes "0" and "1" of bin() as false and true selectors of compress
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def bits(mask: int) -> Iterator[int]:
    """Iterate over the set bit positions of ``mask``, ascending.

    A mask wider than 8 bits with at least one bit set in eight is
    scanned in C, at a cost that grows with its width; a sparser or
    narrower one by :func:`_sparse_bits`, at a cost that grows with its
    set bits (module docstring)."""
    width = mask.bit_length()
    if width <= 8 or mask.bit_count() << 3 < width:
        return _sparse_bits(mask)
    return compress(range(width), bin(mask)[:1:-1].encode().translate(_BIT_SELECTORS))


def _sparse_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> VertexSet:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: VertexSet) -> list[int]:
    """Sorted list of the vertices in a bitset."""
    return list(bits(mask))


# -- bit matrices ------------------------------------------------------
#
# A 0/1 matrix is held as its rows, one int each, bit y of row x for
# entry y; a 128 x 128 tile of it as one int, its row r at bit 128r.

_TILE = 128


def _every(period: int, width: int) -> int:
    """The int with bits 0, period, 2 * period, ... below width."""
    return ((1 << width) - 1) // ((1 << period) - 1)


# round j swaps the entries (r, c) with bit j clear in r and set in c
# with those (r + j, c - j), 127j bits above them: (shift, entries)
_TILE_SWAPS = tuple(
    (127 * j, _every(2 * j * _TILE, _TILE**2) * _every(_TILE, j * _TILE)
     * (_every(2 * j, _TILE) * ((1 << j) - 1) << j))
    for j in (64, 32, 16, 8, 4, 2, 1)
)


def _transpose_bits(rows: Sequence[int]) -> list[int]:
    """The rows of the transpose of the square bit matrix with these rows.

    Each band of 128 rows is written out as bytes, each row padded to
    whole tiles, and each tile of it gathered into one int by two
    strided copies of 8-byte words.  A tile that is not all zero is
    transposed in place by the 7 rounds of masked swaps of Warren,
    Hacker's Delight, 2nd ed., section 7-3, and copied into an output
    buffer the size of the rows, which gives each row by one
    ``from_bytes``."""
    n = len(rows)
    tiles = -(-n // _TILE)
    width = 2 * tiles  # 8-byte words in a padded row
    out = bytearray(8 * width * _TILE * tiles)
    out_words = memoryview(out).cast("Q")
    tile = bytearray(_TILE**2 // 8)
    tile_words = memoryview(tile).cast("Q")
    for i in range(tiles):
        band = b"".join([row.to_bytes(8 * width, "little") for row in rows[i * _TILE : (i + 1) * _TILE]])
        band_words = memoryview(band.ljust(8 * width * _TILE, b"\0")).cast("Q")
        for j in range(tiles):
            tile_words[0::2] = band_words[2 * j :: width]
            tile_words[1::2] = band_words[2 * j + 1 :: width]
            t = int.from_bytes(tile, "little")
            if not t:
                continue
            for shift, mask in _TILE_SWAPS:
                swap = (t ^ t >> shift) & mask
                t ^= swap | swap << shift
            done = memoryview(t.to_bytes(len(tile), "little")).cast("Q")
            start = j * _TILE * width + 2 * i
            out_words[start : start + _TILE * width : width] = done[0::2]
            out_words[start + 1 : start + _TILE * width : width] = done[1::2]
    return [int.from_bytes(out_words[y * width : (y + 1) * width], "little") for y in range(n)]


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple graph, its rows checked once, where it is built.

    Equality and hashing compare order and adjacency only; the optional
    ``label`` is a display tag and never affects semantics.  Unpickling
    restores the fields without checking them again.
    """

    order: int
    rows: tuple[int, ...]
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        order, rows = self.order, tuple(self.rows)
        if order < 1:
            raise ValueError(f"graph order must be >= 1, got {order}")
        if len(rows) != order:
            raise ValueError(f"expected {order} adjacency rows, got {len(rows)}")
        full = (1 << order) - 1
        for x, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"adjacency row {x} has bits outside 0..{order - 1}")
            if row >> x & 1:
                raise ValueError(f"loop at vertex {x}")
        if _transpose_bits(rows) != list(rows):
            x, y = next((x, y) for x, row in enumerate(rows) for y in bits(row) if not rows[y] >> x & 1)
            raise ValueError(f"adjacency not symmetric at pair ({x}, {y})")
        object.__setattr__(self, "rows", rows)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"<Graph{tag} order={self.order} edges={self.num_edges()}>"

    # -- basic queries -------------------------------------------------

    def has_edge(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1)

    def degree(self, x: int) -> int:
        return self.rows[x].bit_count()

    def neighbors(self, x: int) -> Iterator[int]:
        return bits(self.rows[x])

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for x, row in enumerate(self.rows):
            for y in bits(row >> (x + 1) << (x + 1)):
                yield (x, y)

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        degs = self.degrees()
        k = degs[0]
        return k if all(d == k for d in degs) else None

    def _layer_parities(self) -> Iterator[tuple[VertexSet, VertexSet]]:
        """For each connected component, by breadth-first search from the
        least vertex not reached yet: the union of its even layers and
        the union of its odd layers."""
        rows = self.rows
        unseen = (1 << self.order) - 1
        while unseen:
            seen = frontier = unseen & -unseen
            sides = [frontier, 0]
            odd = 1
            while frontier:
                reach = 0
                for v in bits(frontier):
                    reach |= rows[v]
                frontier = reach & ~seen
                seen |= frontier
                sides[odd] |= frontier
                odd ^= 1
            unseen &= ~seen
            yield sides[0], sides[1]

    def components(self) -> int:
        """The number of connected components."""
        return sum(1 for _ in self._layer_parities())

    def bipartite_side(self) -> VertexSet | None:
        """A side X of a bipartition, the smaller colour class of each
        component, or None if the graph has an odd cycle.

        An edge of a breadth-first search joins two vertices of one layer
        or of adjacent layers, so a component is bipartite exactly when
        neither its even nor its odd layers hold an edge; its 2-colouring
        is then unique up to swapping the two.  X holds no vertex of an
        isolated component, and is empty only for an edgeless graph."""
        rows = self.rows
        side = 0
        for even, odd in self._layer_parities():
            if any(rows[v] & part for part in (even, odd) for v in bits(part)):
                return None
            side |= min(even, odd, key=int.bit_count)
        return side

    def is_connected(self) -> bool:
        return self.components() == 1

    def common_neighbors(self, x: int, y: int) -> int:
        return (self.rows[x] & self.rows[y]).bit_count()

    def with_label(self, label: str | None) -> "Graph":
        return _trusted_graph(self.order, self.rows, label)


def from_edges(order: int, edges: Iterable[tuple[int, int]], label: str | None = None) -> Graph:
    rows = [0] * order
    for x, y in edges:
        if x == y:
            raise ValueError(f"loop at vertex {x}")
        if not (0 <= x < order and 0 <= y < order):
            raise ValueError(f"edge ({x}, {y}) out of range for order {order}")
        rows[x] |= 1 << y
        rows[y] |= 1 << x
    return Graph(order, rows, label)


def adjacency_matrix(g: Graph) -> list[list[int]]:
    """Dense 0/1 adjacency matrix as nested lists of Python ints."""
    return [[g.rows[x] >> y & 1 for y in range(g.order)] for x in range(g.order)]


# -- generators --------------------------------------------------------

# n bitset rows and, to check or decode them, about twice their bytes again
# (complete(5000): an 8.8 MB peak for 3.5 MB of rows): memory grows as n^2
GRAPH_SIZE_CAP = 5000


def check_order(n: int) -> None:
    """Refuse a generated graph of order n above GRAPH_SIZE_CAP."""
    if n > GRAPH_SIZE_CAP:
        try:
            order = str(n)
        except ValueError:  # too many digits to print: name a power of 2 below n
            order = f"over 2^{(n - 1).bit_length() - 1}"
        raise SizeCapExceeded(f"graph on {order} vertices exceeds cap {GRAPH_SIZE_CAP}")


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete(n) needs n >= 1")
    check_order(n)
    full = (1 << n) - 1
    return _trusted_graph(n, [full ^ (1 << v) for v in range(n)], f"K{n}")


def edgeless(n: int) -> Graph:
    if n < 1:
        raise ValueError("edgeless(n) needs n >= 1")
    check_order(n)
    return _trusted_graph(n, [0] * n, f"empty{n}")


def complement_of(g: Graph) -> Graph:
    full = (1 << g.order) - 1
    return _trusted_graph(g.order, [full ^ row ^ (1 << v) for v, row in enumerate(g.rows)])


def triangular(m: int) -> Graph:
    """Triangular graph T(m): 2-subsets of {0..m-1}, adjacent iff they meet.

    Vertices are numbered by lexicographic order of the pairs.
    """
    if m < 3:
        raise ValueError("triangular(m) needs m >= 3")
    n = m * (m - 1) // 2
    check_order(n)
    # {a, b} meets the pairs through a or b, and is the one pair through both
    through = [0] * m
    for i, (a, b) in enumerate(combinations(range(m), 2)):
        through[a] |= 1 << i
        through[b] |= 1 << i
    return _trusted_graph(n, [through[a] ^ through[b] for a, b in combinations(range(m), 2)], f"T({m})")


def petersen() -> Graph:
    """Petersen graph: 2-subsets of {0..4}, adjacent iff disjoint."""
    return complement_of(triangular(5)).with_label("Petersen")


def grid(a: int, b: int) -> Graph:
    """Rook's graph on an a x b board; (i, j) is vertex i*b + j."""
    if a < 1 or b < 1:
        raise ValueError("grid(a, b) needs a, b >= 1")
    check_order(a * b)
    # (i, j) sees board row i and column j, which meet only at (i, j)
    line = (1 << b) - 1
    column = mask_of(range(0, a * b, b))
    rows = [(line << i * b) ^ (column << j) for i in range(a) for j in range(b)]
    return _trusted_graph(a * b, rows, f"grid({a},{b})")


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle(n) needs n >= 3")
    check_order(n)
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)], f"C{n}")


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path(n) needs n >= 1")
    check_order(n)
    return from_edges(n, [(i, i + 1) for i in range(n - 1)], f"P{n}")


# -- operations --------------------------------------------------------


def composition(g1: Graph, g2: Graph) -> Graph:
    """Composition (lexicographic product) g1[g2].

    (x1, x2) ~ (y1, y2) iff x1 ~ y1 in g1, or x1 = y1 and x2 ~ y2 in g2.
    Vertex (x1, x2) gets index x1*order(g2) + x2.
    """
    n1, n2 = g1.order, g2.order
    block_full = (1 << n2) - 1
    rows = []
    for x1 in range(n1):
        outer = 0
        for y1 in bits(g1.rows[x1]):
            outer |= block_full << (y1 * n2)
        for x2 in range(n2):
            rows.append(outer | (g2.rows[x2] << (x1 * n2)))
    return _trusted_graph(n1 * n2, rows)


def _trusted_graph(order: int, rows: Iterable[int], label: str | None = None) -> Graph:
    """A Graph from rows known to be valid (in range, loop-free and
    symmetric), skipping the checks of ``Graph``."""
    g = object.__new__(Graph)
    object.__setattr__(g, "order", order)
    object.__setattr__(g, "rows", tuple(rows))
    object.__setattr__(g, "label", label)
    return g


def _squeeze(keep: VertexSet) -> Callable[[int], int]:
    """The map taking a mask to the mask whose bit j is the bit of it at
    the j-th smallest position of ``keep``: a renumbering onto the kept
    bits, ascending.

    The kept positions fall into runs of consecutive bits, and a run
    moves down by the number of dropped bits below it, so the map is one
    ``(mask & run) >> shift`` per run.  Its cost grows with the number of
    runs, not with the width of the mask: the c + 1 runs left around a
    coclique of c vertices are cheap, while a keep set that alternates
    bit by bit pays one step per kept bit."""
    steps = []
    kept = 0
    while keep:
        low = (keep & -keep).bit_length() - 1
        above = keep >> low
        length = ((above + 1) & ~above).bit_length() - 1
        run = ((1 << length) - 1) << low
        steps.append((run, low - kept))
        kept += length
        keep ^= run

    def squeeze(mask: int) -> int:
        out = 0
        for run, shift in steps:
            out |= (mask & run) >> shift
        return out

    return squeeze


def induced_subgraph(g: Graph, keep: VertexSet) -> Graph:
    """Subgraph induced on the vertices of ``keep``.

    Vertices are renumbered by ascending original index, each row by one
    masked shift per run of consecutive kept vertices (:func:`_squeeze`).
    """
    if keep == 0:
        raise ValueError("induced_subgraph: empty vertex set")
    if keep & ~((1 << g.order) - 1):
        raise ValueError("induced_subgraph: vertex set exceeds graph order")
    squeeze = _squeeze(keep)
    rows = g.rows
    # an induced subgraph of a valid graph is valid
    return _trusted_graph(keep.bit_count(), [squeeze(rows[x]) for x in bits(keep)])


# -- graph6 ------------------------------------------------------------
#
# Bit-exact implementation of the published graph6 byte format: the
# vertex count N(n), then the upper triangle of the adjacency matrix in
# column order x(0,1), x(0,2), x(1,2), x(0,3), ..., packed into 6-bit
# groups (first bit is the high bit), each group offset by 63.
#
# A 6-bit group offset by 63 is a base64 digit under a byte translation,
# so both directions run through ``binascii``: no Python loop visits a
# bit.  The decoder cuts the bits into the columns of the upper triangle,
# the rows below the diagonal, and ORs in their transpose, so its rows
# are symmetric by construction and skip the checks of ``Graph``.

_G6_MAX = 68719476735  # 2^36 - 1


def _encode_order(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return b"~" + bytes([(n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    if n <= _G6_MAX:
        return b"~~" + bytes([(n >> sh & 63) + 63 for sh in (30, 24, 18, 12, 6, 0)])
    raise ValueError(f"graph6 cannot encode order {n}")


# the base64 alphabet mapped onto the graph6 bytes 63..126, and back
_G6_BYTES = bytes(range(63, 127))
_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_G6 = bytes.maketrans(_B64_ALPHABET, _G6_BYTES)
_G6_TO_B64 = bytes.maketrans(_G6_BYTES, _B64_ALPHABET)


_PACK_PIECE = 6144  # bits packed at a time by pack_graph6


def _pack_bits(text: str) -> bytes:
    """graph6 bytes of a "0"/"1" string whose length is a multiple of 24."""
    data = int(text, 2).to_bytes(len(text) // 8, "big")
    return binascii.b2a_base64(data, newline=False).translate(_B64_TO_G6)


def pack_graph6(n: int, columns: Iterable[str]) -> bytes:
    """graph6 of an n-vertex graph from the columns of its upper
    triangle: column j is a string of j characters "0"/"1", the i-th
    for x(i, j), and a string may hold several consecutive columns.

    ``binascii`` packs the bits 24 at a time, and its 6-bit groups are then
    moved to the graph6 range.  Columns are packed a few thousand bits at
    a time, so memory stays small for any n."""
    out = [_encode_order(n)]
    held: list[str] = []
    size = 0
    for column in columns:
        held.append(column)
        size += len(column)
        if size >= _PACK_PIECE:
            text = "".join(held)
            cut = size - size % 24
            out.append(_pack_bits(text[:cut]))
            held = [text[cut:]]
            size -= cut
    if size:
        text = "".join(held)
        out.append(_pack_bits(text + "0" * (-size % 24))[: (size + 5) // 6])
    return b"".join(out)


_ENCODE_BLOCK = 1 << 14  # upper-triangle bits held in one int by encode_graph6


def encode_graph6(g: Graph) -> bytes:
    return pack_graph6(g.order, _upper_blocks(g.rows))


def _upper_blocks(rows: tuple[int, ...]) -> Iterator[str]:
    """The upper triangle in column order, as "0"/"1" strings of whole
    columns, about _ENCODE_BLOCK bits each: one int per block, each
    column at its offset in the triangle less the block's, formatted
    once and reversed once.  Each column is or-ed into an int as wide
    as the block so far, so a much larger block costs more
    (complete(5000): 66 ms with blocks of 2^20 bits)."""
    n = len(rows)
    j = 1
    while j < n:
        block = width = 0
        while j < n and width < _ENCODE_BLOCK:
            block |= (rows[j] & ((1 << j) - 1)) << width
            width += j
            j += 1
        yield format(block, f"0{width}b")[::-1]


def _decode_order(data: bytes) -> tuple[int, int]:
    """Return (order, bytes consumed)."""
    if not data:
        raise Graph6Error("empty graph6 input", 0)
    b0 = data[0]
    if b0 != 126:
        if not 63 <= b0 <= 125:
            raise Graph6Error(f"invalid graph6 byte {b0:#x}", 0)
        return b0 - 63, 1
    # the 4-byte field is 126 and 3 digits of 6 bits, the 8-byte one 126,
    # 126 and 6 digits: width // 4 bytes of 126 before the digits
    width = 8 if len(data) >= 2 and data[1] == 126 else 4
    if len(data) < width:
        raise Graph6Error(f"truncated {width}-byte order field", len(data))
    n = 0
    for off in range(width // 4, width):
        if not 63 <= data[off] <= 126:
            raise Graph6Error(f"invalid graph6 byte {data[off]:#x}", off)
        n = n << 6 | (data[off] - 63)
    return n, width


# each byte to the byte with its bits in reverse order
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def decode_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 line (without trailing newline)."""
    if isinstance(data, str):
        data = data.encode("ascii", errors="surrogateescape")
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    n, pos = _decode_order(data)
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
    bad = body.translate(None, _G6_BYTES)
    if bad:
        raise Graph6Error(f"invalid graph6 byte {bad[0]:#x}", pos + body.index(bad[0]))
    packed = binascii.a2b_base64(body.translate(_G6_TO_B64) + b"A" * (-nbytes % 4))
    # bit t of the triangle as bit t % 8 of byte t // 8, not the high bit
    triangle = packed.translate(_REVERSED_BITS)
    # the padding fills part of the last byte only
    if int.from_bytes(triangle[nbits >> 3 :], "little") >> (nbits & 7):
        raise Graph6Error("nonzero padding bits", pos + nbytes - 1)
    # column j, x(0, j) .. x(j - 1, j) from bit j(j - 1)/2 on, is row j
    # below the diagonal, and entry j of rows 0 .. j - 1 above it
    lower = [
        int.from_bytes(triangle[t >> 3 : (t + j + 7) >> 3], "little") >> (t & 7) & ((1 << j) - 1)
        for j, t in enumerate(accumulate(range(n - 1), initial=0))
    ]
    del body, packed, triangle  # the transpose holds the rows, not these
    # built symmetric, loop-free and in range
    return _trusted_graph(n, map(int.__or__, lower, _transpose_bits(lower)))
