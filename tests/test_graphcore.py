import pickle
import random
import time
from itertools import combinations, compress

import pytest

from srgddg import galois, graphcore as gc
from srgddg.errors import Graph6Error, SizeCapExceeded

from oracles import (
    block_decode_graph6,
    column_graph6,
    string_transpose_rows,
    symplectic_rows,
    triangular_rows,
)


def random_graph(n, p, rng):
    edges = [(x, y) for x, y in combinations(range(n), 2) if rng.random() < p]
    return gc.from_edges(n, edges)


def keep_sets(n, rng):
    """Seeded keep sets of width n: random ones, ones through bit 0 and
    bit n - 1, all, single vertices, alternating bits, and a few long
    runs."""
    full = (1 << n) - 1
    alternating = full // 3  # 0b...0101
    yield from (rng.getrandbits(n) or 1 for _ in range(5))
    yield rng.getrandbits(n) | 1 | 1 << (n - 1)
    yield full
    yield from {1, 1 << (n - 1), 1 << rng.randrange(n)}
    yield from {alternating or 1, (alternating << 1) & full or 1}
    cuts = sorted(rng.sample(range(n + 1), min(n + 1, 4)))
    yield sum(((1 << hi) - (1 << lo) for lo, hi in zip(cuts[::2], cuts[1::2])), 0) or full


def bit_positions(mask, width):
    """The set bits of a mask of the given width, one test per position."""
    return [y for y in range(width) if mask >> y & 1]


# -- oracles: the per-bit decoder and the per-edge symmetry check, against
# -- which the decoder and the checks of Graph in graphcore are tested


def bit_loop_decode(data):
    """graph6 decoding one bit at a time."""
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
    rows = [0] * n
    bit = 0
    i, j = 0, 1  # column-order upper triangle position
    for off in range(pos, pos + nbytes):
        byte = data[off]
        if not 63 <= byte <= 126:
            raise Graph6Error(f"invalid graph6 byte {byte:#x}", off)
        group = byte - 63
        for sh in (5, 4, 3, 2, 1, 0):
            if bit >= nbits:
                if group >> sh & 1:
                    raise Graph6Error("nonzero padding bits", off)
                continue
            if group >> sh & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return gc.Graph(n, rows)


def edge_loop_error(order, rows):
    """The message Graph(order, rows) must raise, found edge by edge, or
    None for valid rows of the right count."""
    full = (1 << order) - 1
    for x, row in enumerate(rows):
        if row & ~full:
            return f"adjacency row {x} has bits outside 0..{order - 1}"
        if row >> x & 1:
            return f"loop at vertex {x}"
    for x, row in enumerate(rows):
        for y in gc.bits(row):
            if not rows[y] >> x & 1:
                return f"adjacency not symmetric at pair ({x}, {y})"
    return None


def outcome(decode, data):
    """The rows decoded, or the error message and offset."""
    try:
        return decode(data).rows
    except Graph6Error as exc:
        return str(exc), exc.offset


class TestGraphInvariants:
    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            gc.Graph(2, [0b01, 0b10])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            gc.Graph(2, [0b10, 0b00])

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError, match="outside"):
            gc.Graph(2, [0b100, 0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gc.Graph(0, [])

    def test_equality_ignores_label(self):
        assert gc.complete(3) == gc.Graph(3, gc.complete(3).rows, "other")

    def test_immutability(self):
        g = gc.complete(3)
        with pytest.raises(AttributeError):
            g.order = 5

    def test_pickle_roundtrip(self):
        g = gc.petersen()
        assert pickle.loads(pickle.dumps(g)) == g

    def test_unpickling_does_not_check_again(self, monkeypatch):
        # the fields are restored as they were pickled, not rebuilt
        # through Graph(...)
        g = gc.petersen()
        data = pickle.dumps(g)

        def refuse(*args):
            raise AssertionError("unpickled graph checked again")

        monkeypatch.setattr(gc.Graph, "__init__", refuse)
        monkeypatch.setattr(gc, "_transpose_bits", refuse)
        back = pickle.loads(data)
        assert back == g and back.label == "Petersen" and type(back.rows) is tuple

    def test_generators_produce_valid_graphs(self):
        # rows built without the checks of Graph pass them
        for g in [gc.petersen(), gc.triangular(5), gc.grid(3, 4), gc.complete(6),
                  gc.edgeless(4), gc.cycle(7), gc.path(4), gc.composition(gc.cycle(5), gc.path(3)),
                  galois.symplectic_complement(2, galois.field_by_order(4))]:
            assert gc.Graph(g.order, g.rows) == g


    def test_components_against_union_find(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(rng.randint(1, 30), rng.choice([0.02, 0.06, 0.15]), rng)
            parent = list(range(g.order))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for x, y in g.edges():
                parent[find(x)] = find(y)
            count = len({find(x) for x in range(g.order)})
            assert g.components() == count
            assert g.is_connected() == (count == 1)

    def test_bipartite_side_against_brute_force(self):
        # a proper 2-colouring exists exactly when the side is found, and
        # the side is a least colour class over every proper 2-colouring
        rng = random.Random(41)
        graphs = [random_graph(rng.randint(1, 10), rng.choice([0.1, 0.2, 0.4]), rng)
                  for _ in range(150)]
        graphs += [gc.cycle(6), gc.cycle(7), gc.path(5), gc.edgeless(3), gc.grid(3, 4)]
        kinds = set()
        for g in graphs:
            full = (1 << g.order) - 1
            proper = [x for x in range(1 << g.order)
                      if not any(x >> a & 1 == x >> b & 1 for a, b in g.edges())]
            side = g.bipartite_side()
            kinds.add(side is None)
            if side is None:
                assert not proper, g
            else:
                assert side in proper and side & ~full == 0, g
                assert side.bit_count() == min(x.bit_count() for x in proper), g
        assert kinds == {True, False}
        assert gc.cycle(6).bipartite_side() == 0b10101
        assert gc.edgeless(4).bipartite_side() == 0


class TestGenerators:
    def test_petersen_shape(self):
        p = gc.petersen()
        assert p.order == 10
        assert set(p.degrees()) == {3}
        # girth 5: no triangles, no 4-cycles through common pairs
        for x in range(10):
            for y in range(x + 1, 10):
                assert p.common_neighbors(x, y) <= 1

    def test_triangular_6(self):
        t = gc.triangular(6)
        assert t.order == 15
        assert set(t.degrees()) == {8}

    def test_triangular_degree_formula(self):
        for m in (3, 5, 7):
            assert set(gc.triangular(m).degrees()) == {2 * (m - 2)}

    def test_triangular_vs_pairwise_oracle(self):
        for m in range(3, 41):
            assert gc.triangular(m).rows == tuple(triangular_rows(m)), m

    def test_triangular_near_the_cap_is_fast(self):
        # T(100), order 4,950, from the 2(m - 2) neighbours of each vertex;
        # testing all pairs took seconds
        start = time.perf_counter()
        t = gc.triangular(100)
        assert time.perf_counter() - start < 2
        assert t.order == 4950 and set(t.degrees()) == {196}

    def test_valid_rows_skip_the_checks(self, monkeypatch):
        # rows symmetric, loop-free and in range by construction are not
        # checked again; each builder still gives its oracle's rows
        def by_pairs(n, adjacent):
            return [sum(1 << y for y in range(n) if y != x and adjacent(x, y)) for x in range(n)]

        g1, g2, pet = gc.cycle(5), gc.path(3), gc.petersen()
        F = galois.field_by_order(3)
        cases = [
            (lambda: gc.complete(6), by_pairs(6, lambda x, y: True)),
            (lambda: gc.edgeless(4), [0] * 4),
            (lambda: gc.triangular(7), triangular_rows(7)),
            (lambda: gc.grid(3, 4), by_pairs(12, lambda x, y: x // 4 == y // 4 or x % 4 == y % 4)),
            (lambda: gc.grid(1, 5), by_pairs(5, lambda x, y: True)),
            (lambda: gc.grid(5, 1), by_pairs(5, lambda x, y: True)),
            (lambda: gc.grid(7, 3), by_pairs(21, lambda x, y: x // 3 == y // 3 or x % 3 == y % 3)),
            (lambda: gc.composition(g1, g2), by_pairs(
                15, lambda x, y: g1.has_edge(x // 3, y // 3) or (x // 3 == y // 3 and g2.has_edge(x % 3, y % 3)))),
            (lambda: gc.complement_of(pet), by_pairs(10, lambda x, y: not pet.has_edge(x, y))),
            (lambda: pet.with_label("relabelled"), list(pet.rows)),
            (lambda: galois.symplectic_complement(2, F), symplectic_rows(2, F)),
        ]

        def refuse(self, *args):
            raise AssertionError("valid rows checked again")

        monkeypatch.setattr(gc.Graph, "__init__", refuse)
        for build, want in cases:
            assert list(build().rows) == want
        assert pet.with_label("relabelled").label == "relabelled"

    def test_triangular_needs_m3(self):
        with pytest.raises(ValueError):
            gc.triangular(2)

    def test_grid_66(self):
        g = gc.grid(6, 6)
        assert g.order == 36
        assert set(g.degrees()) == {10}

    def test_grid_rows_are_cliques(self):
        g = gc.grid(3, 4)
        for i in range(3):
            for j1, j2 in combinations(range(4), 2):
                assert g.has_edge(i * 4 + j1, i * 4 + j2)

    def test_complement_involution(self):
        rng = random.Random(42)
        for _ in range(10):
            g = random_graph(9, 0.4, rng)
            assert gc.complement_of(gc.complement_of(g)) == g

    def test_order_cap_boundary(self):
        gc.check_order(gc.GRAPH_SIZE_CAP)
        with pytest.raises(SizeCapExceeded, match="graph on 5001 vertices exceeds cap 5000"):
            gc.check_order(gc.GRAPH_SIZE_CAP + 1)

    def test_order_cap_names_an_unprintable_order(self):
        # an order of more than 4,300 digits cannot be formatted; the
        # message names a power of 2 below it
        with pytest.raises(SizeCapExceeded, match=r"^graph on over 2\^14616 vertices exceeds cap 5000$"):
            gc.check_order((10**2200 - 1) ** 2)
        with pytest.raises(SizeCapExceeded, match=r"^graph on over 2\^19999 vertices exceeds cap 5000$"):
            gc.check_order(2**20000)
        with pytest.raises(SizeCapExceeded, match=r"^graph on over 2\^20000 vertices exceeds cap 5000$"):
            gc.check_order(2**20000 + 1)


class TestComposition:
    def test_identity_case(self):
        g = gc.petersen()
        assert gc.composition(g, gc.edgeless(1)) == g

    def test_k2_with_empty2_is_c4(self):
        got = gc.composition(gc.complete(2), gc.edgeless(2))
        assert got == gc.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert set(got.degrees()) == {2}

    def test_degree_formula(self):
        rng = random.Random(1)
        g1 = random_graph(5, 0.5, rng)
        g2 = random_graph(4, 0.5, rng)
        comp = gc.composition(g1, g2)
        for x1 in range(5):
            for x2 in range(4):
                want = g1.degree(x1) * 4 + g2.degree(x2)
                assert comp.degree(x1 * 4 + x2) == want

    def test_brute_force_small(self):
        rng = random.Random(2)
        g1 = random_graph(3, 0.6, rng)
        g2 = random_graph(3, 0.6, rng)
        comp = gc.composition(g1, g2)
        for (x1, x2) in [(a, b) for a in range(3) for b in range(3)]:
            for (y1, y2) in [(a, b) for a in range(3) for b in range(3)]:
                if (x1, x2) == (y1, y2):
                    continue
                want = g1.has_edge(x1, y1) or (x1 == y1 and g2.has_edge(x2, y2))
                assert comp.has_edge(x1 * 3 + x2, y1 * 3 + y2) == want


class TestBits:
    """bits and set_of against one test per position, on both sides of
    the switch between the C scan and the per-bit loop."""

    def test_keep_sets(self):
        rng = random.Random(32)
        for n in range(1, 301):
            for mask in keep_sets(n, rng):
                assert list(gc.bits(mask)) == gc.set_of(mask) == bit_positions(mask, n)

    def test_width_5000(self):
        rng = random.Random(5000)
        w = 5000
        top = 1 << (w - 1)

        def with_top(k):
            return top | sum(1 << y for y in rng.sample(range(w - 1), k - 1))

        # 625 bits are one in eight of the width: the sparsest mask that
        # is scanned in C; 624 are read by the loop
        at_switch = [with_top(k) for k in (623, 624, 625, 626)]
        masks = [top, 2 | 1 << (w - 2), ((1 << w) - 1) // 3, with_top(w // 2), 0, *at_switch]
        for mask in masks:
            assert list(gc.bits(mask)) == gc.set_of(mask) == bit_positions(mask, w)
        assert [isinstance(gc.bits(m), compress) for m in at_switch] == [False, False, True, True]

    def test_narrow_masks_take_the_loop(self):
        # the C scan's fixed cost loses up to width 8, however dense
        narrow = [1 << 3, 0xFF, 0x80, 0b1011, 1]
        wide = [0x1FF, 0x100 | 0x80, (1 << 16) - 1]
        for mask in narrow + wide:
            assert list(gc.bits(mask)) == bit_positions(mask, mask.bit_length())
        assert [isinstance(gc.bits(m), compress) for m in narrow + wide] == [False] * 5 + [True] * 3


class TestInducedSubgraph:
    def test_identity(self):
        g = gc.petersen()
        assert gc.induced_subgraph(g, (1 << 10) - 1) == g

    def test_coclique_induces_edgeless(self):
        p = gc.petersen()
        # {0,1}, {0,2}, {0,3}, {0,4} pairwise meet, so Kneser-independent
        keep = gc.mask_of([0, 1, 2, 3])
        assert gc.induced_subgraph(p, keep) == gc.edgeless(4)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            gc.induced_subgraph(gc.complete(3), 0)

    def test_renumbering_ascending(self):
        g = gc.path(4)  # 0-1-2-3
        sub = gc.induced_subgraph(g, gc.mask_of([1, 3]))
        assert sub.order == 2 and sub.num_edges() == 0
        sub2 = gc.induced_subgraph(g, gc.mask_of([2, 3]))
        assert sub2 == gc.complete(2)

    def test_matching_complement_in_t6(self):
        # remove a perfect-matching coclique: 12 vertices, 6-regular
        t = gc.triangular(6)
        pairs = list(combinations(range(6), 2))
        cocl = gc.mask_of([pairs.index(p) for p in [(0, 1), (2, 3), (4, 5)]])
        sub = gc.induced_subgraph(t, (1 << 15) - 1 ^ cocl)
        assert sub.order == 12
        assert set(sub.degrees()) == {6}

    def test_squeeze_against_bit_loop(self):
        # widths 1 to 300 cross the 30-bit digits of CPython ints and
        # 64-bit words
        rng = random.Random(30)
        for n in range(1, 301):
            for keep in keep_sets(n, rng):
                old = bit_positions(keep, n)
                squeeze = gc._squeeze(keep)
                for mask in (0, keep, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n)):
                    assert squeeze(mask) == sum((mask >> y & 1) << j for j, y in enumerate(old))

    def test_against_bit_loop(self):
        rng = random.Random(11)
        for n in (1, 2, 7, 29, 30, 31, 63, 64, 65, 130):
            g = gc.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
            for keep in keep_sets(n, rng):
                old = bit_positions(keep, n)
                rows = [
                    sum((g.rows[x] >> y & 1) << j for j, y in enumerate(old)) for x in old
                ]
                assert gc.induced_subgraph(g, keep) == gc.Graph(len(old), rows)


class TestGraph6:
    def test_single_vertex_is_at(self):
        assert gc.encode_graph6(gc.edgeless(1)) == b"@"

    def test_petersen_roundtrip(self):
        p = gc.petersen()
        assert gc.decode_graph6(gc.encode_graph6(p)) == p

    def test_malformed_input(self):
        with pytest.raises(Graph6Error):
            gc.decode_graph6(b"garbage\x01")

    def test_error_carries_offset(self):
        try:
            gc.decode_graph6(bytes([70, 1, 1, 1]))
        except Graph6Error as exc:
            assert exc.offset is not None

    def test_truncated(self):
        full = gc.encode_graph6(gc.petersen())
        with pytest.raises(Graph6Error, match="truncated"):
            gc.decode_graph6(full[:-1])

    def test_trailing_garbage(self):
        full = gc.encode_graph6(gc.petersen())
        with pytest.raises(Graph6Error, match="trailing"):
            gc.decode_graph6(full + b"??")

    def test_header_tolerated(self):
        p = gc.petersen()
        assert gc.decode_graph6(b">>graph6<<" + gc.encode_graph6(p)) == p

    def test_order_zero_rejected(self):
        with pytest.raises(Graph6Error, match="order-0"):
            gc.decode_graph6(b"?")

    def test_order_63_uses_long_form(self):
        g = gc.edgeless(63)
        enc = gc.encode_graph6(g)
        assert enc.startswith(b"~") and gc.decode_graph6(enc) == g

    def test_random_roundtrips(self):
        rng = random.Random(99)
        for n in (1, 2, 5, 13, 40, 70):
            for _ in range(5):
                g = random_graph(n, rng.random(), rng)
                assert gc.decode_graph6(gc.encode_graph6(g)) == g

    def test_matches_networkx_bytes(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(5)
        for n in (4, 9, 27, 64):
            g = random_graph(n, 0.45, rng)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(h).strip().removeprefix(b">>graph6<<")
            assert gc.encode_graph6(g) == theirs

    def test_decode_networkx_output(self):
        nx = pytest.importorskip("networkx")
        h = nx.petersen_graph()
        data = nx.to_graph6_bytes(h).strip()
        g = gc.decode_graph6(data)
        assert sorted(g.edges()) == sorted(tuple(sorted(e)) for e in h.edges())

    def test_medium_order_field(self):
        g = gc.edgeless(100)  # needs the 4-byte order prefix
        enc = gc.encode_graph6(g)
        assert enc.startswith(b"~")
        assert gc.decode_graph6(enc) == g


class TestEncoderAgainstColumnLoop:
    """encode_graph6 byte for byte against the per-column encoder of
    ``oracles.column_graph6``: orders 1 to 300 cross the edges of its
    blocks of columns, and 1023 and 5000 cross those of its blocks and
    of pack_graph6's pieces many times."""

    # each byte to the 6-bit graph6 digit of its low bits
    DIGITS = bytes(63 + (b & 63) for b in range(256))

    @classmethod
    def random_graph6(cls, n, rng):
        """A seeded random graph6 line of order n, its padding bits zero."""
        nbits = n * (n - 1) // 2
        body = bytearray(rng.randbytes((nbits + 5) // 6).translate(cls.DIGITS))
        if nbits % 6:
            body[-1] = 63 + ((body[-1] - 63) >> (6 - nbits % 6) << (6 - nbits % 6))
        return gc._encode_order(n) + bytes(body)

    def check(self, n, rng):
        for g in (gc.complete(n), gc.edgeless(n)):
            assert gc.encode_graph6(g) == column_graph6(g)
        data = self.random_graph6(n, rng)
        g = gc.decode_graph6(data)
        assert gc.encode_graph6(g) == column_graph6(g) == data

    def test_orders_1_to_300(self):
        rng = random.Random(6)
        for n in range(1, 301):
            self.check(n, rng)

    def test_orders_1023_and_5000(self):
        rng = random.Random(1023)
        for n in (1023, 5000):
            self.check(n, rng)


class TestTileTransposeAgainstStrings:
    """_transpose_bits and decode_graph6 against the string transposer
    and the block-wise decoder of ``oracles``, on rows of densities 0,
    1/2 and 1: orders 1 to 300 cross the first tile edges, and 1023,
    4369 and 5000 end inside, near and at the cap."""

    ORDERS = (*range(1, 301), 1023, 4369, 5000)

    def test_transpose(self):
        rng = random.Random(128)
        for n in self.ORDERS:
            for rows in ([0] * n, [rng.getrandbits(n) for _ in range(n)], [(1 << n) - 1] * n):
                assert gc._transpose_bits(rows) == string_transpose_rows(rows)

    def test_decoder(self):
        rng = random.Random(129)
        for n in self.ORDERS:
            for data in (
                gc.encode_graph6(gc.edgeless(n)),
                TestEncoderAgainstColumnLoop.random_graph6(n, rng),
                gc.encode_graph6(gc.complete(n)),
            ):
                assert gc.decode_graph6(data).rows == block_decode_graph6(data).rows


@pytest.fixture(scope="module")
def sp10_2():
    return galois.symplectic_complement(5, galois.fieldspec(2, 1))


class TestDecoderAgainstBitLoop:
    # 127, 128 and 129 (and 255, 256 and 257) rows of the triangle end a
    # row before a tile edge of the transpose, on it and a row past it
    ORDERS = (1, 2, 3, 62, 63, 64, 65, 127, 128, 129, 130, 255, 256, 257)

    def graphs(self):
        rng = random.Random(2024)
        for n in self.ORDERS:
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                yield random_graph(n, p, rng)

    def test_random_graphs(self):
        for g in self.graphs():
            data = gc.encode_graph6(g)
            got = gc.decode_graph6(data)
            assert got == bit_loop_decode(data) == g
            assert got.label is None

    def test_sp10_2(self, sp10_2):
        data = gc.encode_graph6(sp10_2)
        assert gc.decode_graph6(data) == bit_loop_decode(data) == sp10_2

    def test_matches_networkx_decoder(self, sp10_2):
        nx = pytest.importorskip("networkx")
        for g in [*self.graphs(), sp10_2]:
            data = gc.encode_graph6(g)
            h = nx.from_graph6_bytes(data)
            got = gc.decode_graph6(data)
            assert got.order == h.number_of_nodes()
            assert sorted(got.edges()) == sorted(tuple(sorted(e)) for e in h.edges())

    def same_error(self, data):
        want = outcome(bit_loop_decode, data)
        assert isinstance(want, tuple), data
        assert outcome(gc.decode_graph6, data) == want

    def test_invalid_body_byte(self):
        for n in (5, 13, 64, 130):
            data = gc.encode_graph6(random_graph(n, 0.5, random.Random(n)))
            pos = 1 if n < 63 else 4
            for off in (pos, (pos + len(data)) // 2, len(data) - 1):
                for bad in (0x00, 0x0A, 0x3E, 0x7F, 0xFF):
                    self.same_error(data[:off] + bytes([bad]) + data[off + 1:])
            # of two bad bytes the first is reported
            self.same_error(data[:pos] + b"\x7f" + data[pos + 1:-1] + b"\x20")
            self.same_error(data[:pos + 1] + b"\x7f" + data[pos + 2:-1] + b"\x7f")

    def test_nonzero_padding(self):
        # n(n-1)/2 mod 6 is one of 0, 1, 3, 4, so the padding is 0, 5, 3
        # or 2 bits wide; a width of 1 or 4 cannot occur
        widths = set()
        for n in range(2, 40):
            width = -(n * (n - 1) // 2) % 6
            widths.add(width)
            data = gc.encode_graph6(random_graph(n, 0.5, random.Random(n)))
            assert outcome(gc.decode_graph6, data) == outcome(bit_loop_decode, data)
            for pad in range(1, 1 << width):
                self.same_error(data[:-1] + bytes([(data[-1] - 63 | pad) + 63]))
        assert widths == {0, 2, 3, 5}

    def test_framing_errors(self):
        data = gc.encode_graph6(random_graph(70, 0.5, random.Random(3)))
        for bad in (
            b"", b"?", b"~", b"~?", b"~??", b"~~", b"~~??", b"~~???????",
            b"\x01", b"~\x01??", b"~~?\x01?????",
            data[:-1], data[:5], data[:4], data + b"?", data + b"\n",
            b">>graph6<<", b">>graph6<<?", b">>graph6<<" + data[:-1],
            b">>graph6<<" + data + b"A",
        ):
            self.same_error(bad)

    def test_header_and_str_input(self):
        data = gc.encode_graph6(random_graph(64, 0.5, random.Random(4)))
        for good in (data, b">>graph6<<" + data, data.decode()):
            assert gc.decode_graph6(good) == bit_loop_decode(good)

    def test_mutations(self):
        rng = random.Random(8)
        for n in (1, 2, 7, 12, 63, 64):
            data = bytearray(gc.encode_graph6(random_graph(n, 0.5, rng)))
            for _ in range(60):
                bad = bytearray(data)
                off = rng.randrange(len(bad))
                bad[off] = rng.choice([rng.randrange(256), bad[off] ^ 1, bad[off] ^ 32])
                if rng.random() < 0.3:
                    del bad[rng.randrange(len(bad)):]
                assert outcome(gc.decode_graph6, bytes(bad)) == outcome(bit_loop_decode, bytes(bad))


class TestValidationAgainstEdgeLoop:
    def check(self, order, rows):
        want = edge_loop_error(order, rows)
        if want is None:
            assert gc.Graph(order, rows).rows == tuple(rows)
        else:
            with pytest.raises(ValueError) as info:
                gc.Graph(order, rows)
            assert str(info.value) == want

    def test_valid_graphs_accepted(self):
        rng = random.Random(5)
        for n in range(1, 131):
            g = random_graph(n, rng.random(), rng)
            assert edge_loop_error(n, g.rows) is None
            self.check(n, list(g.rows))

    def test_flipped_bits(self):
        rng = random.Random(6)
        for n in range(2, 131):
            rows = list(random_graph(n, rng.random(), rng).rows)
            for flips in (1, 1, 3):
                bad = list(rows)
                for _ in range(flips):
                    x, y = rng.sample(range(n), 2)
                    bad[x] ^= 1 << y
                self.check(n, bad)

    def test_loops(self):
        rng = random.Random(7)
        for n in range(1, 131):
            rows = list(random_graph(n, rng.random(), rng).rows)
            x = rng.randrange(n)
            rows[x] |= 1 << x
            self.check(n, rows)

    def test_bits_out_of_range(self):
        rng = random.Random(9)
        for n in range(1, 131):
            rows = list(random_graph(n, rng.random(), rng).rows)
            rows[rng.randrange(n)] |= 1 << (n + rng.randrange(3))
            self.check(n, rows)

    def test_missing_mirror_bit_at_tile_edges(self):
        # pairs that straddle an edge of the transpose's 128 x 128 tiles,
        # or sit in the corner tiles of order 5000, each bit of the pair
        # missing in turn
        rng = random.Random(10)
        cases = [(256, random_graph(256, 0.5, rng).rows, (127, 128))]
        cases += [(5000, gc.cycle(5000).rows, p) for p in [(127, 128), (0, 4999), (4998, 4999)]]
        for n, rows, (x, y) in cases:
            rows = list(rows)
            rows[x] |= 1 << y
            rows[y] |= 1 << x
            for a, b in ((x, y), (y, x)):
                bad = list(rows)
                bad[a] ^= 1 << b
                assert edge_loop_error(n, bad) == f"adjacency not symmetric at pair ({b}, {a})"
                self.check(n, bad)

    def test_asymmetric_pair_order(self):
        # (0, 2) comes before (1, 0): row 0 is scanned first
        self.check(3, [0b100, 0b001, 0b000])
        self.check(3, [0b000, 0b101, 0b010])
        with pytest.raises(ValueError, match=r"pair \(0, 2\)"):
            gc.Graph(3, [0b100, 0b001, 0b000])
