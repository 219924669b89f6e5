import hashlib
import random
import time
from itertools import combinations, permutations

import pytest

from srgddg import assembly, galois, iso
from srgddg import graphcore as gc
from srgddg.coclique import CocliqueQuery
from srgddg.errors import SizeCapExceeded

from oracles import PlainSearch, first_best_form


def relabel(g, perm):
    """The graph with vertex x renamed perm[x]."""
    rows = [0] * g.order
    for x, row in enumerate(g.rows):
        for y in gc.bits(row):
            rows[perm[x]] |= 1 << perm[y]
    return gc.Graph(g.order, rows)


def random_relabel(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return relabel(g, perm)


def first_ddg_piece(graph):
    """(ddg, partition in the DDG's numbering, design) of the first
    decomposition, ready for attach_coclique."""
    dec = assembly.decompose(graph, CocliqueQuery(mode="first"))[0]
    return dec.ddg, dec.ddg_partition, dec.design


def certificate_corpus(sp43, sp62):
    """The 40 DDGs of the Sp(4,3) complement, the nine DDGs of the
    SRG(63,32,16,16) glued with phi = (1,2,0,3,4,5,6), and 78 seeded
    random graphs on 2..40 vertices."""
    graphs = [d.ddg for d in assembly.decompose(sp43)]
    twisted = assembly.attach_coclique(*first_ddg_piece(sp62), (1, 2, 0, 3, 4, 5, 6))
    graphs += [d.ddg for d in assembly.decompose(twisted)]
    rng = random.Random(2014)
    for n in range(2, 41):
        for p in (0.2, 0.5):
            edges = [e for e in combinations(range(n), 2) if rng.random() < p]
            graphs.append(gc.from_edges(n, edges))
    return graphs


# SHA-256 over the certificates of certificate_corpus, one per line, as
# computed at commit a00abc8.  Any pruning that is sound leaves the least
# leaf certificate, and so this digest, unchanged.
CORPUS_DIGEST = "66e06235b7550c8af086586a017dae4fac07c6d9f1b5c9656599861e5f50b3cb"


def cycles_union(*lengths):
    """Disjoint union of cycles of the given lengths: automorphisms
    that do not act transitively on the vertices."""
    edges, base = [], 0
    for k in lengths:
        edges += [(base + i, base + (i + 1) % k) for i in range(k)]
        base += k
    return gc.from_edges(base, edges)


def brute_isomorphic(g, h):
    """Backtracking isomorphism search with degree pruning (oracle)."""
    if g.order != h.order or sorted(g.degrees()) != sorted(h.degrees()):
        return False
    n = g.order
    image = [-1] * n
    used = 0

    def extend(x):
        nonlocal used
        if x == n:
            return True
        dx = g.degree(x)
        for y in range(n):
            if used >> y & 1 or h.degree(y) != dx:
                continue
            ok = True
            for z in range(x):
                if g.has_edge(x, z) != h.has_edge(y, image[z]):
                    ok = False
                    break
            if not ok:
                continue
            image[x] = y
            used |= 1 << y
            if extend(x + 1):
                return True
            used ^= 1 << y
        image[x] = -1
        return False

    return extend(0)


class TestCanonicalForm:
    def test_relabel_invariance_petersen(self, petersen):
        base = iso.canonical_form(petersen)
        rng = random.Random(0)
        for _ in range(100):
            assert iso.canonical_form(random_relabel(petersen, rng)) == base

    def test_relabel_invariance_assorted(self):
        rng = random.Random(4)
        corpus = [gc.cycle(8), gc.grid(3, 3), gc.triangular(5), gc.path(6),
                  gc.composition(gc.complete(2), gc.cycle(3)), cycles_union(3, 4, 5)]
        for g in corpus:
            base = iso.canonical_form(g)
            for _ in range(20):
                assert iso.canonical_form(random_relabel(g, rng)) == base

    def test_certificate_is_decodable_isomorph(self, petersen):
        cert = iso.canonical_form(petersen).certificate
        back = gc.decode_graph6(cert)
        assert brute_isomorphic(back, petersen)

    def test_distinguishes_cospectral_cubic_pair(self, petersen):
        # 5-prism: also 3-regular on 10 vertices
        prism = gc.from_edges(
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
            + [(i, 5 + i) for i in range(5)],
        )
        assert iso.canonical_form(prism) != iso.canonical_form(petersen)

    def test_size_cap(self, monkeypatch):
        # the cap refuses 513 vertices before the search is set up
        def refuse(*args):
            raise AssertionError("work started above the cap")

        monkeypatch.setattr(iso, "_Search", refuse)
        with pytest.raises(SizeCapExceeded, match="canonical_form: order 513 exceeds cap 512"):
            iso.canonical_form(gc.edgeless(513))

    def test_huge_automorphism_groups_terminate_fast(self):
        # backjumping keeps maximally symmetric inputs polynomial
        import time

        t0 = time.time()
        k = iso.canonical_form(gc.complete(30))
        e = iso.canonical_form(gc.edgeless(30))
        assert time.time() - t0 < 20
        assert k.certificate == gc.encode_graph6(gc.complete(30))
        assert e.certificate == gc.encode_graph6(gc.edgeless(30))

    def test_composition_certificates(self):
        # K5[5K1] is vertex-transitive with a wreath automorphism group
        g = gc.composition(gc.complete(5), gc.edgeless(5))
        h = random_relabel(g, random.Random(13))
        assert iso.canonical_form(g) == iso.canonical_form(h)


class TestPinnedCertificates:
    def test_corpus_digest(self, sp43, sp62):
        graphs = certificate_corpus(sp43, sp62)
        assert len(graphs) == 127
        h = hashlib.sha256()
        for g in graphs:
            h.update(iso.canonical_form(g).certificate + b"\n")
        assert h.hexdigest() == CORPUS_DIGEST

    def test_edgeless_100_completes(self):
        t0 = time.perf_counter()
        cf = iso.canonical_form(gc.edgeless(100))
        assert cf.certificate == gc.encode_graph6(gc.edgeless(100))
        assert time.perf_counter() - t0 < 20


class TestSeenCertificates:
    """A ``seen`` dict shared across searches: an isomorphic copy stops at
    its first leaf, and any other graph searches in full.  A copy that
    missed at its first leaf would mean that pruning skipped a leaf
    certificate that no visited leaf had."""

    def test_corpus_and_relabelings(self, sp43, sp62):
        rng = random.Random(2024)
        seen: dict[bytes, bytes] = {}
        classes: set[bytes] = set()
        for g in certificate_corpus(sp43, sp62):
            fresh = iso.canonical_form(g)
            before = len(seen)
            cf = iso.canonical_form(g, seen)
            assert cf.certificate == fresh.certificate
            if fresh.certificate in classes:
                # isomorphic to an earlier graph of the corpus
                assert (cf.leaves, cf.generators, len(seen)) == (1, (), before)
            else:
                # a full search adds at least its first leaf; a hit adds none
                assert len(seen) > before
                assert (cf.leaves, cf.generators, cf.backjumps) == (
                    fresh.leaves, fresh.generators, fresh.backjumps)
                classes.add(fresh.certificate)
            for _ in range(2):
                copy = iso.canonical_form(random_relabel(g, rng), seen)
                assert (copy.certificate, copy.leaves, copy.generators) == (fresh.certificate, 1, ())
        assert set(seen.values()) == classes

    def test_every_graph_on_five_vertices(self):
        # 1,024 labeled graphs in 34 classes: one full search per class
        pairs = list(combinations(range(5), 2))
        seen: dict[bytes, bytes] = {}
        full = 0
        for code in range(1 << len(pairs)):
            g = gc.from_edges(5, [p for i, p in enumerate(pairs) if code >> i & 1])
            before = len(seen)
            cf = iso.canonical_form(g, seen)
            assert cf.certificate == iso.canonical_form(g).certificate
            if len(seen) > before:
                full += 1
            else:
                assert cf.leaves == 1
        assert full == 34 == len(set(seen.values()))


def is_automorphism(g, image):
    return sorted(image) == list(range(g.order)) and all(
        g.has_edge(image[x], image[y]) for x, y in g.edges()
    )


class TestSearchStatistics:
    def test_generators_are_automorphisms(self, petersen, sp42, sp43):
        rng = random.Random(5)
        graphs = [petersen, sp42, gc.grid(3, 4), gc.cycle(9), gc.edgeless(8), gc.complete(7),
                  gc.composition(gc.complete(3), gc.edgeless(3))]
        graphs += [d.ddg for d in assembly.decompose(sp43)[:3]]
        graphs += [random_relabel(g, rng) for g in graphs]
        for g in graphs:
            cf = iso.canonical_form(g)
            assert cf.generators, g
            assert cf.automorphisms == len(cf.generators)
            assert 0 <= cf.backjumps <= cf.automorphisms < cf.leaves
            for image in cf.generators:
                assert is_automorphism(g, image)

    def test_asymmetric_graph_has_no_generators(self):
        g = gc.from_edges(6, [(0, 3), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (4, 5)])
        assert sum(is_automorphism(g, p) for p in permutations(range(6))) == 1
        cf = iso.canonical_form(g)
        assert cf.generators == () and cf.automorphisms == 0

    def test_edgeless_60_leaves(self):
        # one leaf per level: the first, then one automorphism per level
        cf = iso.canonical_form(gc.edgeless(60))
        assert cf.leaves == 60
        assert cf.automorphisms == 59

    def test_statistics_do_not_enter_equality(self, petersen):
        a = iso.canonical_form(petersen)
        b = iso.canonical_form(random_relabel(petersen, random.Random(3)))
        assert a == b and hash(a) == hash(b)
        assert a == iso.CanonicalForm(a.certificate)


class TestNodeOrbits:
    # path (2, 3), so cells {0, 1}, {2}, {3}, with target {0, 1}
    def orbits(self):
        return iso._NodeOrbits((2, 3), 0b0011, 4)

    def test_automorphism_moving_a_cell_is_not_used(self):
        orb = self.orbits()
        assert orb.fold([(1, 0, 3, 2)]) is False
        assert orb.find(0) != orb.find(1)

    def test_automorphism_fixing_every_cell_merges(self):
        orb = self.orbits()
        autos = [(1, 0, 3, 2)]
        orb.fold(autos)
        autos.append((1, 0, 2, 3))
        assert orb.fold(autos) is True
        assert orb.find(0) == orb.find(1)


def row_automorphism(g, image):
    """Whether image is a permutation mapping the row of each x onto the
    row of image[x]."""
    return sorted(image) == list(range(g.order)) and all(
        sum(1 << image[y] for y in gc.bits(row)) == g.rows[image[x]] for x, row in enumerate(g.rows)
    )


def generators_by_leaf(monkeypatch, g):
    """The full canonical form of g, and for each c the number of
    generators it had found after c leaves."""
    counts = []
    real = iso._Search.leaf

    def leaf(self, cells):
        try:
            real(self, cells)
        finally:
            counts.append(len(self.autos))

    with monkeypatch.context() as m:
        m.setattr(iso._Search, "leaf", leaf)
        cf = iso.canonical_form(g)
    return cf, counts


def closure(generators, n):
    """Every product of the generators, as tuples of images."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        new = []
        for e in frontier:
            for a in generators:
                h = tuple(a[x] for x in e)
                if h not in group:
                    group.add(h)
                    new.append(h)
        frontier = new
    return group


def brute_set_orbits(masks, group):
    """For each set, the first index of its orbit under every element."""
    index = {m: i for i, m in enumerate(masks)}
    out = []
    for m in masks:
        images = {sum(1 << a[v] for v in gc.bits(m)) for a in group}
        out.append(min(index[x] for x in images if x in index))
    return out


class TestCappedSearch:
    def test_every_cap_gives_a_prefix_of_automorphisms(self, monkeypatch, sp42, sp43, sp62):
        piece = first_ddg_piece(sp62)
        twisted = [assembly.attach_coclique(*piece, phi)
                   for phi in ((1, 2, 0, 3, 4, 5, 6), (1, 2, 3, 0, 4, 5, 6))]
        for g in (sp42, sp43, *twisted):
            cf, counts = generators_by_leaf(monkeypatch, g)
            assert len(counts) == cf.leaves and counts[-1] == len(cf.generators) > 0
            assert all(row_automorphism(g, image) for image in cf.generators)
            for cap in range(1, cf.leaves + 1):
                assert iso._automorphisms(g, cap) == cf.generators[: counts[cap - 1]], cap
            assert iso._automorphisms(g, cf.leaves + 1) == cf.generators

    def test_set_orbits_against_the_group_of_sp42(self, sp42):
        gens = iso.canonical_form(sp42).generators
        masks = [d.coclique for d in assembly.decompose(sp42)]
        assert len(masks) == 15
        whole = closure(gens, sp42.order)
        assert len(whole) == 720
        assert brute_set_orbits(masks, whole) == [0] * 15
        # subgroups give finer orbits; the union-find must match each
        subsets = [gens, *combinations(gens, 1), *combinations(gens, 2)]
        sizes = set()
        for sub in subsets:
            want = brute_set_orbits(masks, closure(sub, sp42.order))
            assert iso._set_orbits(masks, sub) == want
            sizes.add(len(set(want)))
        assert len(sizes) > 2
        # a partial list: images outside it are skipped, so the orbits
        # found may split but never join the orbits of the whole list
        for sub in subsets:
            want = brute_set_orbits(masks, closure(sub, sp42.order))
            for part in (masks[:7], masks[::2], masks[5:]):
                got = iso._set_orbits(part, sub)
                where = [masks.index(m) for m in part]
                for i, j in combinations(range(len(part)), 2):
                    if got[i] == got[j]:
                        assert want[where[i]] == want[where[j]]


class TestBackjumpOnAnyEarlierLeaf:
    """A leaf that repeats any earlier leaf's certificate backjumps, not
    only one that repeats the first or the best leaf's."""

    def test_against_the_first_and_best_rule(self, sp43, sp62):
        ours = theirs = 0
        for g in certificate_corpus(sp43, sp62):
            cf = iso.canonical_form(g)
            cert, leaves, generators = first_best_form(g)
            assert cf.certificate == cert
            ours += cf.leaves
            theirs += leaves
            for image in cf.generators + generators:
                assert row_automorphism(g, image)
        assert ours <= theirs

    def test_ddg_of_sp47(self):
        # v = 392: 3,239 leaves under the first and best rule, 128 here
        sp47 = galois.symplectic_complement(2, galois.fieldspec(7, 1))
        ddg = first_ddg_piece(sp47)[0]
        assert ddg.order == 392
        cf = iso.canonical_form(ddg)
        assert cf.leaves <= 200
        assert iso.canonical_form(random_relabel(ddg, random.Random(392))) == cf


def census_benchmark_ddgs(sp43, sp62):
    """The DDGs of the benchmark's census file: the SRG(40)s glued with
    the bijections 0 and 12 of the 24 in lexicographic order, and the
    SRG(63) glued with phi = (1,2,0,3,4,5,6), each relabeled by a seeded
    permutation before it is split."""
    pieces = first_ddg_piece(sp43), first_ddg_piece(sp62)
    glued = [(pieces[0], phi) for phi in ((0, 1, 2, 3), (2, 0, 1, 3))]
    glued.append((pieces[1], (1, 2, 0, 3, 4, 5, 6)))
    rng = random.Random(35)
    return [d.ddg for piece, phi in glued
            for d in assembly.decompose(random_relabel(assembly.attach_coclique(*piece, phi), rng))]


def searched(cls, g):
    """The refined partition of every node of the search of g by cls, in
    search order, and what the search found."""
    nodes = []

    class Recording(cls):
        def node(self, cells):
            nodes.append(list(cells))
            super().node(cells)

    search = Recording(g)
    search.run()
    return nodes, min(search.known), search.leaves, tuple(search.autos), search.backjumps


class CountingRows(tuple):
    """Rows that count how often they are read."""

    reads = 0

    def __getitem__(self, i):
        CountingRows.reads += 1
        return tuple.__getitem__(self, i)


def row_reads(cls, g):
    CountingRows.reads = 0
    search = cls(g)
    search.rows = CountingRows(g.rows)
    search.run()
    return CountingRows.reads


class TestRefinementAgainstPlain:
    """Refinement that queues no splitter that splits nothing against the
    plain refinement, which pops every queued splitter."""

    def test_every_node_equal(self, sp43, sp62):
        graphs = certificate_corpus(sp43, sp62) + census_benchmark_ddgs(sp43, sp62)
        rng = random.Random(80)
        for n in (45, 60, 80):
            for p in (0.1, 0.3, 0.5, 0.8):
                graphs.append(gc.from_edges(n, [e for e in combinations(range(n), 2)
                                                if rng.random() < p]))
        graphs += [gc.edgeless(12), gc.complete(9), gc.grid(5, 7), cycles_union(3, 4, 5, 5)]
        for g in graphs:
            ours = searched(iso._Search, g)
            assert ours == searched(PlainSearch, g)
            cf = iso.canonical_form(g)
            assert (cf.certificate, cf.leaves, cf.generators, cf.backjumps) == ours[1:]
            assert cf.automorphisms == len(ours[3])

    def test_fewer_row_reads(self, sp43, sp62):
        # a silent fallback to the plain refinement reads every row it
        # does; 45,233 reads against 91,578 in all, and 49,976 if a
        # settled cell that splits queues its first part
        ddgs = census_benchmark_ddgs(sp43, sp62)
        assert [g.order for g in ddgs] == [36] * 80 + [56] * 9
        ours = [row_reads(iso._Search, g) for g in ddgs]
        plain = [row_reads(PlainSearch, g) for g in ddgs]
        assert all(a * 5 < b * 3 for a, b in zip(ours, plain))
        assert sum(ours) * 100 < sum(plain) * 52


class TestAreIsomorphic:
    def test_relabeled_graph(self, t6):
        assert iso.are_isomorphic(t6, random_relabel(t6, random.Random(9)))

    def test_isomorphic_second_graph_stops_at_first_leaf(self, monkeypatch, sp43):
        forms = []
        real = iso.canonical_form

        def recorded(g, seen=None):
            forms.append(real(g, seen))
            return forms[-1]

        monkeypatch.setattr(iso, "canonical_form", recorded)
        g = assembly.decompose(sp43, CocliqueQuery(mode="first"))[0].ddg
        assert iso.are_isomorphic(g, random_relabel(g, random.Random(17)))
        assert forms[0].leaves > 1 and forms[1].leaves == 1

    def test_degree_shortcut(self, petersen):
        assert not iso.are_isomorphic(petersen, gc.complete(10))

    def test_triangular5_complement_is_petersen(self, petersen):
        assert iso.are_isomorphic(gc.complement_of(gc.triangular(5)), petersen)

    def test_t6_is_the_unique_srg_15_8_4_4(self, t6, sp42):
        assert iso.are_isomorphic(t6, sp42)

    def test_agrees_with_brute_force_small(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 7)
            e1 = [(x, y) for x, y in combinations(range(n), 2) if rng.random() < 0.5]
            e2 = [(x, y) for x, y in combinations(range(n), 2) if rng.random() < 0.5]
            g = gc.from_edges(n, e1)
            h = gc.from_edges(n, e2)
            assert iso.are_isomorphic(g, h) == brute_isomorphic(g, h)

    def test_agrees_with_brute_force_9_vertices(self):
        g = gc.grid(3, 3)
        h = random_relabel(g, random.Random(2))
        assert iso.are_isomorphic(g, h) and brute_isomorphic(g, h)
        # C9 is 2-regular like... grid(3,3) is 4-regular; use two distinct
        # 4-regular graphs on 9 vertices: rook vs circulant {1,2}
        circ = gc.from_edges(9, [(i, (i + d) % 9) for i in range(9) for d in (1, 2)])
        assert iso.are_isomorphic(g, circ) == brute_isomorphic(g, circ) == False

    def test_certificate_classes_match_known_counts(self):
        # distinct certificates over ALL graphs on n vertices must equal
        # the number of isomorphism classes: 11, 34, 156 for n = 4, 5, 6
        for n, want in ((4, 11), (5, 34), (6, 156)):
            pairs = list(combinations(range(n), 2))
            certs = set()
            for code in range(1 << len(pairs)):
                edges = [p for i, p in enumerate(pairs) if code >> i & 1]
                certs.add(iso.canonical_form(gc.from_edges(n, edges)).certificate)
            assert len(certs) == want

    def test_all_ddgs_of_sp42_isomorphic(self, sp42):
        # vertex transitivity: every Hoffman coclique leaves the same
        # divisible design graph up to isomorphism
        from srgddg import assembly

        decs = assembly.decompose(sp42)
        assert len(decs) == 15
        certs = {iso.canonical_form(d.ddg).certificate for d in decs}
        assert len(certs) == 1
