import bisect
import collections
import functools
import random
from itertools import permutations

import pytest
from oracles import design_axioms

from srgddg import assembly as asm
from srgddg import coclique as cq
from srgddg import designs as ds
from srgddg import galois, theory
from srgddg import graphcore as gc
from srgddg import recognize as rec
from srgddg.errors import BudgetExceeded, SrgddgError


def plain_induced(graph, keep):
    """Induced subgraph by a loop over the bits, renumbered ascending."""
    old = gc.set_of(keep)
    rows = []
    for x in old:
        row = 0
        for new_y, y in enumerate(old):
            row |= (graph.rows[x] >> y & 1) << new_y
        rows.append(row)
    return gc.Graph(len(old), rows)


def generic_decompose(graph):
    """The generic splitting pipeline, kept as the oracle of decompose:
    for every Hoffman coclique, recognize the divisible design graph left
    over by pair counting, extract the design from the neighbourhoods of
    its classes, check the quotient matrix, glue the witness back with the
    public attach_coclique and compare edge sets."""
    p = rec.srg_params(graph)
    if p.c.denominator != 1:
        return []
    full = (1 << graph.order) - 1
    out = []
    for C in cq.hoffman_cocliques(graph, p):
        rest = full ^ C
        old_ids = gc.set_of(rest)
        pts = gc.set_of(C)
        ddg = plain_induced(graph, rest)
        for dp, part in rec.ddg_recognize(ddg) or []:
            n = dp.n
            if not dp.proper or dp.K % (n - 1):
                continue
            s = -(dp.K // (n - 1))
            fam = theory.family_from(n, s)
            if not fam or fam.ddg.tuple6 != dp.tuple6 or s != p.s:
                continue
            classes = tuple(gc.mask_of(old_ids[x] for x in gc.bits(cl)) for cl in part.classes)
            nbhds = [{graph.rows[x] & C for x in gc.bits(cl)} for cl in classes]
            if any(len(nb) != 1 for nb in nbhds):
                continue
            blocks = tuple(gc.mask_of(pts.index(z) for z in gc.bits(nb.pop())) for nb in nbhds)
            design = ds.SymmetricDesign(
                len(pts), blocks, blocks[0].bit_count(), (blocks[0] & blocks[1]).bit_count()
            )
            if not ds.verify_design(design) or design.params != ds.required_design_params(n, s):
                continue
            q = rec.quotient_matrix(ddg, part)
            if not q or not q.is_constant(n + s):
                continue
            phi = tuple(range(dp.m))
            rebuilt = asm.attach_coclique(ddg, part, design, phi)
            order = old_ids + pts
            if any(
                rebuilt.has_edge(i, j) != graph.has_edge(order[i], order[j])
                for i in range(graph.order)
                for j in range(i)
            ):
                continue
            out.append(asm.Decomposition(C, rec.CanonicalPartition(classes), part, dp, ddg, design))
    return out


def glued(graph, phi):
    """The SRG built from graph's first generic witness with bijection phi."""
    d = generic_decompose(graph)[0]
    return asm.attach_coclique(d.ddg, d.ddg_partition, d.design, phi)


def renamed(graph, perm):
    """graph with vertex x renamed perm[x]."""
    rows = [0] * graph.order
    for x, row in enumerate(graph.rows):
        for y in gc.bits(row):
            rows[perm[x]] |= 1 << perm[y]
    return gc.Graph(graph.order, rows)


def relabelled(graph, seed):
    """graph with its vertices renamed by a permutation drawn from seed."""
    perm = list(range(graph.order))
    random.Random(seed).shuffle(perm)
    return renamed(graph, perm)


# (name, witnesses): SRG(63)s glued from the Sp(6,2) complement with four
# bijections phi, Sp(4,3) complements glued with three, the Sp(4,4)
# complement, the 6 x 6 grid, and seeded relabellings
ORACLE_CASES = [
    ("sp62_identity", 135),
    ("sp62_transposition", 27),
    ("sp62_3cycle", 9),
    ("sp62_4cycle", 1),
    ("sp43_phi0123", 40),
    ("sp43_phi1023", 40),
    ("sp43_phi3201", 40),
    ("sp44", 85),
    ("grid66", 0),
]
ORACLE_CASES += [
    (name + "_relabelled", count)
    for name, count in ORACLE_CASES
    if name in ("sp62_transposition", "sp62_4cycle", "sp43_phi1023", "sp44", "grid66")
]


@functools.lru_cache(maxsize=None)
def oracle_graph(name):
    if name.endswith("_relabelled"):
        return relabelled(oracle_graph(name[: -len("_relabelled")]), name)
    if name == "sp44":
        return galois.symplectic_complement(2, galois.fieldspec(2, 2))
    if name == "grid66":
        return gc.grid(6, 6)
    base, _, twist = name.partition("_")
    if base == "sp62":
        phi = {
            "identity": (0, 1, 2, 3, 4, 5, 6),
            "transposition": (1, 0, 2, 3, 4, 5, 6),
            "3cycle": (1, 2, 0, 3, 4, 5, 6),
            "4cycle": (1, 2, 3, 0, 4, 5, 6),
        }[twist]
        return glued(galois.symplectic_complement(3, galois.fieldspec(2, 1)), phi)
    phi = tuple(int(c) for c in twist[len("phi"):])
    return glued(galois.symplectic_complement(2, galois.fieldspec(3, 1)), phi)


@pytest.mark.parametrize("name, count", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_decompose_matches_generic_pipeline(name, count):
    graph = oracle_graph(name)
    want = generic_decompose(graph)
    assert len(want) == count
    assert asm.decompose(graph) == want
    # mode "first" walks past the cocliques that do not split
    assert asm.decompose(graph, cq.CocliqueQuery(mode="first")) == want[:1]


def test_hoffman_cocliques_are_seen_minus_s_times(sp42, sp43, sp62):
    # Hoffman's equality case: every vertex outside a coclique attaining
    # the ratio bound has -s neighbours in it, so _split never checks the
    # sizes of the N_C sets; here on cocliques that split and that do not
    graphs = [sp42, sp43, sp62, oracle_graph("sp44"), galois.symplectic_complement(2, galois.fieldspec(5, 1))]
    graphs += [oracle_graph(f"sp62_{twist}") for twist in ("transposition", "3cycle", "4cycle")]
    counts = []
    for g in graphs:
        p = rec.srg_params(g)
        cocliques = cq.hoffman_cocliques(g, p)
        counts.append(len(cocliques))
        for C in cocliques:
            rest = ((1 << g.order) - 1) ^ C
            assert {(g.rows[x] & C).bit_count() for x in gc.bits(rest)} == {-p.s}
    assert counts == [15, 40, 135, 85, 156, 103, 87, 79]


@pytest.fixture(scope="module")
def dec15(sp42):
    return asm.decompose(sp42)


@pytest.fixture(scope="module")
def dec63(sp62):
    return asm.decompose(sp62)


class TestConstructGamma:
    def test_small_family(self, dec15):
        d = dec15[0]
        graph = asm.attach_coclique(d.ddg, d.ddg_partition, d.design, (0, 1, 2))
        p = rec.srg_params(graph)
        assert p and p.tuple4 == (15, 8, 4, 4)

    def test_middle_family(self, sp43):
        decs = asm.decompose(sp43, cq.CocliqueQuery(mode="first"))
        d = decs[0]
        for phi in permutations(range(4)):
            graph = asm.attach_coclique(d.ddg, d.ddg_partition, d.design, phi)
            p = rec.srg_params(graph)
            assert p and p.tuple4 == (40, 27, 18, 18)

    def test_design_mismatch(self, dec15):
        d = dec15[0]
        wrong = ds.all_ksubsets_design(4)  # 2-(4,3,2), m differs
        with pytest.raises(asm.DesignMismatch):
            asm.attach_coclique(d.ddg, d.ddg_partition, wrong, (0, 1, 2, 3))

    def test_phi_not_bijective(self, dec15):
        d = dec15[0]
        with pytest.raises(asm.PhiNotBijective):
            asm.attach_coclique(d.ddg, d.ddg_partition, d.design, (0, 0, 2))

    def test_parameter_mismatch_wrong_graph(self):
        # a 12-vertex graph that is not the family DDG
        g = gc.composition(gc.cycle(3), gc.edgeless(4))
        part = rec.CanonicalPartition(
            tuple(gc.mask_of(range(i * 4, (i + 1) * 4)) for i in range(3))
        )
        design = ds.design_from_blocks([[0, 1], [1, 2], [0, 2]])
        with pytest.raises(asm.ParameterMismatch):
            asm.attach_coclique(g, part, design, (0, 1, 2))

    def test_partition_must_fit_graph(self, dec15):
        d = dec15[0]
        bad = rec.CanonicalPartition(
            (gc.mask_of(range(6)), gc.mask_of(range(6, 12)))
        )
        with pytest.raises(asm.AssemblyError):
            asm.attach_coclique(d.ddg, bad, d.design, (0, 1))

    def test_output_is_proven_not_recognized(self, monkeypatch, sp42, sp62):
        # the input checks prove the glued graph strongly regular, so
        # attach_coclique neither recognizes nor re-validates its output
        witnesses = [asm.decompose(g, cq.CocliqueQuery(mode="first"))[0] for g in (sp42, sp62)]
        calls = []
        real_init, real_srg = gc.Graph.__init__, rec.srg_params

        def counted_init(self, *args, **kwargs):
            calls.append("Graph.__init__")
            real_init(self, *args, **kwargs)

        def counted_srg(graph):
            calls.append("srg_params")
            return real_srg(graph)

        monkeypatch.setattr(gc.Graph, "__init__", counted_init)
        monkeypatch.setattr(asm, "srg_params", counted_srg)
        monkeypatch.setattr(rec, "srg_params", counted_srg)
        for d in witnesses:
            asm.attach_coclique(d.ddg, d.ddg_partition, d.design, d.phi[1:] + d.phi[:1])
        assert calls == []


@pytest.fixture(scope="module")
def piece43(sp43):
    """The first witness of the Sp(4,3) complement: DDG(36,24,15,16;4,9)
    and the design 2-(4,3,2), onto which all 24 phi glue."""
    return asm.decompose(sp43, cq.CocliqueQuery(mode="first"))[0]


@pytest.fixture
def premise_calls(monkeypatch):
    """Calls of the two premise checks that read the whole piece, each
    counted under its name, with the last proven piece forgotten first."""
    asm._proven = None
    calls = collections.Counter()
    for name in ("ddg_recognize", "verify_design"):
        def counted(*args, _real=getattr(asm, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(asm, name, counted)
    yield calls
    asm._proven = None


def family_srg(d):
    return theory.family_from(d.n, d.s).srg.tuple4


class TestPremisesOncePerPiece:
    """attach_coclique proves the premises that do not read phi once per
    consecutive (ddg, partition, design); srg_params, the oracle, checks
    every graph glued here."""

    def test_every_phi_checks_the_piece_once(self, piece43, premise_calls):
        d = piece43
        graphs = {asm.attach_coclique(d.ddg, d.ddg_partition, d.design, phi)
                  for phi in permutations(range(4))}
        assert premise_calls == {"ddg_recognize": 1, "verify_design": 1}
        assert len(graphs) == 24
        assert {rec.srg_params(g).tuple4 for g in graphs} == {family_srg(d)}

    def test_a_failed_premise_is_refused_on_every_call(self, dec15, premise_calls):
        g = gc.composition(gc.cycle(3), gc.edgeless(4))
        part = rec.CanonicalPartition(
            tuple(gc.mask_of(range(i * 4, (i + 1) * 4)) for i in range(3))
        )
        design = ds.design_from_blocks([[0, 1], [1, 2], [0, 2]])
        for _ in range(2):
            with pytest.raises(asm.ParameterMismatch):
                asm.attach_coclique(g, part, design, (0, 1, 2))
        d = dec15[0]
        wrong = ds.all_ksubsets_design(4)  # 2-(4,3,2), m differs
        for _ in range(2):
            with pytest.raises(asm.DesignMismatch):
                asm.attach_coclique(d.ddg, d.ddg_partition, wrong, (0, 1, 2, 3))
        assert premise_calls == {"ddg_recognize": 4, "verify_design": 2}

    def test_a_bad_phi_leaves_the_piece_gluing(self, piece43, premise_calls):
        d = piece43
        asm.attach_coclique(d.ddg, d.ddg_partition, d.design, (0, 1, 2, 3))
        with pytest.raises(asm.PhiNotBijective):
            asm.attach_coclique(d.ddg, d.ddg_partition, d.design, (0, 0, 2, 3))
        after = asm.attach_coclique(d.ddg, d.ddg_partition, d.design, (1, 0, 2, 3))
        assert premise_calls["ddg_recognize"] == 1
        asm._proven = None
        assert asm.attach_coclique(d.ddg, d.ddg_partition, d.design, (1, 0, 2, 3)) == after
        assert premise_calls["ddg_recognize"] == 2
        assert rec.srg_params(after).tuple4 == family_srg(d)

    def test_an_equal_ddg_with_another_label_is_a_hit(self, piece43, premise_calls):
        d = piece43
        twin = gc.Graph(d.ddg.order, list(d.ddg.rows), label="twin")
        assert twin == d.ddg and twin is not d.ddg and twin.label != d.ddg.label
        phi = (2, 3, 0, 1)
        first = asm.attach_coclique(d.ddg, d.ddg_partition, d.design, phi)
        second = asm.attach_coclique(twin, d.ddg_partition, d.design, phi)
        assert premise_calls == {"ddg_recognize": 1, "verify_design": 1}
        assert first == second
        assert rec.srg_params(second).tuple4 == family_srg(d)

    def test_unequal_pieces_are_checked_afresh(self, piece43, premise_calls):
        d = piece43
        phi = (1, 2, 3, 0)
        asm.attach_coclique(d.ddg, d.ddg_partition, d.design, phi)
        # the same blocks under another nominal lambda are another design,
        # and it fails pair coverage on each call
        lam3 = ds.SymmetricDesign(d.design.v_pts, d.design.blocks, d.design.k_blk, d.design.lam + 1)
        for _ in range(2):
            with pytest.raises(asm.DesignMismatch, match="pair coverage"):
                asm.attach_coclique(d.ddg, d.ddg_partition, lam3, phi)
        assert premise_calls["verify_design"] == 3
        # the same classes in reverse order are another partition: class i
        # becomes class m - 1 - i, which phi reversed undoes
        backwards = rec.CanonicalPartition(d.ddg_partition.classes[::-1])
        glued = asm.attach_coclique(d.ddg, backwards, d.design, phi)
        assert premise_calls == {"ddg_recognize": 4, "verify_design": 4}
        assert glued == asm.attach_coclique(d.ddg, d.ddg_partition, d.design, phi[::-1])
        assert rec.srg_params(glued).tuple4 == family_srg(d)

    def test_list_built_pieces_glue_like_tuple_built(self, piece43, premise_calls):
        # blocks and classes are stored as tuples, so a piece built from
        # lists hashes, compares equal to the tuple-built one and glues
        d = piece43
        design = ds.SymmetricDesign(d.design.v_pts, list(d.design.blocks), d.design.k_blk, d.design.lam)
        part = rec.CanonicalPartition(list(d.ddg_partition.classes))
        assert design == d.design and hash(design) == hash(d.design)
        assert part == d.ddg_partition and hash(part) == hash(d.ddg_partition)
        phi = (3, 1, 0, 2)
        listed = asm.attach_coclique(d.ddg, part, design, phi)
        assert listed == asm.attach_coclique(d.ddg, d.ddg_partition, d.design, phi)
        assert premise_calls == {"ddg_recognize": 1, "verify_design": 1}
        assert rec.srg_params(listed).tuple4 == family_srg(d)


def toggled(graph, x, y):
    """graph with the pair {x, y} flipped between edge and non-edge."""
    rows = list(graph.rows)
    rows[x] ^= 1 << y
    rows[y] ^= 1 << x
    return gc.Graph(graph.order, rows)


# one value of the piece differs from the witness decompose just proved:
# (ddg, partition, design) from the witness d
UNPROVEN_PIECES = {
    "classes_reversed": lambda d: (d.ddg, rec.CanonicalPartition(d.ddg_partition.classes[::-1]), d.design),
    "blocks_permuted": lambda d: (d.ddg, d.ddg_partition, ds.SymmetricDesign(
        d.design.v_pts, d.design.blocks[1:] + d.design.blocks[:1], d.design.k_blk, d.design.lam)),
    "another_design": lambda d: (d.ddg, d.ddg_partition, ds.all_ksubsets_design(4)),
    "edge_toggled": lambda d: (toggled(d.ddg, 0, d.ddg.order - 1), d.ddg_partition, d.design),
}


class TestProvenPiece:
    """decompose stores the piece of each witness it proves, so gluing
    onto it checks only phi; a piece differing in any one value gets the
    full checks, which give what the stored verdict gives."""

    def test_a_piece_decompose_proved_is_not_checked_again(self, sp43, premise_calls):
        d = asm.decompose(sp43, cq.CocliqueQuery(mode="first"))[0]
        graphs = {asm.attach_coclique(d.ddg, d.ddg_partition, d.design, phi)
                  for phi in permutations(range(4))}
        assert premise_calls == {}
        assert len(graphs) == 24
        assert {rec.srg_params(g).tuple4 for g in graphs} == {family_srg(d)}

    @pytest.mark.parametrize("change", sorted(UNPROVEN_PIECES))
    def test_one_differing_value_gets_the_full_checks(self, sp43, premise_calls, change):
        d = asm.decompose(sp43, cq.CocliqueQuery(mode="first"))[0]
        piece = UNPROVEN_PIECES[change](d)
        assert piece != (d.ddg, d.ddg_partition, d.design)
        phi = (1, 2, 3, 0)
        if change == "edge_toggled":
            for _ in range(2):
                with pytest.raises(asm.ParameterMismatch):
                    asm.attach_coclique(*piece, phi)
            assert premise_calls == {"ddg_recognize": 2}
            return
        built = [asm.attach_coclique(*piece, phi) for _ in range(2)]
        assert premise_calls == {"ddg_recognize": 1, "verify_design": 1}
        assert built[0] == built[1]
        assert rec.srg_params(built[0]).tuple4 == family_srg(d)

    def test_a_failed_check_leaves_the_proven_piece(self, sp43, premise_calls):
        d = asm.decompose(sp43, cq.CocliqueQuery(mode="first"))[0]
        phi = (3, 2, 1, 0)
        bad_ddg = toggled(d.ddg, 0, 1)
        lam3 = ds.SymmetricDesign(d.design.v_pts, d.design.blocks, d.design.k_blk, d.design.lam + 1)
        with pytest.raises(asm.ParameterMismatch):
            asm.attach_coclique(bad_ddg, d.ddg_partition, d.design, phi)
        with pytest.raises(asm.DesignMismatch):
            asm.attach_coclique(d.ddg, d.ddg_partition, lam3, phi)
        assert premise_calls == {"ddg_recognize": 2, "verify_design": 1}
        built = asm.attach_coclique(d.ddg, d.ddg_partition, d.design, phi)
        assert premise_calls == {"ddg_recognize": 2, "verify_design": 1}
        assert rec.srg_params(built).tuple4 == family_srg(d)

    @pytest.mark.parametrize("phi", [
        (1.0, 0.0, 2.0, 3.0),
        (1, 0, 2, 3.0),
        (True, False, 2, 3),
        ("1", "0", "2", "3"),
        ("1", 0, 2, 3),
    ], ids=["floats", "one_float", "bools", "strs", "one_str"])
    def test_phi_entries_must_be_ints(self, piece43, premise_calls, phi):
        # the first call runs the full checks and stores the piece, the
        # second finds it stored; phi is refused on both
        d = piece43
        for _ in range(2):
            with pytest.raises(asm.PhiNotBijective, match="not a bijection"):
                asm.attach_coclique(d.ddg, d.ddg_partition, d.design, phi)
        assert premise_calls == {"ddg_recognize": 1, "verify_design": 1}


@pytest.mark.parametrize("name, count", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_proven_piece_glues_as_the_full_checks_do(name, count, premise_calls):
    """For every witness: re-run _split to store its piece and glue its
    phi and a swapped phi with no check of the piece; then forget the
    piece and glue both again through the full checks.  Both paths give
    the same graphs and the same m."""
    graph = oracle_graph(name)
    decs = asm.decompose(graph)
    assert len(decs) == count
    fam = asm._family_gate(graph) if decs else None
    for d in decs:
        phis = [d.phi, (d.phi[1], d.phi[0]) + d.phi[2:]]
        assert asm._split(graph, fam, d.coclique) == d
        fast = [asm.attach_coclique(d.ddg, d.ddg_partition, d.design, phi) for phi in phis]
        fast_m = asm._premises(d.ddg, d.ddg_partition, d.design)
        assert premise_calls["ddg_recognize"] == 0
        asm._proven = None
        full = [asm.attach_coclique(d.ddg, d.ddg_partition, d.design, phi) for phi in phis]
        full_m = asm._premises(d.ddg, d.ddg_partition, d.design)
        assert premise_calls == {"ddg_recognize": 1, "verify_design": 1}
        assert fast == full
        assert fast_m == full_m == d.m
        premise_calls.clear()


class TestDecompose:
    def test_sp42_all_15(self, sp42, dec15):
        assert len(dec15) == 15
        for d in dec15:
            assert d.ddg_params.tuple6 == (12, 6, 2, 3, 3, 4)
            assert d.design.params == (3, 2, 1)
            assert ds.verify_design(d.design) is True
            assert (d.n, d.s) == (4, -2)

    def test_sp43_has_decomposition(self, sp43):
        decs = asm.decompose(sp43, cq.CocliqueQuery(mode="first"))
        assert decs
        d = decs[0]
        assert d.ddg_params.tuple6 == (36, 24, 15, 16, 4, 9)
        assert d.design.params == (4, 3, 2)

    def test_sp62_family(self, sp62, dec63):
        assert len(dec63) == 135
        d = dec63[0]
        assert d.ddg_params.tuple6 == (56, 28, 12, 14, 7, 8)
        assert d.design.params == (7, 4, 2)
        # the design is the complement of the hyperplane design of PG(2,2)
        from srgddg import galois

        fano_c = ds.complement_design(galois.pg_hyperplane_design(3, galois.fieldspec(2, 1)))
        assert d.design.params == fano_c.params

    def test_grid_negative_control(self, grid66):
        assert asm.decompose(grid66) == []

    def test_lambda_ne_mu_needs_no_search(self, grid66, petersen):
        # a budget of one node would be exhausted by any coclique search
        one = cq.CocliqueQuery(node_budget=1)
        for g in (grid66, gc.grid(3, 3), gc.complement_of(petersen)):
            p = rec.srg_params(g)
            assert p.lam != p.mu
            assert asm.decompose(g, one) == []

    def test_no_hoffman_bound(self):
        # the complement of the Clebsch graph, SRG(16,10,6,6): lambda = mu,
        # but the coclique bound 8/3 is no integer, so no Hoffman coclique
        cube = [(x, y) for x in range(16) for y in range(x) if (x ^ y).bit_count() in (1, 4)]
        g = gc.complement_of(gc.from_edges(16, cube))
        p = rec.srg_params(g)
        assert p.tuple4 == (16, 10, 6, 6) and str(p.c) == "8/3"
        assert asm.decompose(g) == []

    def test_outside_the_family_needs_no_search(self):
        # lambda = mu and an integral coclique bound, but no (n, s)
        # family: grid(4, 4) = SRG(16,6,2,2) would need n = 3 and
        # lambda2 = 4/3, and L_3(6) = SRG(36,15,6,6), from the cyclic
        # Latin square i + j mod 6, n = 5 and lambda2 = 24/5.  A budget of
        # one node would be exhausted by any coclique search.
        cells = [(i, j) for i in range(6) for j in range(6)]
        latin = gc.from_edges(36, [
            (a, b) for b in range(36) for a in range(b)
            if cells[a][0] == cells[b][0] or cells[a][1] == cells[b][1]
            or (sum(cells[a]) - sum(cells[b])) % 6 == 0
        ])
        one = cq.CocliqueQuery(node_budget=1)
        for g, tuple4 in ((gc.grid(4, 4), (16, 6, 2, 2)), (latin, (36, 15, 6, 6))):
            p = rec.srg_params(g)
            assert p.tuple4 == tuple4 and p.c.denominator == 1
            assert not theory.family_from(p.k // -p.s, p.s)
            assert asm.decompose(g, one) == []
        # the 24 Hoffman cocliques of grid(4, 4) are no witnesses
        grid44 = gc.grid(4, 4)
        cocliques = cq.hoffman_cocliques(grid44, rec.srg_params(grid44))
        assert len(cocliques) == 24 and generic_decompose(grid44) == []

    def test_one_family_lookup_per_graph(self, monkeypatch, sp62):
        calls = []
        real = theory.family_from

        def counted(n, s):
            calls.append((n, s))
            return real(n, s)

        monkeypatch.setattr(theory, "family_from", counted)
        assert len(asm.decompose(sp62)) == 135
        assert calls == [(8, -4)]

    def test_quotient_always_constant(self, sp42):
        # the oracle of the constant quotient matrix, which decompose
        # derives from lambda = mu and the design instead of checking it
        for graph in [sp42] + [oracle_graph(name) for name, _ in ORACLE_CASES]:
            for d in asm.decompose(graph):
                q = rec.quotient_matrix(d.ddg, d.ddg_partition)
                assert q and q.is_constant(d.n + d.s)

    def test_rejects_non_srg(self):
        with pytest.raises(asm.AssemblyError, match="not strongly regular"):
            asm.decompose(gc.cycle(6))

    def test_rejects_imprimitive(self):
        g = gc.complement_of(gc.from_edges(6, [(0, 1), (2, 3), (4, 5)]))
        with pytest.raises(asm.AssemblyError, match="imprimitive"):
            asm.decompose(g)

    def test_errors_share_the_package_base(self):
        # one except SrgddgError catches them; ValueError still does too
        with pytest.raises(SrgddgError, match="not strongly regular"):
            asm.decompose(gc.cycle(6))
        with pytest.raises(ValueError, match="not strongly regular"):
            asm.decompose(gc.cycle(6))

    def test_budget_flagged_partial(self, sp62):
        with pytest.raises(BudgetExceeded) as info:
            asm.decompose(sp62, cq.CocliqueQuery(node_budget=60))
        # partial decompositions from the cocliques found before cutoff
        assert isinstance(info.value.partial, list)
        for d in info.value.partial:
            assert d.ddg_params.tuple6 == (56, 28, 12, 14, 7, 8)

    @pytest.mark.parametrize("twist, cocliques, witnesses", [("4cycle", 79, 1), ("3cycle", 87, 9)])
    def test_budget_ladder_keeps_a_prefix(self, twist, cocliques, witnesses):
        # a budget hit counts the node past the budget and carries the
        # witnesses found before it, a prefix of the full list; mode
        # "first" stops at its witness, so a hit there has found none
        g = oracle_graph(f"sp62_{twist}")
        p = rec.srg_params(g)
        assert len(cq.hoffman_cocliques(g, p)) == cocliques

        def least_budget(search):
            """The least budget that search(budget) finishes within."""
            def finishes(budget):
                try:
                    search(budget)
                except BudgetExceeded:
                    return False
                return True

            return bisect.bisect_left(range(cq.DEFAULT_NODE_BUDGET), True, key=finishes)

        # the nodes of the whole walk, and of the walk up to the first witness
        nodes = least_budget(lambda b: cq.hoffman_cocliques(g, p, cq.CocliqueQuery(node_budget=b)))
        first = least_budget(lambda b: asm.decompose(g, cq.CocliqueQuery("first", b)))
        want = asm.decompose(g)
        assert len(want) == witnesses and first <= nodes
        kept = []
        budgets = {1, first - 1, first, nodes // 4, nodes // 2, 3 * nodes // 4, nodes - 1, nodes}
        for budget in sorted(budgets):
            for mode in ("all", "first"):
                try:
                    got = asm.decompose(g, cq.CocliqueQuery(mode, budget))
                except BudgetExceeded as exc:
                    assert exc.nodes == budget + 1
                    assert exc.partial == want[: len(exc.partial)]
                    assert mode == "all" or exc.partial == []
                    kept.append(len(exc.partial))
                else:
                    assert got == (want if mode == "all" else want[:1])
                    assert budget >= (nodes if mode == "all" else first)
        assert 0 in kept and (first == nodes or max(kept) > 0)

    def test_deterministic_order(self, sp42):
        a = asm.decompose(sp42)
        b = asm.decompose(sp42)
        assert [d.coclique for d in a] == [d.coclique for d in b]
        assert [d.coclique for d in a] == sorted(
            (d.coclique for d in a), key=lambda c: tuple(gc.set_of(c))
        )


class TestRoundtrips:
    def test_forward_backward(self, dec15):
        # rebuild from each witness and recover an isomorphic DDG
        from srgddg import iso

        d = dec15[0]
        graph = asm.attach_coclique(d.ddg, d.ddg_partition, d.design, (2, 0, 1))
        decs = asm.decompose(graph)
        assert decs
        base = iso.canonical_form(d.ddg).certificate
        assert any(iso.canonical_form(x.ddg).certificate == base for x in decs)

    def test_added_points_form_hoffman_coclique(self, dec15):
        d = dec15[0]
        graph = asm.attach_coclique(d.ddg, d.ddg_partition, d.design, (0, 1, 2))
        tail = gc.mask_of(range(12, 15))
        assert gc.induced_subgraph(graph, tail) == gc.edgeless(3)
        p = rec.srg_params(graph)
        assert p.hoffman_size() == 3


@pytest.mark.parametrize("name, count", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_witness_replays_to_the_graph(name, count):
    """attach_coclique on a witness's own fields gives the graph with the
    vertices outside the coclique first and the coclique vertices after
    them, both ascending; the design is a symmetric design with the
    family's parameters; swapping two entries of phi does not, but still
    gives a strongly regular graph of the family."""
    graph = oracle_graph(name)
    full = (1 << graph.order) - 1
    decs = asm.decompose(graph)
    assert len(decs) == count
    for d in decs:
        order = gc.set_of(full ^ d.coclique) + gc.set_of(d.coclique)
        want = renamed(graph, {x: i for i, x in enumerate(order)})
        assert asm.attach_coclique(d.ddg, d.ddg_partition, d.design, d.phi) == want
        # design_axioms in tests/oracles.py, all five axioms by brute force,
        # confirms what Ryser's theorem proves
        assert ds.verify_design(d.design) is True
        assert design_axioms(d.design) is True
        assert d.design.params == ds.required_design_params(d.n, d.s)
        swapped = (d.phi[1], d.phi[0]) + d.phi[2:]
        twisted = asm.attach_coclique(d.ddg, d.ddg_partition, d.design, swapped)
        assert twisted != want
        # srg_params, kept as the oracle, confirms what attach_coclique proves
        assert rec.srg_params(twisted).tuple4 == theory.family_from(d.n, d.s).srg.tuple4
