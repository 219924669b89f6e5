import time
from pathlib import Path

import pytest

import oracles
from srgddg import designs as ds
from srgddg import galois as gf
from srgddg import graphcore as gc
from srgddg import recognize as rec
from srgddg.coclique import CocliqueQuery, cocliques_of_size
from srgddg.errors import SizeCapExceeded


class TestFieldArithmetic:
    def test_gf2_addition(self):
        F = gf.fieldspec(2, 1)
        assert F.add(1, 1) == 0

    def test_gf3_inverse(self):
        F = gf.fieldspec(3, 1)
        assert F.inv(2) == 2  # 2*2 = 4 = 1 mod 3

    def test_gf4_modulus_and_generator(self):
        F = gf.fieldspec(2, 2)
        assert F.modulus == (1, 1, 1)  # x^2 + x + 1, the only choice
        assert F.mul(2, 2) == 3  # x*x = x + 1

    def test_not_prime_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            gf.fieldspec(6, 1)

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            gf.fieldspec(2, 17)

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
    def test_field_axioms(self, p, e):
        F = gf.fieldspec(p, e)
        q = F.q
        elems = list(F.elements())
        for a in elems:
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        # associativity/commutativity/distributivity on a subgrid
        sub = elems if q <= 9 else elems[:6]
        for a in sub:
            for b in sub:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in sub:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))

    def test_modulus_is_lex_smallest(self):
        # over GF(3), x^2 + 1 precedes every other irreducible quadratic
        assert gf.fieldspec(3, 2).modulus == (1, 0, 1)

    def test_cap_before_factoring(self):
        # trial division of this prime takes seconds; the cap needs none
        start = time.perf_counter()
        with pytest.raises(SizeCapExceeded):
            gf.field_by_order(100000000000031)
        with pytest.raises(SizeCapExceeded):
            gf.fieldspec(100000000000031)
        assert time.perf_counter() - start < 0.1

    def test_cap_without_building_a_huge_power(self):
        # 2^(10^6) has over 300,000 digits; the message names it as p^e
        for e in (10**6, 10**8):
            start = time.perf_counter()
            with pytest.raises(SizeCapExceeded, match=rf"field size 2\^{e} exceeds cap"):
                gf.fieldspec(2, e)
            assert time.perf_counter() - start < 0.1

    def test_field_by_order(self):
        assert gf.field_by_order(9).q == 9
        assert gf.field_by_order(8).q == 8
        with pytest.raises(ValueError, match="prime power"):
            gf.field_by_order(12)

    def test_cap_is_the_largest_projective_plane(self):
        # PG(2, q), on q^2 + q + 1 points, is the least object built over GF(q)
        cap = gc.GRAPH_SIZE_CAP
        assert gf.FIELD_SIZE_CAP == max(q for q in range(1, cap) if q * q + q + 1 <= cap)

    def test_fields_just_above_the_cap_refused(self):
        for build, size in ((lambda: gf.fieldspec(2, 7), r"2\^7"), (lambda: gf.field_by_order(71), "71")):
            start = time.perf_counter()
            with pytest.raises(SizeCapExceeded, match=rf"field size {size} exceeds cap 70$"):
                build()
            assert time.perf_counter() - start < 0.1


def is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


# the 28 fields under the cap of 70
PRIME_POWERS = [q for q in range(2, 71) if is_prime_power(q)]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_tables_against_digit_oracle(q):
    # every entry of the tables against sums and products of digit polynomials
    F = gf.field_by_order(q)
    els = range(q)
    assert [[F.add(a, b) for b in els] for a in els] == [[oracles.field_add(a, b, F) for b in els] for a in els]
    assert [[F.mul(a, b) for b in els] for a in els] == [[oracles.field_mul(a, b, F) for b in els] for a in els]
    assert all(oracles.field_add(a, F.neg(a), F) == 0 for a in els)
    assert all(oracles.field_mul(a, F.inv(a), F) == 1 for a in els[1:])


class TestSymplecticComplement:
    def test_sp42_is_srg_15_8_4_4(self, sp42):
        p = rec.srg_params(sp42)
        assert p and p.tuple4 == (15, 8, 4, 4)
        # family formulas with s = -2, n = 4
        assert (p.v, p.k, p.lam) == (2 * 15 // 2, 2 * 4, 2 * 2)

    def test_sp62_is_srg_63_32_16_16(self, sp62):
        p = rec.srg_params(sp62)
        assert p and p.tuple4 == (63, 32, 16, 16)

    def test_sp43_is_srg_40_27_18_18(self, sp43):
        p = rec.srg_params(sp43)
        assert p and p.tuple4 == (40, 27, 18, 18)

    def test_regular_degree_q_power(self):
        # degree q^(2d-1) for all vertices
        for d, q, want in ((2, 2, 8), (2, 3, 27), (3, 2, 32)):
            g = gf.symplectic_complement(d, gf.field_by_order(q))
            assert set(g.degrees()) == {want}

    def test_form_is_alternating(self):
        # B(x, x) = 0 keeps every point off its own row
        for q in (2, 3, 4):
            F = gf.field_by_order(q)
            pts = oracles.projective_points(4, F)
            assert all(oracles.symplectic_form(x, x, F) == 0 for x in pts)

    def test_isotropic_cocliques_attain_bound(self, sp42, sp62):
        # maximal totally isotropic subspaces give cocliques of size
        # (q^d-1)/(q-1) = c = vs/(s-k)
        for g, c in ((sp42, 3), (sp62, 7)):
            p = rec.srg_params(g)
            assert p.hoffman_size() == c
            found = cocliques_of_size(g, c, CocliqueQuery(mode="first"))
            assert found, "at least one Hoffman coclique must exist"

    def test_needs_d_at_least_2(self):
        with pytest.raises(ValueError):
            gf.symplectic_complement(1, gf.fieldspec(2, 1))

    def test_size_cap(self, monkeypatch):
        # Sp(14,2) has 16383 points, above the cap: refused before any point is built
        def refuse(*args):
            raise AssertionError("work started above the cap")

        monkeypatch.setattr(gf, "projective_points", refuse)
        with pytest.raises(SizeCapExceeded, match="graph on 16383 vertices exceeds cap 5000"):
            gf.symplectic_complement(7, gf.fieldspec(2, 1))
        # v > 2^(2d-1), so a large d is refused before q^(2d) is built
        start = time.perf_counter()
        with pytest.raises(SizeCapExceeded, match=r"graph on over 2\^27 vertices exceeds cap 5000"):
            gf.symplectic_complement(10**6, gf.fieldspec(3, 1))
        assert time.perf_counter() - start < 0.1

    def test_vertex_order_deterministic(self, sp42):
        again = gf.symplectic_complement(2, gf.fieldspec(2, 1))
        assert again.rows == sp42.rows

    def test_sp10_2_within_a_second(self):
        start = time.perf_counter()
        g = gf.symplectic_complement(5, gf.fieldspec(2, 1))
        assert time.perf_counter() - start < 1.0
        assert g.order == 1023


BASE_G6 = Path(__file__).resolve().parent.parent / "perfbench" / "base.g6"


@pytest.mark.parametrize("name,d,q", [("sp4_3", 2, 3), ("sp6_2", 3, 2), ("sp4_4", 2, 4), ("sp10_2", 5, 2)])
def test_graph6_pinned_by_benchmark_input(name, d, q):
    # the committed benchmark input holds the graph6 of these complements
    lines = dict(line.split() for line in BASE_G6.read_text().splitlines() if line.strip())
    g = gf.symplectic_complement(d, gf.field_by_order(q))
    assert gc.encode_graph6(g).decode() == lines[name]


class TestHyperplaneOracles:
    """The bitset hyperplanes against the pairwise builders of oracles.py."""

    @pytest.mark.parametrize("dim,q", [(2, 2), (3, 3), (4, 2), (3, 4), (2, 7)])
    def test_projective_points(self, dim, q):
        F = gf.field_by_order(q)
        assert gf.projective_points(dim, F) == oracles.projective_points(dim, F)

    @pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2), (2, 4), (2, 5), (4, 2), (3, 3), (2, 7), (2, 8)])
    def test_symplectic_rows(self, d, q):
        F = gf.field_by_order(q)
        assert list(gf.symplectic_complement(d, F).rows) == oracles.symplectic_rows(d, F)

    @pytest.mark.parametrize("d,q", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (5, 2)])
    def test_pg_blocks(self, d, q):
        F = gf.field_by_order(q)
        assert list(gf.pg_hyperplane_design(d, F).blocks) == oracles.pg_blocks(d, F)


class TestPgHyperplaneDesign:
    def test_fano(self):
        d = gf.pg_hyperplane_design(3, gf.fieldspec(2, 1))
        assert d.params == (7, 3, 1)
        assert ds.verify_design(d) is True

    def test_fano_complement(self):
        d = ds.complement_design(gf.pg_hyperplane_design(3, gf.fieldspec(2, 1)))
        assert d.params == (7, 4, 2)
        assert ds.verify_design(d) is True

    def test_pg32(self):
        d = gf.pg_hyperplane_design(4, gf.fieldspec(2, 1))
        assert d.params == (15, 7, 3)
        assert ds.verify_design(d) is True

    def test_pg_over_gf3(self):
        d = gf.pg_hyperplane_design(3, gf.fieldspec(3, 1))
        assert d.params == (13, 4, 1)
        assert ds.verify_design(d) is True

    def test_degenerate_dimension_rejected(self):
        with pytest.raises(ValueError, match="d >= 3"):
            gf.pg_hyperplane_design(2, gf.fieldspec(3, 1))
