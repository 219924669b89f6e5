import collections
import hashlib
import pathlib

import pytest

from srgddg import designs as ds
from srgddg import exact as ex
from srgddg import galois
from srgddg import graphcore as gc
from srgddg import recognize as rec
from srgddg import theory as th
from srgddg.errors import NoHoffmanBound

from oracles import srg_parameter_sets


def params(v, k, lam, mu):
    p = rec.srg_params_from_tuple(v, k, lam, mu)
    assert p, f"expected feasible parameters, got {p}"
    return p


class TestFamilyFrom:
    @pytest.mark.parametrize(
        "n,s,srg,ddg,m",
        [
            (9, -3, (40, 27, 18, 18), (36, 24, 15, 16, 4, 9), 4),
            (12, -6, (143, 72, 36, 36), (132, 66, 30, 33, 11, 12), 11),
            (36, -6, (259, 216, 180, 180), (252, 210, 174, 175, 7, 36), 7),
            (4, -2, (15, 8, 4, 4), (12, 6, 2, 3, 3, 4), 3),
            (8, -4, (63, 32, 16, 16), (56, 28, 12, 14, 7, 8), 7),
        ],
    )
    def test_known_families(self, n, s, srg, ddg, m):
        fam = th.family_from(n, s)
        assert fam
        assert fam.srg.tuple4 == srg
        assert fam.ddg.tuple6 == ddg
        assert fam.m == m

    def test_infeasible_m(self):
        res = th.family_from(5, -2)  # m = 2*4/3
        assert not res and "m =" in res.reason

    def test_infeasible_lambda2(self):
        res = th.family_from(3, -2)  # lambda2 = 2*2*1/3
        assert not res

    def test_preconditions(self):
        assert not th.family_from(1, -2)
        assert not th.family_from(4, -1)
        assert not th.family_from(4, -4)

    def test_srg_side_invariants(self):
        for n, s in [(4, -2), (9, -3), (8, -4), (12, -6), (36, -6), (16, -4)]:
            fam = th.family_from(n, s)
            if not fam:
                continue
            p = fam.srg
            assert p.k * (p.k - p.lam - 1) == p.mu * (p.v - p.k - 1)
            assert p.r == -p.s == -s  # lambda = mu forces r + s = 0
            assert fam.ddg.K**2 == fam.ddg.lambda2 * fam.ddg.V
            assert p.hoffman_size() == fam.m


class TestPrimePower:
    def test_q2_d2(self):
        assert th.resolve_prime_power(th.family_from(4, -2)) == th.PrimePowerResolution(2, 2)

    def test_q3_d2(self):
        assert th.resolve_prime_power(th.family_from(9, -3)) == th.PrimePowerResolution(3, 2)

    def test_q2_d3(self):
        assert th.resolve_prime_power(th.family_from(8, -4)) == th.PrimePowerResolution(2, 3)

    def test_minus_six_not_prime_power(self):
        res = th.resolve_prime_power(th.family_from(12, -6))
        assert not res and "not a prime power" in res.reason

    def test_every_feasible_prime_power_family_resolves(self):
        # the parameter calculus guarantees n = q^d whenever -s is a
        # prime power; sweep a grid to confirm no Inconsistent escapes.
        # Each family with v <= 1100 has the parameters of the Sp(2d, q)
        # complement built from its (d, q); CI checks those up to v = 5000
        built = 0
        for ent in th.enumerate_feasible(-16, -2, 300):
            if ds._prime_power(-ent.s):
                assert isinstance(ent.prime_power, th.PrimePowerResolution)
                q, d = ent.prime_power.q, ent.prime_power.d
                assert q**d == ent.n and q ** (d - 1) == -ent.s and d >= 2
                if ent.family.srg.v <= 1100:
                    g = galois.symplectic_complement(d, galois.field_by_order(q))
                    assert rec.srg_params(g).tuple4 == ent.family.srg.tuple4
                    built += 1
        assert built == 11


class TestPuncturedSpectrum:
    def test_srg_15_8_4_4(self):
        ps = th.punctured_spectrum(params(15, 8, 4, 4))
        assert ps.entries == ((6, 1), (2, 3), (0, 2), (-2, 6))
        assert ps.merged() == {6: 1, 2: 3, 0: 2, -2: 6}
        assert ps.four_distinct  # c = 3 < g = 9

    def test_petersen_degenerate_multiplicity(self):
        ps = th.punctured_spectrum(params(10, 3, 0, 1))
        assert ps.entries == ((1, 1), (1, 2), (-1, 3), (-2, 0))
        assert ps.merged() == {1: 3, -1: 3}
        assert not ps.four_distinct  # c = 4 = g

    def test_srg_40_27_18_18(self):
        ps = th.punctured_spectrum(params(40, 27, 18, 18))
        assert ps.entries == ((24, 1), (3, 12), (0, 3), (-3, 20))

    def test_total_is_v_minus_c(self):
        for t in [(15, 8, 4, 4), (10, 3, 0, 1), (40, 27, 18, 18), (63, 32, 16, 16),
                  (36, 10, 4, 2), (27, 16, 10, 8)]:
            p = params(*t)
            assert th.punctured_spectrum(p).total == p.v - p.hoffman_size()

    def test_non_integral_bound_raises(self):
        p = params(10, 6, 3, 4)  # complement of Petersen, c = 5/2
        with pytest.raises(NoHoffmanBound):
            th.punctured_spectrum(p)

    def test_bound_above_a_multiplicity_raises(self):
        # the Clebsch graph (16,5,0,2): c = 6 exceeds g = 5, so s would
        # keep multiplicity g - c = -1 on the punctured graph
        p = params(16, 5, 0, 2)
        assert (p.hoffman_size(), p.g) == (6, 5)
        with pytest.raises(NoHoffmanBound, match=r"^punctured multiplicities negative for c = 6$"):
            th.punctured_spectrum(p)

    def test_matches_actual_induced_spectrum(self, t6):
        # oracle: remove a Hoffman coclique and diagonalize exactly
        from srgddg.coclique import hoffman_cocliques

        p = rec.srg_params(t6)
        C = hoffman_cocliques(t6, p)[0]
        ddg = gc.induced_subgraph(t6, (1 << 15) - 1 ^ C)
        spec = ex.integral_spectrum(ddg)
        assert spec.as_dict() == th.punctured_spectrum(p).merged()

    def test_holds_even_without_a_divisible_design(self, grid66):
        # the punctured spectrum is forced by the Hoffman coclique alone;
        # the 6x6 grid minus a transversal is NOT a divisible design
        # graph, yet its exact spectrum must match the prediction
        p = rec.srg_params(grid66)
        ps = th.punctured_spectrum(p)
        assert ps.entries == ((8, 1), (4, 5), (2, 5), (-2, 19))
        diag = gc.mask_of([i * 6 + i for i in range(6)])
        rest = gc.induced_subgraph(grid66, (1 << 36) - 1 ^ diag)
        assert not rec.ddg_recognize(rest)
        spec = ex.integral_spectrum(rest)
        assert spec.as_dict() == ps.merged()


class TestDdgSpectrum:
    @pytest.mark.parametrize(
        "tup,eigs,fsum,gsum",
        [
            ((12, 6, 2, 3, 3, 4), {6, 2, -2, 0}, 9, 2),
            ((36, 24, 15, 16, 4, 9), {24, 3, -3, 0}, 32, 3),
            ((56, 28, 12, 14, 7, 8), {28, 4, -4, 0}, 49, 6),
        ],
    )
    def test_family_spectra(self, tup, eigs, fsum, gsum):
        sp = th.ddg_spectrum(rec.DdgParams(*tup))
        assert sp.eigenvalue_set() == eigs
        assert sp.f_sum == fsum and sp.g_sum == gsum
        assert sp.beta == 0  # vanishing eigenvalue of the family

    def test_negative_discriminant(self):
        with pytest.raises(ValueError, match="discriminant"):
            th.ddg_spectrum(rec.DdgParams(8, 2, 6, 1, 2, 4))

    def test_irrational_flagged(self):
        sp = th.ddg_spectrum(rec.DdgParams(6, 3, 1, 1, 2, 3))
        assert sp.alpha2 == 2 and sp.alpha is None

    def test_trace_bound_on_nonzero_beta(self, t6):
        # composition DDG (30,16,16,8;15,2): beta = 4, and the actual
        # multiplicities make the trace bound tight at 0
        comp = gc.composition(t6, gc.edgeless(2))
        wits = rec.ddg_recognize(comp)
        dp = next(d for d, _ in wits if d.tuple6 == (30, 16, 16, 8, 15, 2))
        want = th.ddg_spectrum(dp)
        assert (want.alpha, want.beta) == (0, 4)
        spec = ex.integral_spectrum(comp)
        sd = spec.as_dict()
        g1, g2 = sd.get(want.beta, 0), sd.get(-want.beta, 0)
        assert g1 + g2 == want.g_sum == 14
        trace = dp.K + (g1 - g2) * want.beta
        assert 0 <= trace <= dp.m * (dp.n - 1)
        assert trace == 0  # 16 + (5-9)*4


class TestMatchSpectrumShapes:
    def test_srg40_unique_accepted(self):
        ms = th.match_spectrum_shapes(params(40, 27, 18, 18))
        acc = [m for m in ms if m.accepted]
        assert len(acc) == 1
        m = acc[0]
        assert m.case == "coincidence K^2=lambda2*V"
        assert m.ddg_params().tuple6 == (36, 24, 15, 16, 4, 9)
        assert m.inferred["m"] == 4  # c = m

    def test_srg27_rejected_by_divisibility(self):
        ms = th.match_spectrum_shapes(params(27, 16, 10, 8))
        assert not any(m.accepted for m in ms)
        case5 = next(m for m in ms if m.case == "5")
        assert case5.verdict == th.REJECTED
        assert "m = 5 does not divide V = 24" in case5.reason

    def test_grid9_rejected(self):
        ms = th.match_spectrum_shapes(params(9, 4, 1, 2))
        assert not any(m.accepted for m in ms)
        case4 = next(m for m in ms if m.case == "4")
        assert "does not divide" in case4.reason

    def test_no_open_candidates_on_corpus(self):
        corpus = [
            (40, 27, 18, 18), (27, 16, 10, 8), (9, 4, 1, 2), (36, 10, 4, 2),
            (28, 12, 6, 4), (70, 27, 12, 9), (81, 24, 9, 6), (10, 3, 0, 1),
            (15, 8, 4, 4), (63, 32, 16, 16), (45, 12, 3, 3), (96, 20, 4, 4),
        ]
        for t in corpus:
            p = rec.srg_params_from_tuple(*t)
            if not p or not p.primitive or p.c.denominator != 1:
                continue
            for m in th.match_spectrum_shapes(p):
                assert m.verdict != th.OPEN, (t, m)

    def test_family_graphs_accept_with_c_equals_m(self):
        for n, s in [(4, -2), (9, -3), (8, -4), (12, -6), (36, -6)]:
            fam = th.family_from(n, s)
            ms = th.match_spectrum_shapes(fam.srg)
            acc = [m for m in ms if m.accepted]
            assert len(acc) == 1
            assert acc[0].ddg_params().tuple6 == fam.ddg.tuple6
            assert acc[0].inferred["m"] == fam.m == fam.srg.hoffman_size()

    def test_rows_2367_subsumed_when_r_plus_s_zero(self):
        ms = {m.case: m for m in th.match_spectrum_shapes(params(15, 8, 4, 4))}
        for case in ("2", "3", "6", "7"):
            assert ms[case].verdict == th.SUBSUMED

    def test_composition_coincidence_always_dies(self):
        # the K = lambda1 coincidence needs 2(m-1) >= mn
        for t in [(15, 8, 4, 4), (40, 27, 18, 18), (63, 32, 16, 16), (45, 12, 3, 3)]:
            ms = th.match_spectrum_shapes(params(*t))
            m = next(x for x in ms if x.case == "coincidence K=lambda1")
            assert m.verdict == th.REJECTED

    def test_bruck_ryser_chowla_is_the_last_filter(self):
        # (1012,675,450,450) is the family n = 45, s = -15; it passes every
        # arithmetic filter, but its design (22,15,10) has v even and
        # k - lambda = 5 not a square, so no such split exists
        assert not ds.bruck_ryser_chowla(22, 15, 10)
        ms = th.match_spectrum_shapes(params(1012, 675, 450, 450))
        assert not any(m.accepted for m in ms)
        m = next(x for x in ms if x.case == "coincidence K^2=lambda2*V")
        assert m.verdict == th.REJECTED
        assert "(22, 15, 10)" in m.reason and "Bruck-Ryser-Chowla" in m.reason
        assert m.inferred["design"] == (22, 15, 10)

    def test_imprimitive_rejected(self):
        g = gc.complement_of(gc.from_edges(6, [(0, 1), (2, 3), (4, 5)]))
        p = rec.srg_params(g)
        with pytest.raises(ValueError, match="primitive"):
            th.match_spectrum_shapes(p)

    def test_case_verdicts_exhaustive(self):
        ms = th.match_spectrum_shapes(params(40, 27, 18, 18))
        assert {m.case for m in ms} == {
            "1", "2", "3", "4", "5", "6", "7", "8",
            "coincidence K=lambda1", "coincidence K^2=lambda2*V",
        }


def feasible_srg_tuples(v_max):
    """The primitive SRG parameter sets with v <= v_max: the oracle's
    eigenvalue enumeration, kept where the library finds integral
    multiplicities."""
    sets = (rec.srg_params_from_tuple(*t) for t in srg_parameter_sets(v_max))
    return [p for p in sets if p and p.primitive]


class TestShapeMatchingSweep:
    def test_parameter_sets_match_the_counting_loop(self):
        # every (v, k, lambda) with mu from k(k-lambda-1) = mu(v-k-1)
        # gives the same 207 primitive sets at v <= 120
        loop = set()
        for v in range(5, 121):
            for k in range(2, v - 1):
                for lam in range(k):
                    mu, rem = divmod(k * (k - lam - 1), v - k - 1)
                    if not rem and 0 < mu < k and rec.srg_params_from_tuple(v, k, lam, mu):
                        loop.add((v, k, lam, mu))
        sets = [p.tuple4 for p in feasible_srg_tuples(120)]
        assert len(sets) == len(loop) == 207
        assert set(sets) == loop

    def test_no_open_verdict_and_families_accepted_up_to_v_1100(self):
        # the eigenvalue enumeration up to v = 1100: no shape is left open,
        # and the sets with an accepted shape are exactly the (n, s)
        # families that pass handshake parity and whose design passes
        # Bruck-Ryser-Chowla.  v >= 4s^2 + s for a family, so s >= -16
        # lists all of them
        tuples = srg_parameter_sets(1100)
        sets = feasible_srg_tuples(1100)
        no_bound, accepted = 0, set()
        for p in sets:
            try:
                matches = th.match_spectrum_shapes(p)
            except NoHoffmanBound:
                no_bound += 1
                continue
            for m in matches:
                assert m.verdict != th.OPEN, (p.tuple4, m)
                if m.accepted:
                    accepted.add(p.tuple4)
        assert (len(tuples), len(sets), no_bound) == (25_493, 3_680, 1_479)
        families = {
            e.family.srg.tuple4 for e in th.enumerate_feasible(-16, -2, with_brc=True)
            if e.handshake_ok and e.brc_ok and e.family.srg.v <= 1100
        }
        assert len(families) == 18
        assert accepted == families

    def test_accepted_matches_always_reproduce_a_family(self):
        # over every feasible parameter tuple with v <= 120 and integral
        # coclique bound: an accepted shape must be the beta-degenerate
        # coincidence with r = -s, and its inferred DDG must equal the
        # family tuple for (n, s)
        hits = 0
        for p in feasible_srg_tuples(120):
            if p.c.denominator != 1:
                continue
            for m in th.match_spectrum_shapes(p):
                if not m.accepted:
                    continue
                hits += 1
                assert m.case == "coincidence K^2=lambda2*V"
                assert p.r == -p.s
                fam = th.family_from(m.inferred["n"], p.s)
                assert fam and fam.ddg.tuple6 == m.ddg_params().tuple6
                assert fam.srg.tuple4 == p.tuple4
                assert m.inferred["m"] == p.hoffman_size()
        assert hits >= 3  # the sweep must actually exercise acceptances

    def test_sweep_never_crashes_and_verdicts_legal(self):
        legal = {th.ACCEPTED, th.REJECTED, th.SUBSUMED, th.OPEN}
        for p in feasible_srg_tuples(80):
            if p.c.denominator != 1:
                continue
            for m in th.match_spectrum_shapes(p):
                assert m.verdict in legal
                if m.verdict == th.REJECTED:
                    assert m.reason

    def test_every_match_pinned_for_k_below_130(self):
        # every primitive parameter set with k < 130, v from
        # k(k-lambda-1) = mu(v-k-1): each match, in order, with its case,
        # verdict, reason and inferred items in key order, and the error
        # of each set without an integral coclique bound.  The complete
        # graph (k = v - 1) is no parameter set, so 1,082 sets remain
        digest = hashlib.sha256()
        verdicts = collections.Counter()
        for k in range(1, 130):
            for lam in range(k):
                for mu in range(1, k + 1):
                    v_k_1, rem = divmod(k * (k - lam - 1), mu)
                    if rem:
                        continue
                    p = rec.srg_params_from_tuple(v_k_1 + k + 1, k, lam, mu)
                    if not p or not p.primitive:
                        continue
                    try:
                        matches = th.match_spectrum_shapes(p)
                    except NoHoffmanBound as exc:
                        digest.update(repr(str(exc)).encode())
                        continue
                    for m in matches:
                        verdicts[m.verdict] += 1
                        item = (m.case, m.verdict, m.reason, list(m.inferred.items()))
                        digest.update(repr(item).encode())
        assert verdicts == {th.REJECTED: 8_015, th.SUBSUMED: 148, th.ACCEPTED: 7}
        assert th.OPEN not in verdicts
        assert digest.hexdigest() == (
            "f209c95674de830dd0e8f41129e4830943be04bbf5fb2d938d014335b1bc4d99"
        )


class TestEnumerateFeasible:
    def test_s_minus_6(self):
        es = th.enumerate_feasible(-6, -6, 40)
        assert [e.n for e in es] == [9, 12, 36]
        assert [e.n for e in es if e.handshake_ok] == [12, 36]
        by_n = {e.n: e for e in es}
        assert by_n[12].family.ddg.tuple6 == (132, 66, 30, 33, 11, 12)
        assert by_n[12].family.srg.tuple4 == (143, 72, 36, 36)
        assert by_n[36].family.ddg.tuple6 == (252, 210, 174, 175, 7, 36)
        assert by_n[36].family.srg.tuple4 == (259, 216, 180, 180)

    def test_s_minus_6_elimination_reason(self):
        # n = 9 dies because a class would induce a 3-regular graph on 9
        # vertices: n(n+s) odd
        es = th.enumerate_feasible(-6, -6, 40)
        n9 = next(e for e in es if e.n == 9)
        assert not n9.handshake_ok
        assert 9 * (9 - 6) % 2 == 1

    def test_s_minus_2_brute_force_oracle(self):
        # independent oracle: check both divisibility conditions directly
        brute = [
            n
            for n in range(3, 51)
            if (2 * (n - 1)) % (n - 2) == 0 and (2 * (n - 1) * (n - 2)) % n == 0
        ]
        got = [e.n for e in th.enumerate_feasible(-2, -2, 50)]
        assert got == brute == [4]

    def test_divisor_enumeration_complete(self):
        # n + s divides s(s+1), so no n beyond s(s+1) - s can be feasible;
        # scan every n up to there and compare with the unbounded list
        for s in range(-20, -1):
            brute = [n for n in range(2, s * (s + 1) - s + 1) if th.family_from(n, s)]
            assert [e.n for e in th.enumerate_feasible(s, s)] == brute

    def test_sp4_11_needs_no_bound(self):
        es = th.enumerate_feasible(-11, -11)
        assert [e.n for e in es] == [121]
        assert es[0].prime_power == th.PrimePowerResolution(11, 2)
        assert th.enumerate_feasible(-11, -11, 120) == []

    def test_sorted_output(self):
        es = th.enumerate_feasible(-8, -2, 120)
        keys = [(e.s, e.n) for e in es]
        assert keys == sorted(keys)

    def test_brc_annotation_optional(self):
        es = th.enumerate_feasible(-6, -6, 40, with_brc=True)
        assert all(e.brc_ok is not None for e in es)
        es2 = th.enumerate_feasible(-6, -6, 40)
        assert all(e.brc_ok is None for e in es2)

    def test_handshake_never_filters_even_n(self):
        for e in th.enumerate_feasible(-12, -2, 100):
            if e.n % 2 == 0:
                assert e.handshake_ok


FAMILY_TABLE_HEADER = (
    "| (v, k, lambda, mu) | (n, s) | DDG (V, K, lambda1, lambda2, m, n) "
    "| design (v, k, lambda) | prime power (d, q) | handshake | BRC |"
)


def family_table_rows():
    """The rows of the README's family table, rebuilt: every (n, s) family
    with v <= 1100 in order of v, with its Sp (d, q) or "no", and its
    handshake and Bruck-Ryser-Chowla outcomes."""
    def outcome(ok):
        return "pass" if ok else "fails"

    rows = []
    entries = th.enumerate_feasible(-40, -2, with_brc=True)
    for e in sorted(entries, key=lambda e: e.family.srg.v):
        f, pp = e.family, e.prime_power
        if f.srg.v > 1100:
            continue
        cells = (f.srg.tuple4, (f.n, f.s), f.ddg.tuple6, f.design_params,
                 (pp.d, pp.q) if pp else "no", outcome(e.handshake_ok), outcome(e.brc_ok))
        rows.append("| " + " | ".join(map(str, cells)) + " |")
    return rows


def test_readme_family_table_is_the_computation():
    # the table of the 21 families with v <= 1100 in README.md, row for
    # row; s >= -40 holds them all, as v >= 4s^2 + s
    lines = (pathlib.Path(__file__).parent.parent / "README.md").read_text().splitlines()
    at = lines.index(FAMILY_TABLE_HEADER) + 2  # past the separator row
    table = []
    while at < len(lines) and lines[at].startswith("|"):
        table.append(lines[at])
        at += 1
    want = family_table_rows()
    assert len(want) == 21
    assert table == want
