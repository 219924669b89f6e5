import random
from itertools import combinations

import pytest

from srgddg import designs as ds
from srgddg.errors import SizeCapExceeded

FANO_BLOCKS = [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]]


def fano():
    return ds.design_from_blocks(FANO_BLOCKS)


class TestVerify:
    def test_all_2subsets_of_3(self):
        d = ds.design_from_blocks([list(b) for b in combinations(range(3), 2)])
        assert d.params == (3, 2, 1)
        assert ds.verify_design(d) is True

    def test_all_3subsets_of_4(self):
        d = ds.design_from_blocks([list(b) for b in combinations(range(4), 3)])
        assert d.params == (4, 3, 2)
        assert ds.verify_design(d) is True

    def test_flipped_incidence_violates(self):
        blocks = [list(b) for b in FANO_BLOCKS]
        blocks[0] = [0, 1, 3]  # flip one incidence
        d = ds.design_from_blocks(blocks)
        v = ds.verify_design(d)
        assert not v
        assert v.axiom in ("pair coverage", "point replication", "block intersection")

    def test_wrong_block_count_rejected(self):
        with pytest.raises(ValueError, match="blocks"):
            ds.SymmetricDesign(4, (0b111,), 3, 2)


class TestComplement:
    def test_fano_complement(self):
        c = ds.complement_design(fano())
        assert c.params == (7, 4, 2)
        assert ds.verify_design(c) is True

    def test_degenerate_rejected(self):
        d = ds.all_ksubsets_design(4)  # 2-(4,3,2); complement lambda = 0
        with pytest.raises(ValueError, match="degenerate"):
            ds.complement_design(d)

    def test_involution(self):
        d = fano()
        assert ds.complement_design(ds.complement_design(d)).blocks == d.blocks


class TestBuilders:
    @pytest.mark.parametrize("v", [3, 4, 5, 8])
    def test_all_ksubsets(self, v):
        d = ds.all_ksubsets_design(v)
        assert d.params == (v, v - 1, v - 2)
        assert ds.verify_design(d) is True


class TestRequiredParams:
    @pytest.mark.parametrize(
        "n,s,want",
        [(4, -2, (3, 2, 1)), (9, -3, (4, 3, 2)), (8, -4, (7, 4, 2)), (12, -6, (11, 6, 3))],
    )
    def test_known_values(self, n, s, want):
        assert ds.required_design_params(n, s) == want

    def test_counting_identity_always_holds(self):
        for n, s in [(4, -2), (9, -3), (8, -4), (12, -6), (36, -6), (16, -8), (25, -5)]:
            v, k, lam = ds.required_design_params(n, s)
            assert lam * (v - 1) == k * (k - 1)

    def test_nonintegral_lambda_rejected(self):
        with pytest.raises(ValueError, match="not integral"):
            ds.required_design_params(3, -2)  # lambda = 2/3


class TestBruckRyserChowla:
    def test_survivors(self):
        assert ds.bruck_ryser_chowla(7, 3, 1)       # Fano exists
        assert ds.bruck_ryser_chowla(11, 5, 2)      # biplane exists
        assert ds.bruck_ryser_chowla(111, 11, 1)    # passes; excluded elsewhere

    def test_excluded(self):
        assert not ds.bruck_ryser_chowla(43, 7, 1)  # no plane of order 6
        assert not ds.bruck_ryser_chowla(22, 7, 2)  # even v, 5 not a square
        assert not ds.bruck_ryser_chowla(29, 8, 2)  # classical exclusion

    def test_identity_required(self):
        assert not ds.bruck_ryser_chowla(8, 3, 1)


def trial_division(n):
    """{prime: exponent} of |n| by trial division, the oracle of _factor."""
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestFactor:
    def test_against_trial_division(self):
        rng = random.Random(16)
        sample = [rng.randrange(1, 10**9) for _ in range(300)]
        # small, negative, prime powers above the Miller-Rabin bases,
        # and products of two primes near 31,600
        sample += list(range(-50, 300)) + [43**2, 43**5, 65537**2, 31607 * 31627, 2**29, 3**18 * 41]
        for n in sample:
            got = ds._factor(n)
            assert got == trial_division(n), n
            assert list(got) == sorted(got), n

    def test_strong_pseudoprime_to_twelve_bases(self):
        # the least strong pseudoprime to the first 12 prime bases, where
        # the 13th base, 41, is needed for a proof
        assert ds._factor(318665857834031151167461) == {399165290221: 1, 798330580441: 1}

    def test_prime_near_10_18(self):
        assert ds._factor(10**18 + 3) == {10**18 + 3: 1}

    def test_large_semiprime(self):
        p, q = 1000003, 1000000007
        assert ds._factor(-p * q) == {p: 1, q: 1}

    def test_cap_refused_before_any_work(self, monkeypatch):
        def no_work(n):
            raise AssertionError("primality tested above the cap")

        monkeypatch.setattr(ds, "_is_prime", no_work)
        with pytest.raises(SizeCapExceeded, match="cap"):
            ds._factor(ds.FACTOR_CAP)
        with pytest.raises(SizeCapExceeded):
            ds._factor(-ds.FACTOR_CAP - 1)
