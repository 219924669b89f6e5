import random
from itertools import combinations

import pytest
from oracles import design_axioms

from srgddg import designs as ds
from srgddg import galois as gf
from srgddg import graphcore as gc
from srgddg.errors import SizeCapExceeded

FANO_BLOCKS = [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]]


def fano():
    return ds.design_from_blocks(FANO_BLOCKS)


def verified(d):
    """verify_design(d), asserted equal to the brute-force oracle."""
    got = ds.verify_design(d)
    assert got == design_axioms(d), d
    return got


def circulant(v, base, k, lam):
    """The v translates of a base set mod v, with nominal k and lam."""
    blocks = tuple(gc.mask_of((x + t) % v for x in base) for t in range(v))
    return ds.SymmetricDesign(v, blocks, k, lam)


def known_designs():
    """Fano and its complement, all (v-1)-subsets of v points, the
    quadratic-residue difference sets mod 7, 11, 19 and 23, the (13, 4, 1)
    difference set, and PG(2, 3), PG(2, 5), PG(3, 2) and PG(4, 2)."""
    out = [fano(), ds.complement_design(fano())]
    out += [ds.all_ksubsets_design(v) for v in range(3, 9)]
    for v in (7, 11, 19, 23):
        qr = sorted({x * x % v for x in range(1, v)})
        out.append(circulant(v, qr, (v - 1) // 2, (v - 3) // 4))
    out.append(circulant(13, [0, 1, 3, 9], 4, 1))
    for d, q in ((3, 3), (3, 5), (4, 2), (5, 2)):
        out.append(gf.pg_hyperplane_design(d, gf.field_by_order(q)))
    return out


def perturbations(rng, d):
    """13 structures from a relabelled copy of d: itself, one incidence
    flipped, a point moved within a block, four switches of incidences
    that keep every block size and replication, wrong nominal k or lam;
    then three random circulants, lam read off the pair (0, 1) in two of
    them so that a later pair decides, and two random square structures."""
    v, k, lam = d.params
    perm = rng.sample(range(v), v)
    blocks = [gc.mask_of(perm[p] for p in gc.bits(b)) for b in d.blocks]
    rng.shuffle(blocks)
    yield ds.SymmetricDesign(v, tuple(blocks), k, lam)
    i = rng.randrange(v)
    flipped = list(blocks)
    flipped[i] ^= 1 << rng.randrange(v)
    yield ds.SymmetricDesign(v, tuple(flipped), k, lam)
    moved = list(blocks)
    inside, outside = list(gc.bits(moved[i])), list(gc.bits(((1 << v) - 1) ^ moved[i]))
    if inside and outside:
        moved[i] ^= 1 << rng.choice(inside) | 1 << rng.choice(outside)
    yield ds.SymmetricDesign(v, tuple(moved), k, lam)
    for _ in range(4):
        switched = list(blocks)
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(v), 2)
            only_i = list(gc.bits(switched[i] & ~switched[j]))
            only_j = list(gc.bits(switched[j] & ~switched[i]))
            if only_i and only_j:
                swap = 1 << rng.choice(only_i) | 1 << rng.choice(only_j)
                switched[i] ^= swap
                switched[j] ^= swap
        yield ds.SymmetricDesign(v, tuple(switched), k, lam)
    dk, dl = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
    yield ds.SymmetricDesign(v, tuple(blocks), k + dk, lam + dl)
    w = rng.randint(1, 16)
    kk = rng.randint(0, w)
    base = rng.sample(range(w), kk)
    yield circulant(w, base, kk, rng.randint(0, kk))
    first = sum(1 for b in circulant(w, base, kk, 0).blocks if b & 3 == 3)
    yield circulant(w, base, kk, first)
    yield circulant(w, base, kk, first + rng.choice([0, 1]))
    rows = [rng.getrandbits(w) for _ in range(w)]
    yield ds.SymmetricDesign(w, tuple(rows), rows[0].bit_count(), rng.randint(0, 3))
    yield ds.SymmetricDesign(w, tuple(rows), kk, rng.randint(0, 3))


class TestVerify:
    def test_all_2subsets_of_3(self):
        d = ds.design_from_blocks([list(b) for b in combinations(range(3), 2)])
        assert d.params == (3, 2, 1)
        assert verified(d) is True

    def test_all_3subsets_of_4(self):
        d = ds.design_from_blocks([list(b) for b in combinations(range(4), 3)])
        assert d.params == (4, 3, 2)
        assert verified(d) is True

    def test_flipped_incidence_violates(self):
        blocks = [list(b) for b in FANO_BLOCKS]
        blocks[0] = [0, 1, 3]  # flip one incidence
        d = ds.design_from_blocks(blocks)
        # block sizes still hold; point 2 lost a block and point 3 gained one
        assert verified(d) == ds.Violation("point replication", (2, 2, 3))

    def test_known_designs(self):
        for d in known_designs():
            assert verified(d) is True, d.params

    def test_first_pair_misses_lambda(self):
        # every block size and replication is 3, and the pair (0, 1) lies
        # on no block
        d = circulant(7, [0, 2, 5], 3, 1)
        assert verified(d) == ds.Violation("pair coverage", (0, 1, 0, 1))

    def test_later_pair_misses_lambda(self):
        # every difference mod 8 but 4 occurs once in {0, 1, 3}: the pair
        # (0, 1) lies on lambda blocks, and (0, 4) is the first that does not
        d = circulant(8, [0, 1, 3], 3, 1)
        assert verified(d) == ds.Violation("pair coverage", (0, 4, 0, 1))

    def test_degenerate_structures(self):
        for v in range(1, 5):
            full = (1 << v) - 1
            for k, lam, block in ((0, 0, 0), (v, v, full), (0, 1, 0), (v, v - 1, full)):
                verified(ds.SymmetricDesign(v, (block,) * v, k, lam))

    def test_against_oracle_on_perturbations(self):
        rng = random.Random(24)
        designs = known_designs()
        axioms = set()
        for _ in range(1600):
            for case in perturbations(rng, rng.choice(designs)):
                got = verified(case)
                axioms.add(got.axiom if not got else "design")
        assert axioms == {"design", "block size", "point replication", "pair coverage"}

    def test_wrong_block_count_rejected(self):
        with pytest.raises(ValueError, match="blocks"):
            ds.SymmetricDesign(4, (0b111,), 3, 2)


class TestComplement:
    def test_fano_complement(self):
        c = ds.complement_design(fano())
        assert c.params == (7, 4, 2)
        assert verified(c) is True

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
        assert verified(d) is True


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

    def test_prime_power_split(self):
        # the one split of q into (p, e), shared by field_by_order and
        # resolve_prime_power
        for q in range(-5, 300):
            fac = trial_division(q) if q > 1 else {}
            want = next(iter(fac.items())) if len(fac) == 1 else None
            assert ds._prime_power(q) == want, q
        assert ds._prime_power(43**5) == (43, 5)

    def test_cap_refused_before_any_work(self, monkeypatch):
        def no_work(n):
            raise AssertionError("primality tested above the cap")

        monkeypatch.setattr(ds, "_is_prime", no_work)
        with pytest.raises(SizeCapExceeded, match="cap"):
            ds._factor(ds.FACTOR_CAP)
        with pytest.raises(SizeCapExceeded):
            ds._factor(-ds.FACTOR_CAP - 1)
