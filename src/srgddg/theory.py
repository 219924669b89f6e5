"""Parameter calculus for strongly regular graphs that split into a
Hoffman coclique plus a proper divisible design graph.

The central objects are the one-parameter families indexed by a class
size n >= 2 and a negative least eigenvalue s <= -2 with n + s > 0:

    SRG side:  v = (-s)(n^2-1)/(n+s),  k = (-s)n,  lambda = mu = (-s)(n+s)
    DDG side:  V = n*m,  K = (-s)(n-1),  lambda1 = (-s)(n+s-1),
               lambda2 = (-s)(n-1)(n+s)/n,  m = (-s)(n-1)/(n+s)

with the coclique size c equal to m and K^2 = lambda2*V (so the
+-sqrt(K^2 - lambda2*V) eigenvalue of the DDG is 0).  When -s is a prime
power these resolve to s = -q^(d-1), n = q^d for q = n/(-s) and d >= 2,
the parameters of the symplectic non-orthogonality graphs.

:func:`match_spectrum_shapes` runs the converse direction as a concrete-parameter
elimination engine: given the parameters of a strongly regular graph
with an integral coclique bound, it equates the punctured spectrum with
every admissible divisible-design spectrum shape and reports, per shape,
whether the inferred DDG parameters survive all arithmetic feasibility
filters.  The engine verifies conclusions instance by instance; it does
not do symbolic algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .designs import _factor, _prime_power, bruck_ryser_chowla, required_design_params
from .errors import FalsyVerdict, NoHoffmanBound
from .recognize import DdgParams, SrgParams, srg_params_from_tuple

__all__ = [
    "FamilyParams",
    "Infeasible",
    "family_from",
    "PrimePowerResolution",
    "NotPrimePower",
    "resolve_prime_power",
    "PuncturedSpectrum",
    "punctured_spectrum",
    "DdgSpectrum",
    "ddg_spectrum",
    "ShapeMatch",
    "match_spectrum_shapes",
    "FeasibleEntry",
    "enumerate_feasible",
]


# -- the (n, s) family ---------------------------------------------------


@dataclass(frozen=True)
class FamilyParams:
    """Everything derived from a feasible (n, s) pair."""

    n: int
    s: int
    m: int
    srg: SrgParams
    ddg: DdgParams

    @property
    def design_params(self) -> tuple[int, int, int]:
        return required_design_params(self.n, self.s)


@dataclass(frozen=True)
class Infeasible(FalsyVerdict):
    reason: str


def family_from(n: int, s: int) -> FamilyParams | Infeasible:
    """Derive the full SRG + DDG parameter pair for (n, s), or report the
    first failing integrality condition."""
    if n < 2:
        return Infeasible("need n >= 2")
    if s > -2:
        return Infeasible("need s <= -2")
    if n + s <= 0:
        return Infeasible("need n + s > 0")
    m, rem = divmod((-s) * (n - 1), n + s)
    if rem:
        return Infeasible(f"m = (-s)(n-1)/(n+s) = {(-s)*(n-1)}/{n+s} not integral")
    lam2, rem = divmod((-s) * (n - 1) * (n + s), n)
    if rem:
        return Infeasible(f"lambda2 = (-s)(n-1)(n+s)/n not integral")
    v = m * (n + 1)
    k = (-s) * n
    lam = (-s) * (n + s)
    srg = srg_params_from_tuple(v, k, lam, lam)
    if not srg:
        return Infeasible(f"SRG side degenerate: {srg.reason}")
    V = m * n
    K = (-s) * (n - 1)
    lam1 = (-s) * (n + s - 1)
    ddg = DdgParams(V, K, lam1, lam2, m, n)
    assert K * K == lam2 * V, "vanishing eigenvalue identity must hold"
    assert srg.hoffman_size() == m, "coclique bound must equal the class count"
    return FamilyParams(n, s, m, srg, ddg)


# -- prime-power resolution ----------------------------------------------


@dataclass(frozen=True)
class PrimePowerResolution:
    """s = -q^(d-1) and n = q^d for a prime power q and d >= 2."""

    q: int
    d: int


@dataclass(frozen=True)
class NotPrimePower(FalsyVerdict):
    reason: str


class InconsistentFamily(AssertionError):
    """-s is a prime power but n is not of the required q^d form.

    Feasible families can never trigger this; reaching it would falsify
    the parameter calculus, so it is an assertion-grade error.
    """


def resolve_prime_power(fp: FamilyParams) -> PrimePowerResolution | NotPrimePower:
    """When -s is a prime power, the family forces s = -q^(d-1) and
    n = q^d with q = n/(-s)."""
    if _prime_power(-fp.s) is None:
        return NotPrimePower(f"-s = {-fp.s} is not a prime power")
    q, rem = divmod(fp.n, -fp.s)
    if rem or q < 2:
        raise InconsistentFamily(f"n = {fp.n} is not (-s) times an integer >= 2")
    d = 0
    x = fp.n
    while x % q == 0 and x > 1:
        x //= q
        d += 1
    if x != 1 or q**d != fp.n or q ** (d - 1) != -fp.s:
        raise InconsistentFamily(f"n = {fp.n} is not a power of q = {q}")
    return PrimePowerResolution(q, d)


# -- punctured spectrum ---------------------------------------------------


@dataclass(frozen=True)
class PuncturedSpectrum:
    """Spectrum of an SRG with a Hoffman coclique removed:
    (k+s)^1, r^(f-c+1), (r+s)^(c-1), s^(g-c).

    Entries are kept in that structural order; multiplicities may be 0
    and values may coincide, so :meth:`merged` gives the multiset view.
    """

    entries: tuple[tuple[int, int], ...]  # ((value, multiplicity), ...) x4
    four_distinct: bool  # holds iff c < g

    def merged(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for val, mult in self.entries:
            if mult:
                out[val] = out.get(val, 0) + mult
        return out

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)


def punctured_spectrum(p: SrgParams) -> PuncturedSpectrum:
    """Spectrum forced on the complement of a Hoffman coclique.

    Raises NoHoffmanBound when the coclique bound is not integral.
    """
    c = p.hoffman_size()
    entries = (
        (p.k + p.s, 1),
        (p.r, p.f - c + 1),
        (p.r + p.s, c - 1),
        (p.s, p.g - c),
    )
    if any(m < 0 for _, m in entries):
        raise NoHoffmanBound(f"punctured multiplicities negative for c = {c}")
    return PuncturedSpectrum(entries, four_distinct=c < p.g)


# -- DDG spectrum ----------------------------------------------------------


@dataclass(frozen=True)
class DdgSpectrum:
    """Eigenvalues forced by divisible-design parameters.

    alpha2 = K - lambda1 and beta2 = K^2 - lambda2*V are the squared
    non-principal eigenvalues; alpha/beta are their integer roots or
    None when irrational.  Individual multiplicities are not determined
    by the parameters, only the sums f1+f2 = m(n-1) and g1+g2 = m-1.
    """

    K: int
    alpha2: int
    beta2: int
    alpha: int | None
    beta: int | None
    f_sum: int
    g_sum: int

    def eigenvalue_set(self) -> set[int]:
        """Distinct possible eigenvalues (requires integral roots)."""
        if self.alpha is None or self.beta is None:
            raise ValueError("spectrum has irrational eigenvalues")
        return {self.K, self.alpha, -self.alpha, self.beta, -self.beta}


def ddg_spectrum(dp: DdgParams) -> DdgSpectrum:
    alpha2 = dp.K - dp.lambda1
    beta2 = dp.K * dp.K - dp.lambda2 * dp.V
    if alpha2 < 0 or beta2 < 0:
        raise ValueError(f"negative eigenvalue discriminant ({alpha2}, {beta2})")
    ra, rb = isqrt(alpha2), isqrt(beta2)
    return DdgSpectrum(
        K=dp.K,
        alpha2=alpha2,
        beta2=beta2,
        alpha=ra if ra * ra == alpha2 else None,
        beta=rb if rb * rb == beta2 else None,
        f_sum=dp.m * (dp.n - 1),
        g_sum=dp.m - 1,
    )


# -- the elimination engine -------------------------------------------------

ACCEPTED = "accepted"
REJECTED = "rejected"
SUBSUMED = "subsumed"
OPEN = "open"


@dataclass(frozen=True)
class ShapeMatch:
    """Outcome of matching one spectrum shape against a punctured SRG.

    ``case`` is one of the eight one-multiplicity-vanishes rows ("1" ..
    "8") or a coincidence shape where two eigenvalues merge at 0.
    ``verdict`` is accepted / rejected / subsumed / open; rejected
    matches carry the eliminating filter in ``reason``.  ``inferred``
    holds whatever was derived before the verdict: keys among K,
    lambda1, lambda2, m, n, V, f1, f2, g1, g2.
    """

    case: str
    verdict: str
    reason: str | None
    inferred: dict

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPTED

    def ddg_params(self) -> DdgParams:
        if not self.accepted:
            raise ValueError("only accepted matches carry DDG parameters")
        i = self.inferred
        return DdgParams(i["V"], i["K"], i["lambda1"], i["lambda2"], i["m"], i["n"])


def _finish_candidate(
    p: SrgParams, c: int, case: str, shape: tuple[int, ...], verdict: str
) -> ShapeMatch:
    """Common filter chain, cheapest first: integrality, divisibility,
    the trace inequality, handshake parity, design integrality and, last,
    Bruck-Ryser-Chowla on that design, the one filter that factors.  A
    candidate that passes them all gets ``verdict``.  f1 + f2 = m(n-1)
    is an identity: f1, f2, g1, g2 sum to V - 1 and g1 + g2 = m - 1."""
    alpha2, beta2, f1, f2, g1, g2 = shape
    V = p.v - c
    K = p.k + p.s
    inferred = {"K": K, "V": V, "f1": f1, "f2": f2, "g1": g1, "g2": g2}

    def rej(reason):
        return ShapeMatch(case, REJECTED, reason, inferred)

    if min(f1, f2, g1, g2) < 0:
        return rej("negative multiplicity")
    m = g1 + g2 + 1
    inferred["m"] = m
    if m < 2:
        return rej("m < 2: improper (single class)")
    n, rem = divmod(V, m)
    if rem:
        return rej(f"m = {m} does not divide V = {V}")
    inferred["n"] = n
    if n < 2:
        return rej("n < 2: improper (singleton classes)")
    lam1 = K - alpha2
    if lam1 < 0:
        return rej(f"lambda1 = K - {alpha2} negative")
    inferred["lambda1"] = lam1
    lam2, rem = divmod(K * K - beta2, V)
    if rem:
        return rej(f"lambda2 = (K^2 - {beta2})/V not integral")
    if lam2 < 0:
        return rej("lambda2 negative")
    inferred["lambda2"] = lam2
    if lam1 == lam2:
        return rej("lambda1 = lambda2: improper (graph would be strongly regular)")
    beta = isqrt(beta2)
    trace = K + (g1 - g2) * beta
    if not 0 <= trace <= m * (n - 1):
        return rej(
            f"quotient trace bound fails: K + (g1-g2)*sqrt = {trace} "
            f"outside [0, {m * (n - 1)}]"
        )
    if n * (n + p.s) % 2:
        return rej(
            f"handshake parity fails: each class would induce a "
            f"{n + p.s}-regular graph on {n} vertices, but n(n+s) = "
            f"{n * (n + p.s)} is odd"
        )
    try:
        dsg = required_design_params(n, p.s)
    except ValueError as exc:
        return rej(f"coclique attachment design infeasible: {exc}")
    inferred["design"] = dsg
    if not bruck_ryser_chowla(*dsg):
        return rej(f"coclique attachment design {dsg} fails Bruck-Ryser-Chowla")
    reason = None if verdict == ACCEPTED else (
        "survives all arithmetic filters; exclusion of this shape "
        "requires classification results beyond this engine"
    )
    return ShapeMatch(case, verdict, reason, inferred)


def _composition_shape(p: SrgParams, c: int, case: str, shape: tuple[int, ...]) -> ShapeMatch:
    """Coincidence A: alpha = 0 (K = lambda1) and +-beta = r, s.  The
    induced graph would be a Deza graph with b = K, i.e. a composition of
    a strongly regular graph with an empty graph; its multiplicity
    arithmetic needs 2(m-1) >= mn.  ``shape`` is (g1, g2, f1 + f2), so
    m = V - c + 1, and s <= -2 (s = -1 forces the complete graph) with
    -s <= k <= v - 2 gives 2 <= c <= v/2: where m divides V, n >= 2 and
    2(m-1) < mn, so this shape always dies."""
    g1, g2, f_sum = shape
    V = p.v - c
    m = g1 + g2 + 1
    inferred = {"K": p.k + p.s, "V": V, "m": m, "f1+f2": f_sum, "g1": g1, "g2": g2}
    n, rem = divmod(V, m)
    if rem:
        return ShapeMatch(case, REJECTED, f"m = {m} does not divide V = {V}", inferred)
    inferred["n"] = n
    reason = "composition shape needs 2(m-1) >= mn, impossible for m >= 2, n >= 2"
    return ShapeMatch(case, REJECTED, reason, inferred)


def match_spectrum_shapes(p: SrgParams) -> list[ShapeMatch]:
    """Match the punctured spectrum against every admissible
    divisible-design spectrum shape.

    The punctured spectrum has non-principal values r > r+s > s with
    multiplicities f-c+1, c-1, g-c.  The DDG spectrum contributes
    +-alpha = +-sqrt(K - lambda1) and +-beta = +-sqrt(K^2 - lambda2*V)
    (Haemers, Kharaghani and Meulenberg, "Divisible design graphs", JCTA
    118 (2011)).  Cases "1".."8" drop one of the four multiplicities;
    the two coincidence cases merge a +- pair at 0 (forcing r + s = 0).
    Rows whose shape collapses to a coincidence case when r + s = 0 are
    reported as subsumed by it.
    """
    if not p.primitive:
        raise ValueError("match_spectrum_shapes needs a primitive strongly regular graph")
    c = p.hoffman_size()
    r, s = p.r, p.s
    mr, mm, ms = p.f - c + 1, c - 1, p.g - c  # punctured multiplicities
    # the eigenvalue conditions, each mapped to the reason a shape that
    # needs it is rejected, or to None where it holds; the coincidence
    # rows write r + s = 0 as r = -s and give a shorter reason
    unmet = {
        "r = -2s": None if r == -2 * s else f"shape needs r = -2s; have r = {r}, s = {s}",
        "s = -2r": None if s == -2 * r else f"shape needs s = -2r; have r = {r}, s = {s}",
        "r + s = 0": None if r + s == 0 else f"shape needs r + s = 0; have r + s = {r + s}",
        "r = -s": None if r + s == 0 else f"needs r + s = 0; have {r + s}",
    }
    # One row per shape, in report order: the case, the condition it
    # needs, then (alpha2, beta2, f1, f2, g1, g2) and the verdict if every
    # filter passes (open where only classification results, which this
    # engine does not replay, could exclude the shape); or the pair that
    # merges at 0 in the coincidence it is subsumed by; or, for the
    # composition shape, (g1, g2, f1 + f2) and no verdict.
    shapes = (
        # alpha = r, beta = r+s, -beta = s, f2 = 0
        ("1", "r = -2s", (r * r, s * s, mr, 0, mm, ms), OPEN),
        # 2/3: alpha = r, -alpha = s and one beta multiplicity vanishes;
        # this forces r + s = 0 and beta = 0, identical to coincidence B
        ("2", "r + s = 0", "beta", SUBSUMED),
        ("3", "r + s = 0", "beta", SUBSUMED),
        # beta = r, -beta = r+s, -alpha = s, f1 = 0
        ("4", "s = -2r", (s * s, r * r, 0, ms, mr, mm), OPEN),
        # beta = r, alpha = r+s, -alpha = s, g2 = 0
        ("5", "r = -2s", (s * s, r * r, mm, ms, mr, 0), OPEN),
        # 6/7: beta = r, -beta = s and one alpha multiplicity vanishes;
        # forces r + s = 0 and alpha = 0, identical to coincidence A
        ("6", "r + s = 0", "alpha", SUBSUMED),
        ("7", "r + s = 0", "alpha", SUBSUMED),
        # alpha = r, -alpha = r+s, -beta = s, g1 = 0
        ("8", "s = -2r", (r * r, s * s, mr, mm, 0, ms), OPEN),
        # coincidence A: alpha = 0 (K = lambda1), +-beta = r, s
        ("coincidence K=lambda1", "r = -s", (mr, ms, mm), None),
        # coincidence B: beta = 0 (K^2 = lambda2 V), +-alpha = r, s; the
        # shape the (n, s) families realize
        ("coincidence K^2=lambda2*V", "r = -s", (r * r, 0, mr, ms, mm, 0), ACCEPTED),
    )
    out = []
    for case, needs, shape, verdict in shapes:
        if unmet[needs]:
            out.append(ShapeMatch(case, REJECTED, unmet[needs], {}))
        elif verdict == SUBSUMED:
            reason = (f"with r + s = 0 both {shape} eigenvalues merge at 0; "
                      f"evaluated as the {shape}-degenerate coincidence case")
            out.append(ShapeMatch(case, SUBSUMED, reason, {}))
        elif verdict is None:
            out.append(_composition_shape(p, c, case, shape))
        else:
            out.append(_finish_candidate(p, c, case, shape, verdict))
    return out


# -- feasibility enumeration ------------------------------------------------


@dataclass(frozen=True)
class FeasibleEntry:
    """One (n, s) pair surviving the integrality conditions, annotated
    with the handshake filter outcome and prime-power resolution."""

    family: FamilyParams
    handshake_ok: bool
    prime_power: PrimePowerResolution | NotPrimePower
    brc_ok: bool | None = None

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def s(self) -> int:
        return self.family.s


def enumerate_feasible(
    s_min: int, s_max: int, n_max: int | None = None, with_brc: bool = False
) -> list[FeasibleEntry]:
    """All families with s_min <= s <= s_max <= -2 passing the
    integrality conditions, optionally only those with n <= n_max.

    The list is complete without any bound on n: n + s divides
    (-s)(n-1) = (-s)(n+s) + s(s+1), hence divides s(s+1), so n = d - s
    for a positive divisor d of s(s+1).

    Entries eliminated by the handshake parity filter (each canonical
    class induces an (n+s)-regular graph on n vertices, so n(n+s) must
    be even) are still listed, flagged handshake_ok=False.  The optional
    Bruck-Ryser-Chowla annotation is advisory and never filters.
    """
    if s_max > -2:
        raise ValueError("need s_max <= -2")
    out = []
    for s in range(s_min, s_max + 1):
        # s and s + 1 are coprime: factor each apart, not their product
        divisors = [1]
        for p, e in (_factor(s) | _factor(s + 1)).items():
            divisors = [d * p**i for d in divisors for i in range(e + 1)]
        for d in divisors:
            n = d - s
            if n_max is not None and n > n_max:
                continue
            fam = family_from(n, s)
            if not fam:
                continue
            handshake_ok = n * (n + s) % 2 == 0
            brc = None
            if with_brc:
                brc = bruck_ryser_chowla(*fam.design_params)
            out.append(FeasibleEntry(fam, handshake_ok, resolve_prime_power(fam), brc))
    out.sort(key=lambda e: (e.s, e.n))
    return out
