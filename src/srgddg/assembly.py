"""Both directions of the coclique + divisible-design-graph construction.

Forward (:func:`attach_coclique`): take a proper divisible design graph
whose parameters fit the (n, s) family pattern, a symmetric 2-design
with parameters (m, -s, (-s)(n+s)/n), and a bijection phi from classes
to blocks; append the design's points as a coclique and join a class
vertex to the points of its phi-block.  The result is strongly regular
with v = m(n+1), k = (-s)n, lambda = mu = (-s)(n+s), proven from the
checked inputs rather than recognized afterwards (the equitable
partition argument of Haemers, Kharaghani and Meulenberg, "Divisible
design graphs", JCTA 118 (2011)):

- Let A be the DDG's adjacency matrix, B its class matrix (B_xy = 1 when
  x and y share a class) and P = B/n, the projection onto vectors
  constant on classes.
- The family gives K = (-s)(n-1) = m(n+s) and lambda1 = (-s)(n+s-1).
  From A^2 = KI + lambda1(B-I) + lambda2(J-B),
  tr(A^2 P) = m(K + (n-1)lambda1) = m^2(n+s)^2 = K^2.
- The quotient entries R_ij = 1_i' A 1_j / n have row sums K, so
  sum R_ij^2 >= K^2 by Cauchy-Schwarz, with equality only if every
  R_ij = K/m = n + s.
- But tr(A^2 P) = |AP|^2 = sum R_ij^2 + |(I-P)AP|^2.  So (I-P)AP = 0 and
  every R_ij = n + s: every DDG vertex has n + s neighbours in every
  class.
- Counting then gives every pair of the glued graph
  lambda = (-s)(n+s) common neighbours:
  two vertices in one class, lambda1 + (-s); two vertices in different
  classes, lambda2 + lambda_D; a DDG vertex and a point, (-s)(n+s),
  since -s blocks pass through the point; two points, lambda_D n.
- Every degree is (-s)n: K + (-s) for a DDG vertex, and -s blocks of n
  class vertices each for a point.

The glued rows are symmetric, loop-free and in range by construction:
the classes partition the DDG's vertices, the design's blocks lie within
its m points and phi is a bijection.

Backward (:func:`decompose`) rests on one identity.  Let the graph be
strongly regular with lambda = mu and C a Hoffman coclique.  Every
vertex x outside C has exactly -s neighbours in C, N_C(x), as every
vertex outside a coclique attaining the Hoffman bound does (Hoffman's
equality case; Brouwer and Haemers, Spectra of Graphs, 3.5), so no
check reads the sizes of the N_C sets.  Two
vertices x, y outside C have lambda common neighbours whether or not
they are adjacent, so lambda - |N_C(x) & N_C(y)| of them lie outside C.
So the classes of the divisible design graph
Gamma - C are the groups of vertices with equal N_C(x), found in one
hash pass; the blocks of the design are the distinct N_C sets; and the
DDG parameters follow as (V, k+s, lambda+s, lambda-lambda_D, m, n),
lambda_D the design's lambda.  No pair counting on Gamma - C is needed.

Whether any witness can exist is read off the graph's parameters, once.
The family pattern demands K = k + s = (-s)(n-1), so the class size is
n = k/(-s), and the graph's (v, k, lambda, mu) must be
``theory.family_from(n, s).srg``: k = (-s)n, lambda = mu = (-s)(n+s),
and the coclique bound is the family's m.  Any other graph has no
witness and needs no search.  On a family graph, every Hoffman
coclique whose vertices outside it fall into m groups of n is a
witness, proven from the identity, once, and from C being a
coclique; nothing is rebuilt or re-verified afterwards:

- The design.  Members of a class share N_C, so a point z of C is
  joined to whole classes only, and as C is a coclique, N(z) is a union
  of classes outside C.  So z lies on k/n = -s blocks, and two points
  z, z' lie together on mu/n blocks: their mu common neighbours are all
  outside C.  So the m blocks of -s points on m points form a
  2-(m, -s, mu/n) design with as many blocks as points.  By Ryser's
  theorem such a design is symmetric: any two blocks meet in
  lambda_D = mu/n (Beth, Jungnickel and Lenz, Design Theory, 2nd ed.,
  ch. II).  With mu = (-s)(n+s), these are the parameters
  (m, -s, (-s)(n+s)/n) that :func:`attach_coclique` demands.
- The parameters.  The DDG's (V, k+s, lambda+s, lambda - mu/n, m, n)
  are then (mn, (-s)(n-1), (-s)(n+s-1), (-s)(n-1)(n+s)/n, m, n), the
  family's DDG parameters, so no lambda_D is read off the blocks and no
  parameter is compared.
- The graph.  The DDG is the induced graph on the vertices outside C,
  a class vertex x is joined to its class's block N_C(x), and a point z
  is joined to exactly the x with z in N_C(x), which is N(z) - C = N(z).
  So gluing the witness back gives the graph edge for edge; a rebuild
  and compare would compare the graph with itself.  It stays a test,
  beside the generic pipeline, as the oracle.

The quotient matrix of the classes is then constant, n + s, with no
check of its own.  Take x outside C and z in C.  The neighbours of z are
the vertices of the classes whose block holds z, and x and z have lambda
common neighbours since lambda = mu, so the counts
a_j = |N(x) & class_j| sum to lambda over the blocks B_j on z, for every
point z.  The incidence matrix of a symmetric design is nonsingular and
every point lies on -s blocks, so the one solution is
a_j = lambda/(-s) = n + s for every j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import theory
from .coclique import CocliqueQuery, _collect
from .designs import SymmetricDesign, verify_design
from .errors import SrgddgError
from .graphcore import Graph, VertexSet, _squeeze, _trusted_graph, bits, induced_subgraph, set_of
from .recognize import CanonicalPartition, DdgParams, ddg_recognize, srg_params

__all__ = [
    "Decomposition",
    "attach_coclique",
    "decompose",
    "AssemblyError",
    "ParameterMismatch",
    "DesignMismatch",
    "PhiNotBijective",
]


class AssemblyError(SrgddgError, ValueError):
    pass


class ParameterMismatch(AssemblyError):
    """The input graph/partition is not a divisible design graph of the
    required family pattern."""


class DesignMismatch(AssemblyError):
    pass


class PhiNotBijective(AssemblyError):
    pass


@dataclass(frozen=True)
class Decomposition:
    """Witness that a graph arises from the coclique + DDG construction.

    ``coclique`` and ``partition`` refer to vertices of the original
    graph; ``ddg`` is the induced graph renumbered ascending, and
    ``ddg_partition`` holds the same classes in the DDG's numbering.
    Design point i is the i-th smallest coclique vertex, and class i is
    joined to block i, so ``phi`` is the identity and
    ``attach_coclique(d.ddg, d.ddg_partition, d.design, d.phi)`` rebuilds
    the graph with the vertices outside the coclique first, in ascending
    order, and the coclique vertices after them.
    """

    coclique: VertexSet
    partition: CanonicalPartition
    ddg_partition: CanonicalPartition
    ddg_params: DdgParams
    ddg: Graph
    design: SymmetricDesign

    @property
    def n(self) -> int:
        return self.ddg_params.n

    @property
    def s(self) -> int:
        return -self.design.k_blk

    @property
    def phi(self) -> tuple[int, ...]:
        return tuple(range(self.m))

    @property
    def m(self) -> int:
        return self.ddg_params.m


def _family_of(dp: DdgParams) -> theory.FamilyParams:
    """The family of dp; n >= 2 as a proper DDG has a same-class pair."""
    n = dp.n
    s, rem = divmod(dp.K, n - 1)
    if rem:
        raise ParameterMismatch(f"K = {dp.K} is not a multiple of n - 1 = {n - 1}")
    s = -s
    fam = theory.family_from(n, s)
    if not fam:
        raise ParameterMismatch(f"(n = {n}, s = {s}) infeasible: {fam.reason}")
    if fam.ddg.tuple6 != dp.tuple6:
        raise ParameterMismatch(
            f"divisible design parameters {dp.tuple6} do not match the "
            f"family pattern {fam.ddg.tuple6} for (n = {n}, s = {s})"
        )
    return fam


def _glue(ddg_rows, classes, blocks, phi) -> list[int]:
    """Rows of the graph made by attaching the design's points to a DDG:
    DDG vertex x keeps its number, point y becomes V + y, and every
    vertex of class i is joined to the points of block phi[i]."""
    V = len(ddg_rows)
    rows = list(ddg_rows) + [0] * len(blocks)
    for i, cl in enumerate(classes):
        block = blocks[phi[i]]
        shifted = block << V
        for x in bits(cl):
            rows[x] |= shifted
        for y in bits(block):
            rows[V + y] |= cl
    return rows


@lru_cache(maxsize=1)
def _premises(ddg: Graph, partition: CanonicalPartition, design: SymmetricDesign) -> int:
    """The class count m, once the checks of :func:`attach_coclique` that
    do not read phi pass: the DDG proven by :func:`ddg_recognize`, its
    classes equal to the given ones as sets (their order decides what
    phi means), the family pattern of its parameters, the design axioms
    and the family's design parameters.

    The verdict is a pure function of the three frozen values (a Graph
    compares by order and rows, not label), so it is kept for the last
    piece: gluing every phi onto one piece checks the piece once.  A hit
    is confirmed by equality, not by hash alone, and a failed check
    raises, which lru_cache never stores, so a bad piece is refused on
    every call."""
    partition.validate(ddg.order)
    wits = ddg_recognize(ddg)
    if not wits:
        raise ParameterMismatch(wits.reason)
    (dp, found), = wits
    known = set(found.classes)  # the one partition of a proper DDG (ddg_recognize)
    for i, cl in enumerate(partition.classes):
        if cl not in known:
            raise ParameterMismatch(
                f"class {i}, {set_of(cl)}, is not a class of the divisible design graph"
            )
    fam = _family_of(dp)
    ok = verify_design(design)
    if not ok:
        raise DesignMismatch(f"design axioms fail: {ok.axiom} {ok.detail}")
    if design.params != fam.design_params:
        raise DesignMismatch(f"design parameters {design.params}, need {fam.design_params}")
    return dp.m


def attach_coclique(
    ddg: Graph,
    partition: CanonicalPartition,
    design: SymmetricDesign,
    phi: tuple[int, ...] | list[int],
) -> Graph:
    """Attach a design-governed coclique to a divisible design graph.

    The output graph keeps ddg's vertices 0..V-1 and appends the m
    design points as vertices V..V+m-1.  Once the inputs pass their
    checks, the output is strongly regular with the family parameters by
    the proof in the module docstring; it is proven, not recognized.
    The checks that do not read phi run once per consecutive (ddg,
    partition, design), in :func:`_premises`; phi is checked on every
    call.
    """
    m = _premises(ddg, partition, design)
    phi = tuple(phi)
    if sorted(phi) != list(range(m)):
        raise PhiNotBijective(f"phi = {phi} is not a bijection on 0..{m - 1}")
    return _trusted_graph(ddg.order + m, _glue(ddg.rows, partition.classes, design.blocks, phi))


def decompose(
    graph: Graph, query: CocliqueQuery | None = None
) -> list[Decomposition]:
    """All ways to split graph into a Hoffman coclique plus a proper
    divisible design graph of the family pattern.

    ``coclique._collect`` walks the Hoffman cocliques and keeps the
    witness of each that splits, so the witnesses come in coclique
    order; an empty list is a legitimate outcome.  Mode "first" stops at
    the first witness, past the cocliques that do not split, so on a
    graph with no witness it walks every coclique, as mode "all" does, or
    stops at the node budget, where BudgetExceeded carries the node count
    and the witnesses found before it.  The checks, in order, and what
    each proves:

    1. ``srg_params`` on the input, once: the graph is strongly regular
       (and primitive, or AssemblyError).
    2. its (v, k, lambda, mu) are ``theory.family_from(n, s).srg`` for
       n = k/(-s), else ``[]`` without any search: only a family graph
       has a witness.  This gives lambda = mu and the family's m as the
       coclique bound.

    Then per coclique C, with the vertices outside C grouped by N_C(x):

    3. there are exactly m groups, each of n vertices.

    Every N_C(x) has -s points with no check: that is Hoffman's equality
    case, the premise of the identity in the module docstring.  Checks
    2-3 are the whole proof (module docstring).  With the identity and C
    a coclique they prove that the distinct N_C sets form
    a symmetric design with the parameters ``required_design_params(n,
    s)``, by Ryser's theorem; that Gamma - C is a proper DDG with the
    family's parameters whose classes are the groups; and that the
    witness glues back to the graph edge for edge.  They also prove
    that every vertex outside C has n + s neighbours in every class, the
    constant quotient matrix; that also follows from the family
    parameters alone, by the trace argument for :func:`attach_coclique`.

    Checks 1-2 are :func:`_family_gate` and check 3 is :func:`_groups`.
    ``census`` shares them: :func:`_witness_cocliques` walks as this
    function does but keeps the cocliques, and :func:`_split` builds the
    witness of the one coclique it labels per orbit.
    """
    fam = _family_gate(graph)
    if fam is None:
        return []
    return _collect(graph, fam.m, query or CocliqueQuery(), lambda C: _split(graph, fam, C))


def _family_gate(graph: Graph) -> theory.FamilyParams | None:
    """The family of graph by checks 1-2 of :func:`decompose`, or None
    for a strongly regular graph that can have no witness."""
    p = srg_params(graph)
    if not p:
        raise AssemblyError(f"not strongly regular: {p.reason}")
    if not p.primitive:
        raise AssemblyError("graph is imprimitive")
    n, rem = divmod(p.k, -p.s)
    fam = None if rem else theory.family_from(n, p.s)
    if not fam or fam.srg.tuple4 != p.tuple4:
        return None
    return fam


def _witness_cocliques(
    graph: Graph, fam: theory.FamilyParams, query: CocliqueQuery
) -> list[VertexSet]:
    """The Hoffman cocliques of the family graph ``graph`` that pass
    check 3 of :func:`decompose`, its witnesses, walked and cut off as
    :func:`decompose` walks them, but with no witness built."""
    return _collect(graph, fam.m, query, lambda C: None if _groups(graph, fam, C) is None else C)


def _groups(graph: Graph, fam: theory.FamilyParams, C: VertexSet) -> dict[int, int] | None:
    """The vertices outside the Hoffman coclique C grouped by N_C(x), as
    {N_C(x): group}, if check 3 of :func:`decompose` passes, else None.
    The rest has fam.m * fam.n vertices, so groups of fam.n vertices are
    fam.m groups.  Ascending x puts the groups in order of smallest
    member."""
    rows = graph.rows
    groups: dict[int, int] = {}
    for x in bits(((1 << graph.order) - 1) ^ C):
        key = rows[x] & C
        groups[key] = groups.get(key, 0) | 1 << x
    if any(cl.bit_count() != fam.n for cl in groups.values()):
        return None
    return groups


def _split(graph: Graph, fam: theory.FamilyParams, C: VertexSet) -> Decomposition | None:
    """The witness for one Hoffman coclique C of a family graph, or
    None when check 3 of :func:`decompose` fails (:func:`_groups`).

    The classes and the DDG's rows are renumbered onto the vertices
    outside C, and the blocks onto C, by one masked shift per run of
    kept vertices (``graphcore._squeeze``): at most c + 1 runs outside
    a coclique of c vertices, and at most c in it."""
    groups = _groups(graph, fam, C)
    if groups is None:
        return None
    rest = ((1 << graph.order) - 1) ^ C
    classes = tuple(groups.values())
    m, k_blk, lam_d = fam.design_params
    return Decomposition(
        coclique=C,
        partition=CanonicalPartition(classes),
        ddg_partition=CanonicalPartition(tuple(map(_squeeze(rest), classes))),
        ddg_params=fam.ddg,
        ddg=induced_subgraph(graph, rest),
        design=SymmetricDesign(m, tuple(map(_squeeze(C), groups)), k_blk, lam_d),
    )
