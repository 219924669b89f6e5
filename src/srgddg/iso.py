"""Canonical labeling and isomorphism testing for desk-scale graphs.

Individualization-refinement search over equitable ordered partitions.
Plain colour refinement cannot split strongly regular graphs (they are
1-WL homogeneous), so the search always starts from the uniform
partition and relies on individualization.  The search tree is fixed by
three rules: equitable refinement (:func:`_refine`), the target cell
(the first smallest non-singleton cell), and one child per vertex of the
target cell.

The certificate is the lexicographically least graph6 encoding over the
relabelings at the leaves of that tree; equal certificates mean
isomorphic graphs, and the certificate is invariant under relabeling of
the input.  Pruning skips only subtrees whose leaves repeat certificates
of leaves already seen, so the least certificate does not depend on it.

Two leaves with equal certificates give the same labeled graph, so
mapping the vertex at position i of one to the vertex at position i of
the other is an automorphism.  Two pruning rules use the automorphisms
found:

* Orbit pruning: at a node, skip a child vertex in the same orbit as an
  already searched child, under the found automorphisms that fix every
  cell of the node.  Proof: such an automorphism fixes the node and maps
  the searched child's subtree onto the skipped child's.
* Backjumping: when a leaf's certificate equals that of any earlier
  leaf, return to the node where the two paths part.  Proof: the
  automorphism fixes each vertex individualized above that node (it
  sits at the same position in both leaves), so it maps the current
  child of that node onto the earlier leaf's child.  That child is an
  earlier sibling, and depth-first search has finished its subtree, so
  every certificate of the current child's subtree is already reached.
  The search keeps each distinct leaf certificate once, with the first
  leaf that reached it, so a repeat of any of them is found.

Refinement repeats no work.  Call a vertex set settled when the
partition is equitable with respect to it: the number of neighbours in
it is constant on every cell.  A settled set stays settled as the
partition is refined further, and a union of settled sets is settled.
The plain procedure pops splitters from a LIFO queue, splits every cell
by its number of neighbours in the splitter, and queues every part, so
each splitter is settled once processed.  A node refines its parent's
equitable partition, every cell of which is settled, so only the two
cells made by individualization, {v} and T - {v} for the target cell T,
are queued.  :func:`_refine` pops only splitters that may split
something, so its cells and their order are those of the plain
procedure, which stays in the tests as the oracle.  Two rules:

* When a cell X that is settled, or is the splitter being processed,
  splits into parts P0, P1, ..., Pr, in ascending order of their
  counts, P0 is not queued.  Proof: the queue is LIFO, so P1..Pr are
  queued above the place of P0 and popped before P0 would have been,
  and each is settled from then on, as X is.  So when P0 would have
  been popped, the count in P0 is the count in X less those in P1..Pr,
  constant on every cell, and P0 splits nothing.  At a child node T is
  settled, so {v} is not queued.  The one splitter left, T - {v},
  needs no count: the count in T is constant on every cell, so the
  count in T - {v} splits each cell into the neighbours of v and the
  rest, in that order (``_Search.child``).
* A popped splitter that has split since it was queued is skipped.
  Proof: it was still queued when it split, so not yet known to be
  settled, and all its parts were queued above it and popped before
  it.  Each part is settled since its pop: processed, or skipped and
  settled by this same argument.  So their union, the splitter, is
  settled and splits nothing.

A caller that labels many graphs can pass :func:`canonical_form` one
dict ``seen`` that maps leaf certificates to canonical certificates.  A
full search adds every distinct leaf certificate it reached, each mapped
to its least one; a search that reaches a leaf whose certificate is in
``seen`` stops there and returns the mapped certificate.  Proof: equal
leaf certificates are the same labeled graph, so the two graphs are
isomorphic and have the same least certificate.  An isomorphic copy
stops at its first leaf: the tree is built by isomorphism-invariant
rules, so an isomorphism maps the copy's tree onto the tree searched
before, and the first leaf of the copy onto some leaf of that tree with
the same certificate; pruning skipped only leaves whose certificates it
had reached, so that certificate is in ``seen``.  A graph isomorphic to
none labeled before reaches no certificate in ``seen`` and searches in
full.

:func:`_automorphisms` caps the leaves of this search.  However early it
stops, its generators (a prefix of those of :func:`canonical_form`) come
from pairs of leaves with equal certificates, so they are automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .errors import SizeCapExceeded
from .graphcore import Graph, bits, pack_graph6

SIZE_CAP = 512


@dataclass(frozen=True)
class CanonicalForm:
    """A certificate and what the search found on the way.

    Only the certificate takes part in equality and hashing.  The rest
    depends on the input labeling: ``generators`` are the automorphisms
    found, each as the list of images of vertices 0..n-1; ``leaves``
    counts the leaves reached, ``automorphisms`` the leaves that gave an
    automorphism, and ``backjumps`` those whose jump abandoned the
    remaining siblings of at least one ancestor above the leaf's parent.
    A search stopped by a leaf certificate in ``seen`` holds the
    certificate mapped to it and what was found up to that leaf: for a
    graph isomorphic to one labeled before, ``leaves == 1`` and no
    generators.
    """

    certificate: bytes
    generators: tuple[tuple[int, ...], ...] = field(default=(), compare=False, repr=False)
    leaves: int = field(default=0, compare=False)
    automorphisms: int = field(default=0, compare=False)
    backjumps: int = field(default=0, compare=False)


class _Backjump(Exception):
    def __init__(self, level: int):
        self.level = level


def _refine(
    rows: tuple[int, ...], cells: list[int], queue: list[int], unsettled: set[int]
) -> list[int]:
    """Equitable refinement of an ordered partition, by the rules of the
    module docstring.

    ``unsettled`` holds every cell not known to be settled, ``queue`` the
    splitters still to pop; a cell of ``unsettled`` that is not queued
    must be settled once the queued ones are, as a part left off the
    queue is.  Both are updated in place.  Each popped splitter splits
    every cell by the number of neighbours in the splitter; the
    sub-cells, in ascending order of that count, take the cell's place
    and join the queue, all but the first when the cell was settled.
    This order keeps the procedure isomorphism-invariant.  Once every
    cell is a singleton, no splitter can change anything.

    The counts are bit-sliced: bit v of ``planes[i]`` is bit i of the
    count for vertex v, and each splitter vertex adds its row with a
    ripple carry.
    """
    multi = [i for i, cell in enumerate(cells) if cell & (cell - 1)]  # non-singletons
    while queue and multi:
        splitter = queue.pop()
        if splitter not in unsettled:
            continue  # split since it was queued, so it splits nothing
        unsettled.remove(splitter)  # cells stay equitable with respect to it
        planes: list[int] = []
        for u in bits(splitter):
            carry = rows[u]
            for i, plane in enumerate(planes):
                planes[i] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        if not planes:
            continue
        touched = 0
        for plane in planes:
            touched |= plane
        planes.reverse()  # most significant first: 0-bits sort before 1-bits
        splits: list[tuple[int, list[int]]] = []
        for i in multi:
            cell = cells[i]
            if not cell & touched:
                continue
            parts = [cell]
            for plane in planes:
                if not cell & plane or cell & plane == cell:
                    continue  # this count bit is the same on the whole cell
                split: list[int] = []
                for part in parts:
                    high = part & plane
                    if high and high != part:
                        split += (part ^ high, high)
                    else:
                        split.append(part)
                parts = split
            if len(parts) > 1:
                splits.append((i, parts))
                if cell in unsettled:
                    unsettled.remove(cell)
                    queue += parts
                else:
                    queue += parts[1:]
                unsettled.update(parts)
        if splits:
            out: list[int] = []
            start = 0
            for i, parts in splits:
                out += cells[start:i]
                out += parts
                start = i + 1
            cells = out + cells[start:]
            multi = [i for i, cell in enumerate(cells) if cell & (cell - 1)]
    return cells


def _find(parent: list[int], x: int) -> int:
    """The root of x in the union-find forest ``parent``, halving the
    path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _target_cell(cells: list[int]) -> int:
    """Index of the first smallest non-singleton cell, or -1 if every
    cell is a singleton."""
    sizes = ((cell.bit_count(), i) for i, cell in enumerate(cells) if cell & cell - 1)
    return min(sizes, default=(0, -1))[1]


class _NodeOrbits:
    """Orbits on a node's target cell under the found automorphisms that
    fix every cell of the node, with the automorphisms folded in as they
    are found.  The node's cells refine the partition that individualizes
    the vertices of its path, so an automorphism fixes every cell exactly
    when it fixes each vertex of the path.  Such an automorphism maps the
    target cell to itself, so the pairs (v, a[v]) with v in the cell
    generate its orbits there."""

    def __init__(self, path: tuple[int, ...], target: int, n: int):
        self.path = path
        self.target = target
        self.parent = list(range(n))
        self.folded = 0

    def find(self, x: int) -> int:
        return _find(self.parent, x)

    def fold(self, autos: list[tuple[int, ...]]) -> bool:
        """Take in the automorphisms found since the last call; whether
        any orbit grew."""
        grew = False
        for a in autos[self.folded :]:
            if any(a[v] != v for v in self.path):
                continue
            for v in bits(self.target):
                ra, rb = self.find(v), self.find(a[v])
                if ra != rb:
                    self.parent[ra] = rb
                    grew = True
        self.folded = len(autos)
        return grew


def _leaf_certificate(n: int, matrix: list[str], order: list[int]) -> bytes:
    """graph6 of the relabeling that puts vertex order[i] at position i.

    ``matrix[x]`` is row x as a string whose character y is "1" iff
    x ~ y; column j of the upper triangle is the first j characters of
    row order[j] read in the new order."""
    pick = itemgetter(*order)
    return pack_graph6(n, ["".join(pick(matrix[w]))[:j] for j, w in enumerate(order)])


class _Search:
    """Depth-first search of one graph's tree, keeping in ``known`` each
    distinct leaf certificate reached, with the vertex order and path of
    its first leaf.  With ``seen``, it stops at a leaf whose certificate
    is a key there, its value in ``hit``.  ``max_leaves`` >= 0 caps its
    leaves.  A stop is ``_Backjump(-1)``."""

    def __init__(self, g: Graph, seen: dict[bytes, bytes] | None = None, max_leaves: int = -1):
        self.n = n = g.order
        self.rows = g.rows
        self.matrix = [format(row, f"0{n}b")[::-1] for row in g.rows]
        self.known: dict[bytes, tuple[list[int], list[int]]] = {}
        self.path: list[int] = []
        self.autos: list[tuple[int, ...]] = []
        self.leaves = 0
        self.backjumps = 0
        self.seen = seen
        self.hit: bytes | None = None
        self.max_leaves = max_leaves

    def leaf(self, cells: list[int]):
        self.leaves += 1
        order = [cell.bit_length() - 1 for cell in cells]
        cert = _leaf_certificate(self.n, self.matrix, order)
        if self.seen is not None and cert in self.seen:
            self.hit = self.seen[cert]
            raise _Backjump(-1)  # past the root
        path = self.path
        ref = self.known.get(cert)
        if ref is None:
            self.known[cert] = (order, list(path))
            return
        # both orders give the same labeled graph: position i of this
        # leaf to position i of the earlier one is an automorphism
        image = [0] * self.n
        for v, w in zip(order, ref[0]):
            image[v] = w
        self.autos.append(tuple(image))
        level = next(lvl for lvl, (a, b) in enumerate(zip(ref[1], path)) if a != b)
        if level < len(path) - 1:
            self.backjumps += 1
        raise _Backjump(level)

    def run(self) -> None:
        """Search the tree from the uniform partition to its end or to a stop."""
        try:
            self.node(self.root())
        except _Backjump:  # a stop: only level -1 leaves the root
            pass

    def root(self) -> list[int]:
        """The refined uniform partition."""
        full = (1 << self.n) - 1
        return _refine(self.rows, [full], [full], {full})

    def child(self, cells: list[int], t: int, v: int) -> list[int]:
        """The refined partition of the child of the refined partition
        ``cells`` that takes v out of its target cell ``cells[t]`` and
        puts it before the rest.  The first splitter, the target less v,
        splits each cell into its neighbours and non-neighbours of v, in
        that order (module docstring); :func:`_refine` goes on from
        there."""
        row = self.rows[v]
        out: list[int] = []
        queue: list[int] = []
        unsettled: set[int] = set()  # the parent's cells and {v} are settled
        for cell in cells[:t] + [1 << v, cells[t] ^ (1 << v)] + cells[t + 1 :]:
            near = cell & row
            if near and near != cell:
                out += (near, cell ^ near)
                queue.append(cell ^ near)
                unsettled.update((near, cell ^ near))
            else:
                out.append(cell)
        return _refine(self.rows, out, queue, unsettled)

    def node(self, cells: list[int]):
        """Search below the refined partition ``cells``."""
        t = _target_cell(cells)
        if t < 0:
            self.leaf(cells)
            return
        target = cells[t]
        autos, path = self.autos, self.path
        orbits: _NodeOrbits | None = None
        searched: set[int] = set()  # orbit roots of the children searched
        branched: list[int] = []
        for v in bits(target):
            if self.leaves == self.max_leaves:
                raise _Backjump(-1)  # past the root
            if branched and autos:
                if orbits is None:
                    orbits = _NodeOrbits(tuple(path), target, self.n)
                    searched = set(branched)
                if orbits.fold(autos):
                    searched = {orbits.find(u) for u in branched}
                if orbits.find(v) in searched:
                    continue
            path.append(v)
            try:
                self.node(self.child(cells, t, v))
            except _Backjump as bj:
                if bj.level < len(path) - 1:  # above this node
                    raise
            finally:
                path.pop()
            branched.append(v)
            if orbits is not None:
                searched.add(orbits.find(v))


def canonical_form(g: Graph, seen: dict[bytes, bytes] | None = None) -> CanonicalForm:
    """Certificate by individualization-refinement with orbit pruning
    and automorphism backjumping.  ``seen``, shared by the calls on a set
    of graphs, maps the leaf certificates of the graphs labeled so far to
    their certificates (see the module docstring)."""
    n = g.order
    if n > SIZE_CAP:
        raise SizeCapExceeded(f"canonical_form: order {n} exceeds cap {SIZE_CAP}")
    search = _Search(g, seen)
    search.run()
    cert = search.hit
    if cert is None:
        cert = min(search.known)
        if seen is not None:
            seen.update(dict.fromkeys(search.known, cert))
    autos = search.autos
    return CanonicalForm(cert, tuple(autos), search.leaves, len(autos), search.backjumps)


def _automorphisms(g: Graph, max_leaves: int) -> tuple[tuple[int, ...], ...]:
    """The generators found in the first ``max_leaves`` leaves of the search."""
    search = _Search(g, max_leaves=max_leaves)
    search.run()
    return tuple(search.autos)


def _set_orbits(masks: list[int], generators: tuple[tuple[int, ...], ...]) -> list[int]:
    """For each vertex set in ``masks``, the index of the first set of its
    orbit under ``generators``.  An image not in ``masks`` is skipped, so
    a partial list may split an orbit, but two sets joined are related."""
    index = {m: i for i, m in enumerate(masks)}
    parent = list(range(len(masks)))
    for a in generators:
        image = [1 << w for w in a]
        for i, m in enumerate(masks):
            j = index.get(sum(map(image.__getitem__, bits(m))), i)
            ri, rj = _find(parent, i), _find(parent, j)
            parent[max(ri, rj)] = min(ri, rj)
    return [_find(parent, i) for i in range(len(masks))]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Certificate equality, after cheap invariant shortcuts."""
    if g.order != h.order:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    seen: dict[bytes, bytes] = {}
    return canonical_form(g, seen) == canonical_form(h, seen)
