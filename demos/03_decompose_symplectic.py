"""The decomposition pipeline on symplectic non-orthogonality graphs.

A Hoffman coclique is an independent set attaining the bound v*s/(s-k).
For the graphs built here, removing one leaves a proper divisible design
graph, and the coclique neighbourhoods form a symmetric 2-design.

Run with:  python demos/03_decompose_symplectic.py
"""

from srgddg import attach_coclique, decompose, fieldspec, srg_params, symplectic_complement
from srgddg.graphcore import set_of

for d, p_char, e in ((2, 2, 1), (2, 3, 1), (3, 2, 1)):
    F = fieldspec(p_char, e)
    graph = symplectic_complement(d, F)
    sp = srg_params(graph)
    print(f"\n{graph.label}: SRG{sp.tuple4}, s = {sp.s}, "
          f"coclique bound c = {sp.c}")

    decs = decompose(graph)
    print(f"  {len(decs)} decompositions (every size-{sp.hoffman_size()} "
          f"coclique works)")

    d0 = decs[0]
    print(f"  first coclique: {set_of(d0.coclique)}")
    print(f"  induced divisible design graph: {d0.ddg_params.tuple6}")
    print(f"  extracted design: 2-{d0.design.params}")

    # replaying a witness rebuilds the graph with the vertices outside
    # the coclique first and the coclique vertices after them
    rebuilt = attach_coclique(d0.ddg, d0.ddg_partition, d0.design, d0.phi)
    old = set_of((1 << graph.order) - 1 ^ d0.coclique) + set_of(d0.coclique)
    assert all(
        rebuilt.has_edge(i, j) == graph.has_edge(old[i], old[j])
        for i in range(graph.order)
        for j in range(i)
    )
    print("  witness replayed edge for edge")
