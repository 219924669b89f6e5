"""Build a strongly regular graph from its pieces.

Take the divisible design graph on 36 vertices with parameters
(36,24,15,16;4,9), a symmetric 2-(4,3,2) design, and ANY bijection from
the 4 canonical classes to the 4 blocks; attaching the design's points
as a coclique always yields an SRG(40,27,18,18).

Run with:  python demos/04_construct_srg.py
"""

from itertools import permutations

from srgddg import (
    all_ksubsets_design,
    attach_coclique,
    decompose,
    fieldspec,
    srg_params,
    symplectic_complement,
)
from srgddg.coclique import CocliqueQuery

# harvest a DDG(36,24,15,16;4,9) by decomposing the symplectic graph
graph = symplectic_complement(2, fieldspec(3, 1))
dec = decompose(graph, CocliqueQuery(mode="first"))[0]
print("divisible design graph:", dec.ddg_params.tuple6)

# the 2-(4,3,2) design: all 3-subsets of a 4-set
design = all_ksubsets_design(4)
print("design:", design.params)

for phi in permutations(range(4)):
    built = attach_coclique(dec.ddg, dec.ddg_partition, design, phi)
    p = srg_params(built)
    print(f"phi = {phi} -> SRG{p.tuple4}")
