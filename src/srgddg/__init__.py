"""srgddg: exact-arithmetic toolkit for strongly regular graphs that
decompose into a Hoffman coclique plus a divisible design graph.

The package is organized as a library; see the ``demos/`` scripts in the
repository for narrative walkthroughs and the ``srgddg`` command for the
CLI surface.
"""

from .assembly import Decomposition, attach_coclique, decompose
from .coclique import CocliqueQuery, hoffman_cocliques
from .designs import (
    SymmetricDesign,
    all_ksubsets_design,
    complement_design,
    required_design_params,
    verify_design,
)
from .exact import Spectrum, char_poly, integral_spectrum, rank
from .galois import fieldspec, pg_hyperplane_design, symplectic_complement
from .graphcore import (
    Graph,
    complement_of,
    complete,
    composition,
    decode_graph6,
    edgeless,
    encode_graph6,
    from_edges,
    grid,
    induced_subgraph,
    petersen,
    triangular,
)
from .iso import are_isomorphic, canonical_form
from .recognize import (
    CanonicalPartition,
    DdgParams,
    DezaParams,
    SrgParams,
    ddg_recognize,
    deza_params,
    quotient_matrix,
    srg_params,
)
from .theory import (
    FamilyParams,
    enumerate_feasible,
    family_from,
    match_spectrum_shapes,
    punctured_spectrum,
    resolve_prime_power,
)

__version__ = "0.1.0"
