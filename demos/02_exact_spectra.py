"""Exact integer spectra without floating point.

Run with:  python demos/02_exact_spectra.py
"""

from srgddg import char_poly, integral_spectrum, petersen, rank
from srgddg.exact import NonIntegral, add_scaled_identity
from srgddg.graphcore import adjacency_matrix, cycle

P = petersen()

# the Petersen graph is strongly regular, so its spectrum is
# moment-certified straight from its bit rows: a connected regular graph
# has mult(k) = 1, and the two other eigenvalues and their multiplicities
# are the only ones that match the power sums tr A^j for j = 0..4; no
# elimination and no dense matrix are needed
spec = integral_spectrum(P)
print("spectrum:", spec.as_dict())

# cross-check each multiplicity by rank: a symmetric matrix is
# diagonalizable, so mult(theta) = n - rank(A - theta*I), computed with
# fraction-free elimination
A = adjacency_matrix(P)
for theta, mult in spec.pairs:
    r = rank(add_scaled_identity(A, -theta))
    print(f"  theta={theta}: multiplicity {mult} = 10 - rank {r}")
    assert mult == 10 - r

# an independent third route: the exact characteristic polynomial by a
# division-free recurrence; it must equal the product of (x - theta) over
# the spectrum, here (x-3)(x-1)^5(x+2)^4, expanded coefficient by coefficient
poly = char_poly(A)
print("\nchar poly coefficients (ascending):", poly)
expanded = [1]
for theta, mult in spec.pairs:
    for _ in range(mult):
        # times (x - theta): coefficient i becomes c[i-1] - theta * c[i]
        expanded = [lo - theta * hi for lo, hi in zip([0] + expanded, expanded + [0])]
print("expanded from the spectrum:         ", tuple(expanded))
assert tuple(expanded) == poly

# an irrational spectrum is an informative outcome, not an error
res = integral_spectrum(cycle(5))
assert isinstance(res, NonIntegral)
print("\nC5: integer eigenvalues", res.found,
      "+", res.residual_degree, "non-integral eigenvalues")
