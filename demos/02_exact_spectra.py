"""Exact integer spectra without floating point.

Run with:  python demos/02_exact_spectra.py
"""

from srgddg import char_poly, integral_spectrum, petersen, rank
from srgddg.exact import NonIntegral, add_scaled_identity
from srgddg.graphcore import adjacency_matrix, cycle

A = adjacency_matrix(petersen())

# the Petersen graph is strongly regular, so its spectrum is
# moment-certified: a connected regular graph has mult(k) = 1, and the
# two other eigenvalues and their multiplicities are the only ones that
# match the power sums tr A^j for j = 0..4; no elimination is needed
spec = integral_spectrum(A)
print("spectrum:", spec.as_dict())

# cross-check each multiplicity by rank: a symmetric matrix is
# diagonalizable, so mult(theta) = n - rank(A - theta*I), computed with
# fraction-free elimination
for theta, mult in spec.pairs:
    r = rank(add_scaled_identity(A, -theta))
    print(f"  theta={theta}: multiplicity {mult} = 10 - rank {r}")
    assert mult == 10 - r

# an independent third route: the exact characteristic polynomial by a
# division-free recurrence; for the Petersen graph it factors as
# (x-3)(x-1)^5(x+2)^4, and synthetic division recovers each multiplicity
poly = char_poly(A)
print("\nchar poly coefficients (ascending):", poly.coeffs)
for theta, mult in spec.pairs:
    q, k = poly, 0
    while True:
        q2, rem = q.synthetic_div(theta)
        if rem:
            break
        q, k = q2, k + 1
    print(f"  theta={theta}: (x - theta) divides it exactly {k} times")
    assert k == mult

# an irrational spectrum is an informative outcome, not an error
res = integral_spectrum(adjacency_matrix(cycle(5)))
assert isinstance(res, NonIntegral)
print("\nC5: integer eigenvalues", res.found,
      "+", res.residual_degree, "non-integral eigenvalues")
