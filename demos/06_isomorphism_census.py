"""Counting non-isomorphic divisible design graphs.

Different Hoffman cocliques of one strongly regular graph can leave
non-isomorphic divisible design graphs.  Canonical labeling certificates
make the census a set-cardinality question.

Run with:  python demos/06_isomorphism_census.py
"""

from srgddg import canonical_form, decompose, fieldspec, symplectic_complement, triangular

# On 15 vertices the symplectic group moves every coclique to every
# other, so all 15 decompositions leave one DDG up to isomorphism.
g15 = symplectic_complement(2, fieldspec(2, 1))
decs = decompose(g15)
certs = {canonical_form(d.ddg).certificate for d in decs}
print(f"SRG(15,8,4,4): {len(decs)} decompositions, "
      f"{len(certs)} DDG up to isomorphism")

# T(6) is the same graph in a different dress; its certificate agrees.
assert canonical_form(triangular(6)).certificate == canonical_form(g15).certificate
print("T(6) and the symplectic construction share one certificate")

# The 40-vertex graph also yields a single isomorphism class from its
# own 40 cocliques; across ALL 28 strongly regular (40,27,18,18) graphs
# the same census is known to reach 87 classes (needs the external
# catalog; see README).
# One dict of leaf certificates shared by the 40 searches, as `census`
# keeps per graph: a DDG isomorphic to one labeled before stops at the
# first leaf of its search.
g40 = symplectic_complement(2, fieldspec(3, 1))
decs40 = decompose(g40)
seen = {}
forms40 = [canonical_form(d.ddg, seen) for d in decs40]
certs40 = {f.certificate for f in forms40}
print(f"SRG(40,27,18,18) (symplectic copy): {len(decs40)} decompositions, "
      f"{len(certs40)} DDG up to isomorphism; "
      f"{sum(f.leaves == 1 for f in forms40[1:])} of the other {len(forms40) - 1} "
      "searches stopped at their first leaf")
