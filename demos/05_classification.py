"""
Class membership and exact identities
=====================================

Two classes are decided exactly: the parallel class (F = 0) and the
pure eta-omega class.  On the pure class a battery of identities ties
the structure tensors to the curvature; each is verified at literal
rational equality and reported with a verdict.
"""
from fractions import Fraction

from norden import FamilyParams, Geometry, generate_family, heisenberg_model

# --- a scan across the parameter space -------------------------------------
# The flags are layers of one Geometry per model: f0 (F = 0), f11 (the
# pure class) and isotropic_kahler.  The last is true exactly when the
# lambda balance sum(lambda_k^2 - lambda_{k+n}^2) vanishes: the
# indefinite metric lets a nonzero nabla phi have zero square norm.
print("lambda     F=0    pure   isotropic")
for lam in ((0, 0), (2, 3), (1, 1), (Fraction(3, 2), Fraction(3, 2)), (3, -3)):
    geo = Geometry(generate_family(FamilyParams(1, lam)))
    flags = (geo.f0, geo.f11, geo.isotropic_kahler)
    shown = ",".join(str(v) for v in lam)
    print(f"{shown:10s} {flags[0]!s:6s} {flags[1]!s:6s} {flags[2]!s}")

# Note (1, 1): the structure is not parallel (F != 0) yet both square
# norms vanish — isotropic but not parallel, the interesting middle.

# --- the identity battery ---------------------------------------------------
verdicts = Geometry(generate_family(FamilyParams(1, (2, 3)))).identities
print()
print("identity verdicts on lambda = (2, 3):")
for name, verdict in verdicts.items():
    if verdict.applicable:
        mark = "pass" if verdict.passed else "FAIL"
    else:
        mark = "n/a "
    print(f"  [{mark}] {name}")

# --- a model outside the pure class ----------------------------------------
# The Heisenberg-type control model is a valid structure whose F is not
# carried by eta and omega alone: the pure-class identities are
# reported as inapplicable rather than silently skipped or failed.
heis = Geometry(heisenberg_model())
print()
print("Heisenberg control: pure class =", heis.f11)
verdicts = heis.identities
inapplicable = [n for n, v in verdicts.items() if not v.applicable]
print("inapplicable identities:", ", ".join(inapplicable))
unconditional = [n for n, v in verdicts.items() if v.applicable]
print("still checked:", ", ".join(unconditional))
