"""
Exact tensor arithmetic
=======================

Every quantity in this library is a tensor over the rationals: entries
are Python ints or ``fractions.Fraction``, never floats, so every
comparison downstream is literal equality.  This script shows the small
exact linear-algebra core that everything else is built on.
"""
from fractions import Fraction

from norden import Tensor, exact_einsum, invert_symmetric, signature

# A tensor is an immutable array plus a variance string: one letter per
# slot, "u" for a contravariant (upper) slot, "d" for a covariant
# (lower) one.  A metric is a "dd" tensor, a vector is "u".
g = Tensor([[1, 0, 0], [0, 1, 0], [0, 0, -1]], "dd")
v = Tensor([2, Fraction(1, 3), -1], "u")
print("metric g:", g.components.tolist())
print("vector v:", v.components.tolist())

# Entries may be written as ints, Fractions, or strings; floats are
# rejected at construction time so no rounding can sneak in.
w = Tensor(["1/2", "-2/3", 4], "u")
print("string-built vector:", w.components.tolist())

# exact_einsum contracts in numpy's einsum notation: each repeated
# letter is summed.  g(v, v) sums both slots of g against v.
gvv = exact_einsum("ij,i,j->", g, v, v)
print("g(v, v) =", gvv.item())

# The inverse metric is computed by exact Gauss-Jordan elimination and
# comes back with both slots upper.
ginv = invert_symmetric(g)
print("g^{-1}:", ginv.components.tolist())

# Signature by congruence diagonalization (Sylvester's law of inertia):
# the result is the exact triple (plus, minus, zero).  No eigenvalues,
# no floating point.
print("signature of g:", signature(g))

# Dense cross terms are handled by symmetric elimination, including
# zero pivots (repaired by a basis shear).
h = Tensor([[0, 1, 2], [1, 0, 3], [2, 3, 0]], "dd")
print("signature of a zero-diagonal form:", signature(h))

# Exactness demonstration: a calculation that would drift under floats.
tiny = Fraction(1, 10**30)
a = Tensor([[1, tiny], [tiny, 1]], "dd")
ainv = invert_symmetric(a)
det_scale = ainv[0, 0]
print("inverse entry with a 10^-30 perturbation:", det_scale)
print("  (denominator has", len(str(det_scale.denominator)), "digits — no rounding)")
