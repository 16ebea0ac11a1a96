"""
Connection and curvature
========================

On a Lie group with left-invariant metric the Levi-Civita connection is
algebraic: the Koszul formula reduces to structure constants, so
covariant derivatives, curvature, and every scalar invariant come out
as exact rationals.
"""
from norden import (
    FamilyParams,
    generate_family,
    is_metric_compatible,
    is_torsion_free,
    levi_civita,
    riemann,
    section,
)

model = generate_family(FamilyParams(1, (2, 3)))
conn = levi_civita(model)

# gamma[k, i, j] is the x_k-coefficient of the derivative of x_j along
# x_i.  For this family the only nonzero rows are along xi = x_0.
print("nonzero connection components:")
for (k, i, j), value in conn.gamma.nonzero_items():
    print(f"  gamma[{k},{i},{j}] = {value}")

# The defining properties hold exactly.
print("torsion-free      :", is_torsion_free(conn, model))
print("metric compatible :", is_metric_compatible(conn, model))

# riemann returns the model's Geometry with its curvature layers
# computed: R with three slots up and with all slots lowered, the Ricci
# tensor, and three scalar curvatures.
curv = riemann(model, conn)
print()
print("nonzero R(.,.,.,.) components:")
for idx, value in curv.r04.nonzero_items():
    print(f"  R{idx} = {value}")
print("ricci:", curv.ricci.components.tolist())
print("tau   =", curv.tau)
print("tau*  =", curv.tau_star)
print("tau** =", curv.tau_2star)

# Sectional curvature of the plane spanned by two vectors, with the
# plane classified by how it meets the structure: planes containing xi,
# phi-invariant planes, planes orthogonal to their phi-image.
sections = {
    "span(xi, x1)": ([1, 0, 0], [0, 1, 0]),
    "span(xi, x2)": ([1, 0, 0], [0, 0, 1]),
    "span(x1, x2)": ([0, 1, 0], [0, 0, 1]),
}
print()
for label, (x, y) in sections.items():
    plane = section(model, conn, x, y)
    print(f"{label}: kind = {plane.kind:16s} k = {plane.sectional_curvature}")

# The xi-section curvatures are -lambda_i^2 / g(x_i, x_i); the
# phi-invariant plane span(x1, x2) is flat for every parameter choice.
