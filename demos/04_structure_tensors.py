"""
Structure tensors and square norms
==================================

The covariant derivative of phi is packaged as the trilinear form
F(x, y, z) = g((nabla_x phi) y, z).  Its traces give four 1-forms, its
xi-row gives omega and the dual vector Omega, and together with the
Nijenhuis tensor they decide how far the structure is from parallel.
"""
from norden import FamilyParams, Geometry, generate_family

# A Geometry holds one model and computes each layer once, on first read.
geo = Geometry(generate_family(FamilyParams(1, (2, 3))))

# Each structure tensor is a layer of its own: F, the 1-forms, nabla eta,
# the Nijenhuis tensor, and the auxiliary symmetric tensor S.
print("nonzero F components:")
for idx, value in geo.f.nonzero_items():
    print(f"  F{idx} = {value}")

# The 1-forms: theta and theta* are metric traces of F; omega is the
# xi-row, omega* = omega o phi; Omega is the g-dual vector of omega.
print("theta :", geo.theta.components.tolist())
print("theta*:", geo.theta_star.components.tolist())
print("omega :", geo.omega.components.tolist())
print("omega*:", geo.omega_star.components.tolist())
print("Omega :", geo.omega_vec.components.tolist())

# For this family theta = omega and theta* = 0 — the whole of F is
# carried by eta and omega, which is exactly the pure-class condition.

# The Nijenhuis tensor is computed by two independent routes — straight
# from brackets, and from covariant derivatives of phi and eta — and
# the library cross-checks them whenever the layer geo.n is read.
nb = geo.n_from_brackets
nd = geo.n_from_derivatives
print()
print("Nijenhuis routes agree:", nb == nd)
print("nonzero N components:")
for idx, value in nb.nonzero_items():
    print(f"  N{idx} = {value}")

# Square norms are full-basis contractions against g; with an
# indefinite metric they can be negative or vanish on nonzero tensors.
print()
print("||nabla phi||^2 =", geo.nabla_phi_square_norm)
print("||nabla eta||^2 =", geo.nabla_eta_square_norm)
print("||N||^2         =", geo.nijenhuis_square_norm)

# The chain ||nabla phi||^2 = -||N||^2 = -2 ||nabla eta||^2 holds on
# the whole pure class; here all equal 10, -(-10), -2(-5).
