"""The ``twisted`` gate of the identity battery on F11 models that are not
the paper's example.

``zoo.f11_dim5(l1, l3, s, u)`` puts the n = 2 family's (phi, xi, eta, g)
on a four-parameter dim-5 algebra.  Jacobi holds for every parameter and
F stays in the pure class, but unlike on the family ``R(x, y, phi z, phi
u)`` need not vanish, which shuts the gate of three identities."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norden import Geometry, validate_structure
from zoo import f11_dim5

TWISTED_GATED = ("r_equals_psi4_s", "ricci_from_s", "s_trace_divergence")
TWISTED_DETAIL = "R(x, y, phi z, phi u) does not vanish identically"


@settings(max_examples=30, deadline=None)
@given(st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=3)] * 4))
def test_twisted_gate_shuts_exactly_where_the_twisted_curvature_is_nonzero(params):
    model = f11_dim5(*params)
    assert validate_structure(model).ok
    geo = Geometry(model)
    assert geo.f11
    verdicts = geo.identities
    assert all(v.ok for v in verdicts.values())
    twisted = not geo.twisted_r.is_zero()
    for name in TWISTED_GATED:
        v = verdicts[name]
        assert v.applicable is not twisted, name
        assert (v.detail == TWISTED_DETAIL) is twisted, name


# (l1, l3, s, u) -> (tau, f0, number of identities that apply)
PINNED = {
    (1, 3, 1, 0): (12, False, 8),
    (1, 1, 1, 3): (80, False, 8),
    (0, 0, 1, 1): (0, True, 9),
}


@pytest.mark.parametrize("params", list(PINNED))
def test_three_models_beyond_the_family_are_pinned(params):
    geo = Geometry(f11_dim5(*params))
    tau, f0, applicable = PINNED[params]
    assert (geo.tau, geo.f0) == (tau, f0)
    verdicts = geo.identities
    assert sum(v.applicable for v in verdicts.values()) == applicable
    assert all(v.ok for v in verdicts.values())
    assert all(verdicts[name].detail == TWISTED_DETAIL for name in TWISTED_GATED)
