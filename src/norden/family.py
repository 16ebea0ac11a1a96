"""Generators for the built-in model families.

The main family lives on a ``(2n+1)``-dimensional solvable Lie algebra
with basis ``x_0 ... x_{2n}`` and the only nonzero brackets

    [x_i, x_0] = lambda_i x_0,       i = 1 ... 2n,

carrying the structure ``phi x_i = x_{i+n}``, ``phi x_{i+n} = -x_i``
(for ``i = 1 ... n``), ``phi x_0 = 0``, ``xi = x_0``, ``eta = dual of
x_0``, and the diagonal metric ``g = diag(1, 1...1, -1...-1)`` with
``n`` plus and ``n`` minus signs after the leading 1.  Every member is
a pure eta-omega class model, which makes the family the package's
main proving ground.

A Heisenberg-type control model with bracket ``[x_1, x_2] = x_0`` and
the same structure tensors is included: it is a valid almost contact
metric model that falls outside the pure class.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadParams
from .lie import algebra_from_brackets
from .structures import AcnModel
from .tensors import Tensor, as_scalar, format_scalar


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of a family member: the half-dimension ``n >= 1`` and
    the ``2n`` rational coefficients ``lam``."""

    n: int
    lam: tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise BadParams(f"n must be a positive integer, got {self.n!r}")
        try:
            lam = tuple(as_scalar(v) for v in self.lam)
        except (TypeError, ValueError) as exc:
            raise BadParams(f"lambda coefficients must be exact rationals: {exc}")
        if len(lam) != 2 * self.n:
            raise BadParams(
                f"expected {2 * self.n} lambda coefficients for n={self.n}, "
                f"got {len(lam)}"
            )
        object.__setattr__(self, "lam", lam)


def _structure_tensors(n: int):
    """The standard ``(phi, xi, eta, g)`` on dimension ``2n + 1``."""
    d = 2 * n + 1
    i = np.arange(1, n + 1)
    phi = np.zeros((d, d), dtype=int)
    phi[i + n, i] = 1     # phi x_i = x_{i+n}
    phi[i, i + n] = -1    # phi x_{i+n} = -x_i
    x0 = np.zeros(d, dtype=int)
    x0[0] = 1
    g = np.diag([1] + [1] * n + [-1] * n)
    return Tensor(phi, "ud"), Tensor(x0, "u"), Tensor(x0, "d"), Tensor(g, "dd")


def generate_family(params: FamilyParams) -> AcnModel:
    """Build the family member with the given parameters."""
    d = 2 * params.n + 1
    brackets = {
        (i, 0): [params.lam[i - 1] if k == 0 else 0 for k in range(d)]
        for i in range(1, d)
    }
    algebra = algebra_from_brackets(d, brackets)
    phi, xi, eta, g = _structure_tensors(params.n)
    lam_str = ",".join(format_scalar(v) for v in params.lam)
    return AcnModel(
        algebra=algebra, phi=phi, xi=xi, eta=eta, g=g,
        name=f"family(n={params.n}; lambda={lam_str})",
    )


def heisenberg_model() -> AcnModel:
    """The Heisenberg-type control: ``[x_1, x_2] = x_0`` with the same
    structure tensors as the ``n = 1`` family.  Valid, but not in the
    pure eta-omega class."""
    algebra = algebra_from_brackets(3, {(1, 2): [1, 0, 0]})
    phi, xi, eta, g = _structure_tensors(1)
    return AcnModel(
        algebra=algebra, phi=phi, xi=xi, eta=eta, g=g, name="heisenberg",
    )
