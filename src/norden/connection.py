"""The Levi-Civita connection of a left-invariant metric.

For left-invariant data all directional derivatives of components
vanish, so the Koszul formula collapses to bracket terms:

    2 g(nabla_{x_i} x_j, x_k)
        = g([x_i, x_j], x_k) + g([x_k, x_i], x_j) + g([x_k, x_j], x_i).

Connection coefficients are stored as ``gamma[k, i, j]``: the ``x_k``
coefficient of ``nabla_{x_i} x_j``.  Covariant derivatives of constant
tensors then consist purely of Gamma correction terms, one per slot.
The Koszul solve is :attr:`norden.geometry.Geometry.conn`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, VarianceMismatch
from .structures import AcnModel
from .tensors import DOWN, UP, Tensor, exact_sum


@dataclass(frozen=True)
class Connection:
    """Connection coefficients ``gamma[k, i, j]`` on a fixed basis
    (derivative direction ``i``, argument ``j``, output component ``k``)."""

    gamma: Tensor

    def __post_init__(self):
        if self.gamma.variance != "udd":
            raise VarianceMismatch(
                f"connection coefficients need variance 'udd', got "
                f"{self.gamma.variance!r}"
            )
        s = self.gamma.shape
        if len(s) != 3 or len(set(s)) != 1:
            raise DimensionMismatch(f"connection coefficients must be cubic, got {s}")

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]


def covariant_derivative(conn: Connection, t: Tensor) -> Tensor:
    """``nabla t`` of a constant tensor: a new covariant direction slot
    is prepended, and each original slot receives its Gamma correction
    (``+`` for contravariant slots, ``-`` for covariant ones), all summed
    in one exact combination."""
    d = conn.dim
    if any(s != d for s in t.shape):
        raise DimensionMismatch(
            f"tensor slots {t.shape} do not match connection dimension {d}"
        )
    if t.rank == 0:
        return Tensor(np.zeros(d, dtype=int), DOWN)
    slots = "abcdefgh"[:t.rank]
    terms = []
    for slot, var in enumerate(t.variance):
        argument = slots[:slot] + "m" + slots[slot + 1:]
        result = slots[:slot] + "k" + slots[slot + 1:]
        if var == UP:
            terms.append((1, f"kim,{argument}->i{result}", conn.gamma, t))
        else:
            terms.append((-1, f"mik,{argument}->i{result}", conn.gamma, t))
    return exact_sum(terms)


def is_torsion_free(conn: Connection, model: AcnModel) -> bool:
    """Exact check of ``nabla_x y - nabla_y x = [x, y]`` on basis pairs."""
    gamma, c = conn.gamma, model.algebra.c
    return exact_sum([(1, "kij->kij", gamma), (-1, "kji->kij", gamma),
                      (-1, "kij->kij", c)]).is_zero()


def is_metric_compatible(conn: Connection, model: AcnModel) -> bool:
    """Exact check of ``nabla g = 0``."""
    return covariant_derivative(conn, model.g).is_zero()
