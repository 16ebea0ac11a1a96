"""Exception hierarchy and validation report containers.

Every failure mode of the library maps onto one of the exception types
below.  Validation routines do not raise on mathematical violations;
they return a :class:`ValidationReport` listing each broken rule, and
callers that need an exception wrap the report in ``ValidationError``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple


class NordenError(Exception):
    """Base class for all errors raised by this package."""


class SingularMetric(NordenError):
    """A symmetric bilinear form that must be invertible is degenerate."""


class VarianceMismatch(NordenError):
    """Tensor slots with incompatible variance were contracted or combined."""


class DimensionMismatch(NordenError):
    """Tensor or vector dimensions do not agree."""


class InvalidAlgebra(NordenError):
    """An operation requires structure constants that pass validation."""


class InternalInconsistency(NordenError):
    """Two independent computations of the same quantity disagree.

    This is never expected to happen; it indicates a bug, not bad input.
    """


class LinearlyDependent(NordenError):
    """Vectors that must span a 2-plane are linearly dependent."""


class BadParams(NordenError):
    """Family parameters are malformed (wrong length, non-rational, ...)."""


class DigitLimit(NordenError, ValueError):
    """A number to be written as text has more decimal digits than
    Python converts (``sys.get_int_max_str_digits()``)."""


class ParseError(NordenError):
    """A model file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Violation(NamedTuple):
    """One broken validation rule.

    ``rule`` is a stable identifier (e.g. ``"antisymmetry"``,
    ``"metric_signature"``), ``where`` the offending index tuple when one
    exists, and ``detail`` a human-readable explanation.  A named tuple,
    because a mutant model builds hundreds of them.
    """

    rule: str
    where: tuple | None = None
    detail: str = ""

    def __str__(self) -> str:
        loc = f" at {self.where}" if self.where is not None else ""
        msg = f": {self.detail}" if self.detail else ""
        return f"{self.rule}{loc}{msg}"


#: ``violation((rule, where, detail))`` is ``Violation(rule, where, detail)``
#: built by ``tuple.__new__``, without the generated ``__new__``, a Python
#: function: validating a mutant model builds hundreds of violations.
violation = functools.partial(tuple.__new__, Violation)


@dataclass
class ValidationReport:
    """Outcome of a validation pass: empty ``violations`` means success."""

    subject: str = ""
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, where: tuple | None = None, detail: str = "") -> None:
        self.violations.append(Violation(rule, where, detail))

    def rules(self) -> set[str]:
        """The set of distinct rule identifiers that were violated."""
        return {v.rule for v in self.violations}

    def extend(self, other: "ValidationReport") -> None:
        self.violations.extend(other.violations)

    def __str__(self) -> str:
        head = f"{self.subject}: " if self.subject else ""
        if self.ok:
            return head + "ok"
        lines = [head + f"{len(self.violations)} violation(s)"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


class ValidationError(NordenError):
    """Raised when a caller demands a valid object but validation failed."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(str(report))
