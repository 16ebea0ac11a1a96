"""Exact rational tensor calculus for left-invariant almost contact
structures with Norden metric on Lie groups.

Every number is an exact rational: tensors hold integer numerators over
one common denominator, stored and contracted in int32 or int64 where a
bound proves it exact and in Python ints otherwise; scalar results are
ints and :class:`fractions.Fraction` values.  There are no floats and no
tolerances.  The typical workflow::

    from norden import FamilyParams, Geometry, generate_family, run_report

    model = generate_family(FamilyParams(n=1, lam=(2, 3)))
    report = run_report(model)
    print(report.invariants["tau"])        # Fraction(10, 1)
    print(Geometry(model).tau)             # the same layer, read directly
"""
from .errors import (
    BadParams,
    DimensionMismatch,
    InternalInconsistency,
    InvalidAlgebra,
    LinearlyDependent,
    NordenError,
    ParseError,
    SingularMetric,
    ValidationError,
    ValidationReport,
    VarianceMismatch,
    Violation,
)
from .family import FamilyParams, generate_family, heisenberg_model
from .geometry import (
    Connection,
    Geometry,
    IdentityVerdict,
    Section,
    covariant_derivative,
    is_metric_compatible,
    is_torsion_free,
    levi_civita,
    nabla_eta_from_fundamental,
    psi4,
    riemann,
    section,
    square_norms,
    structure_pack,
    verify_identities,
)
from .lie import (
    LieAlgebra,
    algebra_from_brackets,
    bracket,
    is_solvable,
    validate,
)
from .modelfile import parse_model, serialize_model
from .report import (
    GeometryReport,
    all_identities_ok,
    report_to_json,
    report_to_text,
    run_report,
)
from .structures import AcnModel, associated_metric, validate_structure
from .tensors import (
    Tensor,
    as_scalar,
    einsum_scalar,
    exact_einsum,
    exact_sum,
    format_scalar,
    invert_symmetric,
    matrix_rank,
    row_space_basis,
    signature,
)

__version__ = "0.1.0"

__all__ = [
    # errors
    "BadParams", "DimensionMismatch", "InternalInconsistency", "InvalidAlgebra",
    "LinearlyDependent", "NordenError", "ParseError", "SingularMetric",
    "ValidationError", "ValidationReport", "VarianceMismatch", "Violation",
    # family
    "FamilyParams", "generate_family", "heisenberg_model",
    # geometry
    "Connection", "covariant_derivative", "is_metric_compatible", "is_torsion_free",
    "nabla_eta_from_fundamental", "psi4", "Section", "section",
    "Geometry", "levi_civita", "riemann", "square_norms", "structure_pack",
    "IdentityVerdict", "verify_identities",
    # lie
    "LieAlgebra", "algebra_from_brackets", "bracket", "is_solvable", "validate",
    # modelfile
    "parse_model", "serialize_model",
    # report
    "GeometryReport", "all_identities_ok", "report_to_json", "report_to_text",
    "run_report",
    # structures
    "AcnModel", "associated_metric", "validate_structure",
    # tensors
    "Tensor", "as_scalar", "einsum_scalar", "exact_einsum", "exact_sum",
    "format_scalar", "invert_symmetric", "matrix_rank", "row_space_basis",
    "signature",
]
