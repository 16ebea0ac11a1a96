"""Exact rational tensor calculus for left-invariant almost contact
structures with Norden metric on Lie groups.

Every number is an exact rational: tensors hold integer numerators over
one common denominator, contracted in int64 where a bound proves it exact
and in Python ints otherwise; scalar results are ints and
:class:`fractions.Fraction` values.  There are no floats and no
tolerances.  The typical workflow::

    from norden import FamilyParams, Geometry, generate_family, run_report

    model = generate_family(FamilyParams(n=1, lam=(2, 3)))
    report = run_report(model)
    print(report.invariants["tau"])        # Fraction(10, 1)
    print(Geometry(model).curv.tau)        # the same layer, read directly
"""
from .classify import IdentityVerdict
from .connection import (
    Connection,
    covariant_derivative,
    is_metric_compatible,
    is_torsion_free,
)
from .curvature import CurvaturePack, Section, section
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
from .fundamental import (
    SquareNorms,
    StructurePack,
    matches_class_f11,
    nabla_eta_from_fundamental,
    psi4,
)
from .geometry import (
    Geometry,
    levi_civita,
    riemann,
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
    contract,
    einsum_scalar,
    format_scalar,
    invert_symmetric,
    matrix_rank,
    row_space_basis,
    signature,
    tensor_product,
)

__version__ = "0.1.0"

__all__ = [
    # classify
    "IdentityVerdict",
    # connection
    "Connection", "covariant_derivative", "is_metric_compatible", "is_torsion_free",
    # curvature
    "CurvaturePack", "Section", "section",
    # errors
    "BadParams", "DimensionMismatch", "InternalInconsistency", "InvalidAlgebra",
    "LinearlyDependent", "NordenError", "ParseError", "SingularMetric",
    "ValidationError", "ValidationReport", "VarianceMismatch", "Violation",
    # family
    "FamilyParams", "generate_family", "heisenberg_model",
    # fundamental
    "SquareNorms", "StructurePack", "matches_class_f11", "nabla_eta_from_fundamental",
    "psi4",
    # geometry
    "Geometry", "levi_civita", "riemann", "square_norms", "structure_pack",
    "verify_identities",
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
    "Tensor", "as_scalar", "contract", "einsum_scalar", "format_scalar",
    "invert_symmetric", "matrix_rank", "row_space_basis", "signature",
    "tensor_product",
]
