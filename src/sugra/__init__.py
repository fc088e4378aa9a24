"""Symbolic-numeric verifier for eleven-dimensional product-type
supergravity backgrounds: exterior calculus, curvature, field-equation
residuals, a catalog of explicit solutions, and a plain-text background
file format with a CLI front end."""

from .expr import (
    Chart,
    EvalDomainError,
    Expr,
    ExprError,
    ParseError,
    compile_expr,
    diff,
    evaluate,
    evaluate_points,
    parse,
    to_text,
)
from .forms import (
    ChartMismatch,
    DegreeError,
    FormError,
    KForm,
    Metric,
    SingularMetricError,
    coordinate_form,
    ext_d,
    form_inner,
    hodge,
    interior,
    monomial_form,
    volume_form,
    wedge,
    zero_form,
)
from .geometry import (
    ProductStructure,
    WalkerData,
    christoffel,
    laplace_beltrami,
    product_metric,
    ricci,
    scalar_curvature,
    walker_metric,
)
from .equations import (
    Background,
    FluxSpec,
    ReducedCaseDiagnosis,
    ResidualRow,
    TRACE_IDENTITY_SIGN,
    VerificationResult,
    assemble_flux,
    closedness_residual,
    diagnose_reduced_case,
    einstein_residual,
    flux_norm_sq,
    flux_norm_sq_pieces,
    maxwell_residual,
    trace_check,
    verify,
)
from .catalog import CATALOG, build, catalog_ids, solve_walker_H

__version__ = "0.5.0"
