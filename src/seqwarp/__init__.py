"""Curvature calculus and verification for sequential warped products.

The package pairs closed-form block geometry for metrics of the shape
``g1 (+) f^2 g2 (+) h^2 g3`` with an independent coordinate-chart oracle,
fits Einstein / quasi-Einstein / quasi-constant-curvature structure, and
ships a CLI that runs the whole identity suite over spec files.
"""

__version__ = "0.1.0"

from .expressions import (
    DomainError,
    ExpressionError,
    Expr,
    ParseError,
    differentiate,
    evaluate,
    free_variables,
    parse,
    to_string,
)
from .jets import eval_jet
from .chart import (
    ChartFrame,
    DegenerateMetricError,
    FactorManifold,
    GeometryError,
    SignatureError,
    factor,
    symmetry_residuals,
)
from .warped import (
    BlockVector,
    PositivityError,
    SequentialWarpedProduct,
    WarpedFrame,
    flatten_to_chart,
    inner_chart,
)
from .classify import (
    IdentityReport,
    QCCFit,
    QEFit,
    check_quasi_constant_curvature,
    condition_residuals,
    fit_quasi_einstein,
    lambda_at,
    nu_at,
    proposition1_residuals,
    theorem2_conditions,
    torus_average_identity,
    torus_divergence_residual,
)
from .spacetime import (
    GRWSpec,
    SSSTSpec,
    build_grw,
    build_ssst,
    grw_theorem_check,
    ssst_theorem_check,
)
from .specfile import ManifoldSpec, SpecError, load_spec, spec_from_dict
from .verify import (
    VerificationInputError,
    VerificationReport,
    run_classify,
    run_verify,
)
