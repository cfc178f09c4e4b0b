"""Finite-dimensional toolkit for operators whose polar parts generate

the same algebra: polar decomposition a = U|a|, partial-isometry and
endomorphism checks for U, towers of coefficient algebras, banded
(graded) elements with a coefficient-only norm estimate, and an exact
normal-ordering calculus for words over {a, a*} under aa* = q a*a + h.
"""

from .algebra import (
    FunctionCertificate,
    MatrixAlgebra,
    SpectralAlgebra,
    bicommutant,
    commutant,
    is_function_of,
    spectral_algebra,
)
from .errors import (
    ConfigError,
    DimensionTooSmall,
    HypothesisViolated,
    InvalidSpec,
    ModelMismatch,
    ModelNotGraded,
    NotHermitian,
    ParseError,
    PolarkitError,
    RelationViolated,
    SupportViolation,
    UnsupportedPhi,
    ZeroElement,
)
from .graded import (
    GradedElement,
    GradedModel,
    NormEstimate,
    PropertyStarReport,
    SumNormReport,
    check_property_star,
    graded_adjoint,
    graded_mul,
    norm_estimate,
    random_element,
    realize,
    sum_norm_inequalities,
)
from .isometry import ConditionCheck, PartialIsometryReport, partial_isometry_report
from .linalg import (
    DEFAULT_TOL,
    PolarDecomposition,
    dagger,
    operator_norm,
    polar_decompose,
)
from .models import (
    KINDS,
    ModelSpec,
    build,
    custom,
    jordan_block,
    normal,
    phi_for,
    q_lambda,
    q_oscillator,
    weighted_shift,
)
from .relation import (
    CoefficientAlgebraReport,
    RelationCertificate,
    Theorem22Report,
    coefficient_algebra,
    graded_model_for,
    theorem22_report,
    verify_I1,
)
from .report import SuiteConfig, config_from_json, report_to_json, report_to_text, run_suite
from .serialize import (
    dumps_canonical,
    matrix_from_json,
    matrix_to_json,
    model_spec_from_json,
    model_spec_to_json,
    normal_form_from_json,
    normal_form_to_json,
    read_matrix,
    write_matrix,
)
from .tower import (
    CommutingProjectionReport,
    EndoPair,
    HypothesesReport,
    PowerIsometryReport,
    TheoremReport,
    TowerReport,
    build_tower,
    commuting_projection_properties,
    endo_pair,
    power_isometry_check,
    verify_tower_theorems,
)
from .words import (
    NF_ONE,
    NormalForm,
    PhiMap,
    deg,
    evaluate,
    interior_projection,
    nf_mul,
    normal_order,
    parse_word,
)

__version__ = "0.1.0"
