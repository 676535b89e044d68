"""Exact arithmetic for trigonometric vee-systems and their WDVV solutions.

Configurations of rational covectors with multiplicities, vee-condition
checking over alpha-series, the coupling ratio lambda^2 from the two wedge
forms, subsystem and restriction operations, root-system family generators
with closed-form constants, and an independent floating-point residual
verifier.
"""

from .configuration import (
    CollinearClass,
    Configuration,
    MixedClassError,
    NoGenericFunctionalError,
    ZeroMultiplicityWarning,
    c_delta,
    collinear_classes,
    dual,
    duals,
    from_json_dict,
    gram,
    gram_inverse,
    normalize_positive,
    to_json_dict,
)
from .exactla import Rat, SingularMatrixError, invert, rat, wedge_eval, wedge_square
from .families import (
    DegenerateParamsError,
    FamilySpec,
    UnsupportedParamsError,
    expected_lambda_sq,
    family_spec,
    four_dim_config,
    generate,
    partition_span_indices,
    restricted_family,
)
from .gamma import (
    NoATableError,
    RootData,
    gamma_sq_direct,
    gamma_tilde_sq,
    gamma_tilde_sq_dual,
    root_data,
)
from .restriction import (
    CDeltaZeroError,
    DegenerateRestrictedGramError,
    EmptyChildError,
    RestrictionResult,
    restrict,
)
from .series import SeriesDecomposition, alpha_series
from .veesystem import (
    EigenDecomposition,
    NotEigenError,
    NotProportionalError,
    SubsystemHandle,
    VeeReport,
    ZeroG2Error,
    extract,
    g1,
    g2,
    lambda_sq,
    m_operator,
    subsystem,
    vee_check,
)
from .wdvv import (
    PoleTooCloseError,
    associativity_residual,
    product,
    sample_points,
    third_derivs,
    wdvv_residual,
)
from .catalog import Catalog, CatalogEntry, build_catalog, canonical_digest, pairing_profile

__all__ = [name for name in dir() if not name.startswith("_")]
