"""Exact arithmetic for trigonometric vee-systems and their WDVV solutions.

Configurations of rational covectors with multiplicities, vee-condition
checking over alpha-series, the coupling ratio lambda^2 from the two wedge
forms, subsystem and restriction operations, root-system family generators
with closed-form constants, and an independent floating-point residual
verifier.

The names below load their submodule on first access (PEP 562), so
``import trigvee`` loads no submodule; only ``wdvv`` loads numpy.
"""

from importlib import import_module as _import_module

# Every public name -> the submodule that defines it; a submodule maps to itself.
_EXPORTS = {
    name: module
    for module, names in {
        "configuration": "CollinearClass Configuration MixedClassError NoGenericFunctionalError"
        " ZeroMultiplicityWarning c_delta collinear_classes dual duals from_json_dict gram"
        " gram_inverse normalize_positive to_json_dict",
        "exactla": "Rat SingularMatrixError invert rat wedge_eval wedge_square",
        "families": "DegenerateParamsError FamilySpec UnsupportedParamsError expected_lambda_sq"
        " family_spec four_dim_config generate partition_span_indices restricted_family",
        "gamma": "NoATableError RootData gamma_sq_direct gamma_tilde_sq gamma_tilde_sq_dual"
        " root_data",
        "restriction": "CDeltaZeroError DegenerateRestrictedGramError EmptyChildError"
        " RestrictionResult restrict",
        "series": "SeriesDecomposition alpha_series",
        "veesystem": "EigenDecomposition NotEigenError NotProportionalError SubsystemHandle"
        " VeeReport ZeroG2Error extract g1 g2 lambda_sq m_operator subsystem vee_check",
        "wdvv": "PoleTooCloseError associativity_residual product sample_points third_derivs"
        " wdvv_residual",
        "catalog": "Catalog CatalogEntry build_catalog canonical_digest pairing_profile",
    }.items()
    for name in (module, *names.split())
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = _import_module("." + module, __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
