"""Exact p-adic arithmetic for q-expansions of p-adic modular functions.

The package provides truncated p-adic and cyclotomic scalars, continuous
functions on Z_p with their Mahler theory, Eisenstein series and the theta
and U_p/V_p operators, p-adic measures (Amice transform, the regularized
Eisenstein measure, convolutions and two-variable L-values), the algebra
action of continuous functions on q-expansions, and the torsion arithmetic
of Kummer groups.  ``from padicq import X`` imports only the module that
defines X (and the layers under it).
"""

import importlib

__version__ = "0.1.0"

# re-exported name -> the module under padicq that defines it
_EXPORTS = {name: module for module, names in {
    "action": "act act_character",
    "cyclotomic": "CyclotomicElem cyclo_pow phi_pm",
    "errors": "BaseMismatch ConfigError EulerFactorNotInvertible IncompatibleRoots "
    "NotPIntegral NotRootOfUnity NotUnit PadicqError PrecisionExhausted "
    "UnsupportedShape",
    "kummer": "CheckReport KummerBase KummerElement LaurentElem constant_roots "
    "kummer_iso kummer_mul kummer_pair serre_tate_action_check",
    "measures": "ActionMeasure AmiceMeasure DiracMeasure EisensteinMeasure "
    "KLConstantTerm LinearMeasure Measure amice_transform convolution_nu "
    "eisenstein_eval eval_at_character eval_measure kl_constant lvalue "
    "measure_from_json psi",
    "padic": "PadicContext PadicInt bernoulli binomial_padic reduce_rational",
    "qseries": "QExpansion divisor_sum eisenstein_2G eisenstein_2G_twisted "
    "series_to_json sigma_table theta u_p v_p",
    "zpfun": "Character ContinuousFn LocallyConstant MahlerSeries Polynomial Product "
    "Scaled TwoVarFn ZeroExtendedUnits binomial constant_fn fn_from_json indicator "
    "mahler_coeffs monomial multiply poly_lc_terms scale_argument",
}.items() for name in names.split()}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
