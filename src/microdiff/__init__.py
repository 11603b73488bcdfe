"""Exact arithmetic for level-m differential operators on the formal affine
line: divided-power bases, pseudo-polynomial symbol algebras, microlocal
inversion above a finite window floor, level-comparison maps, and
characteristic-variety computations for cyclic modules.

The package loads lazily (PEP 562): ``import microdiff`` runs no submodule,
and a name below is imported from its module on first access, so a command
that never touches microlocalization never compiles ``microloc``."""

import importlib

__version__ = "0.1.0"

# module -> the public names it provides
_EXPORTS = {
    "charvar": (
        "Bounds", "CharVariety", "CyclicModule", "OrderStandardBasis",
        "SupportVerdict", "char_variety", "micro_support_test",
        "order_standard_basis", "stability_probe", "verify_counterexample",
    ),
    "diffop": (
        "DiffOp", "OrderSymbol", "ThetaTilde", "build_theta_tilde",
        "central_level_for", "level_map_phi", "order_and_symbol", "reduce_mod",
        "render_diffop",
    ),
    "errors": (
        "BoundsExhausted", "ExprSyntaxError", "IncompatibleLocalizer",
        "IntegralityViolation", "InvalidParameter", "LevelMismatch",
        "MicrodiffError", "NotHomogeneous", "NotIntegral", "NotInvertibleAtSymbol",
        "SearchBoundExceeded", "SymbolMismatch", "ZeroOperator",
    ),
    "microloc": (
        "ConvergenceProfile", "InversionReport", "MembershipVerdict", "MicroOp",
        "change_presentation_level", "convert_presentation", "invert_theta_tilde",
        "membership_intermediate", "micro_multiply", "observed_a_bound",
        "ore_witness", "psi_level_lower", "try_invert", "validate_convergence",
    ),
    "padic": (
        "alpha_bound", "factorial_valuation", "normcalc_bounds",
    ),
    "polynomials": (
        "Poly",
    ),
    "pseudopoly": (
        "SymbolPoly", "digit_decomposition", "digit_form",
        "digit_monomial_constant", "digits_to_k", "normalize",
        "rational_level_change", "theta_variants",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
