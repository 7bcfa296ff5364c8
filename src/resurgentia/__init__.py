"""resurgentia: exact and numerical resurgence toolkit.

Exact layer: formal power series in z^{-1} over (Gaussian) rationals, the
divergent solution family of a damped linear equation and its log/free-energy
relatives, and a symbolic alien-derivation engine in which bridge equations
and Stokes automorphisms are algebraic identities.

Numeric layer: Borel kernels in closed form, directional Laplace summation,
lateral connection formulas, median-summation reality checks, and the
large-radius tower obtained by a change of variable to the string coupling.
"""

import importlib

# public name -> the submodule that defines it; a submodule loads on first use
_EXPORTS = {
    "scalars": ("ExactScalar",),
    "series": ("DEFAULT_ORDER", "PowerSeries"),
    "families": ("FamilySeries", "gen_Gn", "gen_c_coeffs", "gen_g_f", "gen_psi_phi", "ode_residual"),
    "alien": (
        "Caps", "Poly", "TransElement", "apply_delta", "apply_stokes",
        "bridge_check", "deltaplus_table", "formal_integral", "stokes_action_check",
    ),
    "errors": ("BranchCutError", "DomainError", "QuadratureError", "SumValue"),
    "borel": (
        "G_pm", "airy_oracle", "check_derivation", "choose_theta", "connection_check", "eval_Bhat",
        "first_identity_check", "gevrey_check", "median_real_check",
        "singularity_locate", "sum_family",
    ),
    "largeradius": (
        "CompositionContext", "UCoeffSeries", "ULaurent", "gen_H0", "gen_Hn", "gen_phi_u", "gen_R",
        "lr_bridge_check", "lr_connection_check", "lr_stokes_check", "lr_sum", "lr_transseries",
        "make_context", "u_equation_residual",
    ),
    "config": ("ENV_VAR", "RunConfig", "load_config_file", "resolve_config"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    """Resolve a public name or submodule on first access (PEP 562)."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
