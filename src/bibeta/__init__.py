"""Gamma-ratio bivariate beta distributions on the unit square, grid-based
Bayesian inference for screening-test parameters, and two-component system
survivability assessment.

Each public name is imported from its module on first use (PEP 562), so
`import bibeta` and the CLI load only the modules that a caller runs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "special": ("BetaParams", "std_normal_cdf"),
    "families": (
        "FamilySpec",
        "NotClosedError",
        "an8_embedding",
        "complement",
        "marginal_params",
        "OL_PLUS",
        "OL_MINUS",
        "OL_STAR",
        "AN5",
        "AN8",
        "INDEPENDENT",
    ),
    "sampling": ("RngState", "sample_pairs"),
    "grids": ("DensityGrid", "density_grid"),
    "inference": (
        "DiagnosticData",
        "PriorSpec",
        "GridPosterior",
        "PosteriorSummary",
        "DegeneratePosteriorError",
        "pi_posterior",
        "joint_posterior",
        "marginal_posterior",
        "posterior_summary",
        "predictive_values",
        "predictive_propensity",
    ),
    "synth": ("SynthConfig", "true_params", "generate", "naive_estimates"),
    "survivability": (
        "SurvivabilityScenario",
        "Exchangeable",
        "HierIndependent",
        "Interdependent",
        "SurvivabilityReport",
        "survivability",
        "reproduce_table",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """Importing a submodule binds it on the package; a public name keeps its object.

    `survivability` names both a module and the function that module
    exports, and the package's `survivability` is the function however the
    module gets imported.
    """

    def __setattr__(self, name: str, value) -> None:
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
