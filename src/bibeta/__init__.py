"""Gamma-ratio bivariate beta distributions on the unit square, grid-based
Bayesian inference for screening-test parameters, and two-component system
survivability assessment."""

__version__ = "0.1.0"

from .special import BetaParams, std_normal_cdf
from .families import (
    AN5,
    AN8,
    INDEPENDENT,
    OL_MINUS,
    OL_PLUS,
    OL_STAR,
    FamilySpec,
    NotClosedError,
    an8_embedding,
    complement,
    marginal_params,
)
from .sampling import RngState, sample_pairs
from .grids import DensityGrid, density_grid
from .inference import (
    DegeneratePosteriorError,
    DiagnosticData,
    GridPosterior,
    PosteriorSummary,
    PriorSpec,
    joint_posterior,
    marginal_posterior,
    pi_posterior,
    posterior_summary,
    predictive_propensity,
    predictive_values,
)
from .synth import SynthConfig, generate, naive_estimates, true_params
from .survivability import (
    Exchangeable,
    HierIndependent,
    Interdependent,
    SurvivabilityReport,
    SurvivabilityScenario,
    reproduce_table,
    survivability,
)

__all__ = [
    "BetaParams",
    "std_normal_cdf",
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
    "RngState",
    "sample_pairs",
    "DensityGrid",
    "density_grid",
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
    "SynthConfig",
    "true_params",
    "generate",
    "naive_estimates",
    "SurvivabilityScenario",
    "Exchangeable",
    "HierIndependent",
    "Interdependent",
    "SurvivabilityReport",
    "survivability",
    "reproduce_table",
]
