"""Voltage sensitivity coefficients with analytical uncertainty propagation.

Compute the voltage sensitivity coefficients of a polyphase distribution
network from its compound admittance matrix and operating point, and
quantify the std of every coefficient, either analytically (first-order
error propagation through the matrix inverse) or by Monte-Carlo
resampling of the noisy inputs.
"""

from importlib import resources

from .coefficients import (
    SensitivityProblem,
    SensitivityResult,
    assemble_problem,
    finite_difference_oracle,
    solve_coefficients,
)
from .errors import (
    ConfigError,
    DegenerateBranchError,
    LoadFlowError,
    NetworkParseError,
    NetworkValidationError,
    PfscError,
    SingularSystemError,
)
from .loadflow import GridState, nodal_power, solve_load_flow
from .montecarlo import (
    MCConfig,
    MCResult,
    run_monte_carlo,
    run_monte_carlo_sets,
)
from .network import (
    AdmittanceMatrix,
    Branch,
    Bus,
    NetworkModel,
    build_admittance,
    emit_network,
    load_network,
)
from .report import ComparisonReport, RunConfig, emit_report, run_pipeline
from .uncertainty import (
    AdmittanceUncertainty,
    CartesianNoiseSpec,
    PolarNoiseSpec,
    analytical_sigma,
    coefficient_variance,
    inverse_self_variance,
    it_class_to_polar,
    project_polar_noise,
    propagate_to_H,
)

__version__ = "0.1.0"


def bundled_network_path(name="ieee4_balanced"):
    """Filesystem path of a bundled network description file."""
    return resources.files("pfsc.data").joinpath(f"{name}.yaml")


def bundled_noise_config_path():
    return resources.files("pfsc.data").joinpath("noise_classes.yaml")
