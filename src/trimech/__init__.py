"""trimech: three-mode cavity optomechanics.

A cavity field couples linearly to a moving end mirror and quadratically
to a trapped intracavity dielectric sphere; the shared standing wave
cross-couples the two oscillators.  The package derives the coupling
rates from lab parameters, solves the classical fixed points, builds the
linearized drift/diffusion matrices, obtains the stationary covariance
from the Lyapunov equation, and extracts cooling, hybridization and
squeezing figures from it.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DegenerateTrapError, NumericalError,
                     PhysicsError, TrimechError, UnstableSystemError)
from .geometry import (CavitySpec, PumpGeometry, chi_for_geometry,
                       intracavity_field, lineshape)
from .linear import (LinearModel, SteadyCovariance, linear_model, occupation,
                     physicality_floor, solve_lyapunov, squeezing, stability,
                     symplectic_form)
from .params import (HBAR, C_LIGHT, K_BOLTZMANN, ModelParams, PhysicalParams,
                     bose_occupation, linear_coupling, nondimensionalize,
                     quadratic_coupling, reference_params, zpf_ratio)
from .steady import (ClassicalSteadyState, cavity_amplitude,
                     effective_detuning, fixed_point,
                     self_consistent_fixed_points, stationarity_residuals)
from .sweeps import (instability_threshold, occupation_landscape,
                     optimize_scalar, power_sweep, solve_point,
                     squeezing_sweep)
from .validate import integrate_moments, lyapunov_direct

__all__ = [
    "__version__",
    "ConfigError", "DegenerateTrapError", "NumericalError", "PhysicsError",
    "TrimechError", "UnstableSystemError",
    "CavitySpec", "PumpGeometry", "chi_for_geometry", "intracavity_field",
    "lineshape",
    "LinearModel", "SteadyCovariance", "linear_model", "occupation",
    "physicality_floor",
    "solve_lyapunov", "squeezing", "stability", "symplectic_form",
    "HBAR", "C_LIGHT", "K_BOLTZMANN", "ModelParams", "PhysicalParams",
    "bose_occupation", "linear_coupling", "nondimensionalize",
    "quadratic_coupling", "reference_params", "zpf_ratio",
    "ClassicalSteadyState", "cavity_amplitude", "effective_detuning",
    "fixed_point", "self_consistent_fixed_points",
    "stationarity_residuals",
    "instability_threshold", "occupation_landscape", "optimize_scalar",
    "power_sweep", "solve_point", "squeezing_sweep",
    "integrate_moments", "lyapunov_direct",
]
