"""decogauss: collisional decoherence of a free Gaussian density matrix.

Closed-form evolution under the scattering master equation, spectral
decomposition (geometric eigenvalue ladder, oscillator eigenstates, von
Neumann entropy), phase averaging, localized observation-operator
measures, and an independent grid-PDE oracle.

The closed form runs on `math` alone.  numpy is imported by the oracle and
inside the methods that build arrays (kernels, eigenstate amplitudes), so
importing the package or running a closed-form CLI subcommand does not
load it.
"""

from .averaging import phase_average
from .evolution import (
    CubicSolution,
    GaussianDensityMatrix,
    cubic_from_initial,
    evolve,
    minimum_uncertainty_initial,
    momentum_variance,
    position_variance,
    purity,
)
from .model import (
    AirModel,
    FreeParticle,
    ScatteringEnvironment,
    air_environment,
    big_lambda,
    lambda_coefficient,
    tau_from_time,
)
from .observation import ObservationOperator, measure, measure_profile
from .scenarios import (
    Report,
    Scenario,
    baseball_scenario,
    emit,
    flight_time,
    load_scenario,
    run,
)
from .spectral import (
    EigenstateSpec,
    SpectralSummary,
    eigenstate_amplitude,
    eigenstate_spec,
    eigenvalue,
    mean_excitation,
    spectral_summary,
    truncation_index,
    von_neumann_entropy,
)

__version__ = "0.1.0"
