"""Scenario ingredients and the decoherence coefficients they produce.

The localization rate of an environment of point scatterers is
``Lambda = n sigma v k^2 / (8 pi^2)``; the coefficient natural to the
rescaled time ``tau = hbar t / m`` is ``lam = 2 Lambda m / (3 hbar)``,
dimension 1/length^4.  Everything here is SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .units import BOLTZMANN, H, HBAR

__all__ = [
    "FreeParticle",
    "ScatteringEnvironment",
    "AirModel",
    "big_lambda",
    "air_environment",
    "lambda_coefficient",
    "lambda_composite_crosscheck",
    "tau_from_time",
]


def _power(base: float, exponent: int) -> float:
    """base**exponent, or inf where the float power overflows, as a product
    would.  Not a product: x**2 and x*x differ in the last bit for about one
    x in 1,200, and rounding-level report rows such as
    weighted_variance_consistency_rel print that bit."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


# Every float range check of the library.  Positional, not **fields: evolve
# runs four a call; private, as the benchmark's tracer wraps model.__all__.
def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class FreeParticle:
    """A free particle: its mass in kg and, for an air environment, its radius in m."""

    mass: float                      # kg
    radius: Optional[float] = None   # m, used only to derive a cross section

    def __post_init__(self):
        _require_positive("mass", self.mass)
        if self.radius is not None:
            _require_positive("radius", self.radius)


@dataclass(frozen=True)
class ScatteringEnvironment:
    """Point scatterers: density (1/m^3), cross section (m^2), relative speed (m/s), rms wavenumber (1/m)."""

    number_density: float           # 1/m^3
    cross_section: float            # m^2
    mean_relative_velocity: float   # m/s
    rms_wavenumber: float           # 1/m

    def __post_init__(self):
        _require_positive("number_density", self.number_density)
        _require_positive("cross_section", self.cross_section)
        _require_positive("mean_relative_velocity", self.mean_relative_velocity)
        _require_positive("rms_wavenumber", self.rms_wavenumber)


@dataclass(frozen=True)
class AirModel:
    """Thermal air: molecular mass in kg, mass density in kg/m^3, temperature in K."""

    molecular_mass: float   # kg
    mass_density: float     # kg/m^3
    temperature: float      # K

    def __post_init__(self):
        _require_positive("molecular_mass", self.molecular_mass)
        _require_positive("mass_density", self.mass_density)
        _require_positive("temperature", self.temperature)


def big_lambda(env: ScatteringEnvironment) -> float:
    """Localization rate n*sigma*v*k^2/(8*pi^2), in 1/(m^2 s)."""
    return (
        env.number_density
        * env.cross_section
        * env.mean_relative_velocity
        * _power(env.rms_wavenumber, 2)
        / (8.0 * math.pi**2)
    )


def air_environment(air: AirModel, particle: FreeParticle) -> ScatteringEnvironment:
    """Thermal-air environment for a hard sphere of the particle's radius.

    The rms molecular speed sqrt(3 kB T / m_a) serves as the mean relative
    velocity (the particle is slow against it), and the rms wavenumber is
    m_a v_a / hbar.
    """
    if particle.radius is None:
        raise ValueError("particle needs a radius to derive a cross section")
    v_rms = math.sqrt(3.0 * BOLTZMANN * air.temperature / air.molecular_mass)
    return ScatteringEnvironment(
        number_density=air.mass_density / air.molecular_mass,
        cross_section=math.pi * _power(particle.radius, 2),
        mean_relative_velocity=v_rms,
        rms_wavenumber=air.molecular_mass * v_rms / HBAR,
    )


def lambda_coefficient(localization_rate: float, particle: FreeParticle) -> float:
    """2*Lambda*m/(3*hbar), in 1/m^4.  Zero rate means free evolution."""
    _require_nonnegative("localization rate", localization_rate)
    return 2.0 * localization_rate * particle.mass / (3.0 * HBAR)


def lambda_composite_crosscheck(air: AirModel, particle: FreeParticle) -> float:
    """One-line composite m*sigma*m_a*rho_a*v_a^3/(3 h^3), in 1/m^4.

    Retained only as a flagged cross-check for the discrepancy report: it
    disagrees with the defining two-step chain by a factor of 2*pi.  Never
    used as the evolution coefficient.  sigma and v_a are those of
    ``air_environment``.  Where the product underflows to 0 or overflows
    to inf part-way (m*sigma*m_a*rho ~ 0 against v_a^3 ~ inf reads nan),
    it is taken as a sum of logs instead.
    """
    env = air_environment(air, particle)
    factors = (particle.mass, env.cross_section, air.molecular_mass, air.mass_density)
    value = math.prod(factors) * _power(env.mean_relative_velocity, 3) / (3.0 * H**3)
    if math.isfinite(value) and value > 0.0:
        return value
    log_value = sum(map(math.log, factors)) + 3.0 * math.log(env.mean_relative_velocity) - math.log(3.0 * H**3)
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def tau_from_time(t: float, particle: FreeParticle) -> float:
    """Rescaled time hbar*t/m, dimension m^2.  Forward evolution only."""
    _require_nonnegative("time", t)
    return HBAR * t / particle.mass
