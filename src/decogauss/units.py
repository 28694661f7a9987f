"""Physical constants and the Planck units derived from them.

Library coefficients are plain numbers in whatever one length unit the
caller chooses; every closed form holds in any consistent unit.  The one
place that converts between SI and Planck lengths is ``scenarios.py``, and
it takes the scale from ``planck_length`` here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PhysicalConstants", "CONSTANTS"]


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-era constant set; the published comparison values were computed
    with exactly these figures."""

    hbar: float             # J s
    h: float                # J s, 2*pi*hbar exactly
    c: float                # m/s
    G: float                # m^3 / (kg s^2)
    boltzmann: float        # J/K
    g_gravity: float        # m/s^2
    planck_length: float    # m, sqrt(hbar G / c^3)
    planck_momentum: float  # kg m/s, sqrt(hbar c^3 / G)
    planck_mass: float      # kg

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        derived_length = math.sqrt(self.hbar * self.G / self.c**3)
        derived_momentum = math.sqrt(self.hbar * self.c**3 / self.G)
        if abs(derived_length - self.planck_length) > 1e-6 * self.planck_length:
            raise ValueError("planck_length inconsistent with sqrt(hbar*G/c^3)")
        if abs(derived_momentum - self.planck_momentum) > 1e-6 * self.planck_momentum:
            raise ValueError("planck_momentum inconsistent with sqrt(hbar*c^3/G)")
        if self.h != 2.0 * math.pi * self.hbar:
            raise ValueError("h must equal 2*pi*hbar exactly")
        if abs(self.planck_mass * self.c - self.planck_momentum) > 1e-6 * self.planck_momentum:
            raise ValueError("planck_mass*c inconsistent with planck_momentum")


def _codata() -> PhysicalConstants:
    hbar = 1.054571817e-34
    return PhysicalConstants(
        hbar=hbar,
        h=2.0 * math.pi * hbar,
        c=299792458.0,
        G=6.67430e-11,
        boltzmann=1.380649e-23,
        g_gravity=9.80665,
        planck_length=1.616255e-35,
        planck_momentum=6.524785,
        planck_mass=2.176434e-8,
    )


CONSTANTS = _codata()
