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
    c: float                # m/s
    G: float                # m^3 / (kg s^2)
    boltzmann: float        # J/K
    g_gravity: float        # m/s^2
    planck_length: float    # m, sqrt(hbar G / c^3)

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        derived_length = math.sqrt(self.hbar * self.G / self.c**3)
        if abs(derived_length - self.planck_length) > 1e-6 * self.planck_length:
            raise ValueError("planck_length inconsistent with sqrt(hbar*G/c^3)")

    @property
    def h(self) -> float:
        """J s, 2*pi*hbar exactly."""
        return 2.0 * math.pi * self.hbar


def _codata() -> PhysicalConstants:
    return PhysicalConstants(
        hbar=1.054571817e-34,
        c=299792458.0,
        G=6.67430e-11,
        boltzmann=1.380649e-23,
        g_gravity=9.80665,
        planck_length=1.616255e-35,
    )


CONSTANTS = _codata()
