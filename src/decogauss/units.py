"""Physical constants and the Planck length derived from them.

Library coefficients are plain numbers in whatever one length unit the
caller chooses; every closed form holds in any consistent unit.  The one
place that converts between SI and Planck lengths is ``scenarios.py``, and
it takes the scale from ``PLANCK_LENGTH`` here.

These are the CODATA-era figures the published comparison values were
computed with.
"""

import math

__all__ = [
    "HBAR",
    "H",
    "SPEED_OF_LIGHT",
    "GRAVITATIONAL_CONSTANT",
    "BOLTZMANN",
    "STANDARD_GRAVITY",
    "PLANCK_LENGTH",
]

HBAR = 1.054571817e-34              # J s
H = 2.0 * math.pi * HBAR            # J s
SPEED_OF_LIGHT = 299792458.0        # m/s
GRAVITATIONAL_CONSTANT = 6.67430e-11  # m^3 / (kg s^2)
BOLTZMANN = 1.380649e-23            # J/K
STANDARD_GRAVITY = 9.80665          # m/s^2
PLANCK_LENGTH = 1.616255e-35        # m, sqrt(HBAR G / c^3)
