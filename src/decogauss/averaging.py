"""Phase-averaged density matrix: the state with the B coefficient dropped.

Averaging the kernel over a window long against the phase-winding time but
short against the variance drift kills the i*B*(x^2 - x'^2) phase while
leaving A and C untouched; here that limit is taken analytically.  Every
functional that depends only on (A, C) -- mean excitation, entropy, purity,
weighted position variance -- is exactly invariant.
"""

from __future__ import annotations

from .evolution import GaussianDensityMatrix

__all__ = ["phase_average"]


def phase_average(state: GaussianDensityMatrix) -> GaussianDensityMatrix:
    """Drop B; A and C are untouched.  Idempotent."""
    return GaussianDensityMatrix(state.a_coeff, 0.0, state.c_coeff)

