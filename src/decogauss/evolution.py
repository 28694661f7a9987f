"""Closed-form evolution of the Gaussian density matrix.

The kernel is, with y = x - x' and z = x + x',

    rho(x, x') = sqrt(4C/pi) * exp{-[A y^2 + i B y z + C z^2]},

unit trace by construction.  A whole evolution history is encoded by the
variance cubic X(tau) = lam tau^3 + a2 tau^2 + a1 tau + a0 through

    A = (2 X X'' - X'^2) / (8X),   B = -X'/(4X),   C = 1/(8X).

Macroscopic inputs put the coefficients at ~1e-76 .. 1e74 in Planck units,
where the textbook order 2XX'' - X'^2 cancels catastrophically (the
surviving term is ~1e-22 of the operands).  A is therefore evaluated
through the expanded numerator

    2XX'' - X'^2 = 3 (lam tau^2)^2 + 4 a2 lam tau^3 + 6 a1 lam tau^2
                   + 12 a0 lam tau + (4 a0 a2 - a1^2),

whose derivative is 12*lam*X(tau) > 0, so no two terms ever cancel for
a1 >= 0 and the constant term 4 a0 a2 - a1^2 equals A(0)/C(0) >= 1.
Products pair large with small factors (lam*tau first) to stay inside
double-precision range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GaussianDensityMatrix",
    "CubicSolution",
    "cubic_from_initial",
    "evolve",
    "position_variance",
    "momentum_variance",
    "minimum_uncertainty_initial",
    "purity",
]

_REL_SLACK = 1e-12


@dataclass(frozen=True)
class GaussianDensityMatrix:
    """Exponent coefficients (1/length^2) of the unit-trace Gaussian kernel.

    Positivity of the density operator requires a_coeff >= c_coeff > 0; the
    b_coeff phase is unconstrained (it is a unitary exp(-iBx^2) conjugation
    and does not touch the spectrum).
    """

    a_coeff: float
    b_coeff: float
    c_coeff: float

    def __post_init__(self):
        for name in ("a_coeff", "b_coeff", "c_coeff"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.c_coeff <= 0.0:
            raise ValueError(f"c_coeff must be positive, got {self.c_coeff!r}")
        if self.a_coeff < self.c_coeff * (1.0 - _REL_SLACK):
            raise ValueError(
                f"positivity requires a_coeff >= c_coeff, got {self.a_coeff!r} < {self.c_coeff!r}"
            )

    @property
    def norm(self) -> float:
        """Prefactor sqrt(4C/pi) fixing unit trace."""
        return math.sqrt(4.0 * self.c_coeff / math.pi)

    def kernel(self, x, xp):
        """Complex kernel values rho(x, x'); arguments broadcast."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        y = x - xp
        z = x + xp
        real = self.a_coeff * y * y + self.c_coeff * z * z
        # y z = x^2 - x'^2, so the phase separates into one factor per
        # argument: on a grid that is two length-n complex exps, not n^2
        phase = np.exp(-1j * self.b_coeff * x * x) * np.exp(1j * self.b_coeff * xp * xp)
        return self.norm * np.exp(-real) * phase


@dataclass(frozen=True)
class CubicSolution:
    """Variance cubic X(tau) = lam tau^3 + a2 tau^2 + a1 tau + a0.

    lam: 1/length^4, a2: 1/length^2, a1: dimensionless, a0: length^2.
    Validity (generating state positive) is a1^2 <= 4*a0*a2 - 1, which is
    exactly A(0) >= C(0); the combination 4*a0*a2 - a1^2 is A(0)/C(0).

    ratio0 stores A(0)/C(0) explicitly.  Derived from a state the ratio is
    one division; recovering it from 4*a0*a2 - a1^2 cancels catastrophically
    for nearly pure, strongly chirped states (both terms ~a1^2 >> 1), so it
    is only checked against that combination, never recomputed from it.
    """

    lam: float
    a2: float
    a1: float
    a0: float
    ratio0: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam!r}")
        for name in ("a2", "a1", "a0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.a0 <= 0.0 or self.a2 <= 0.0:
            raise ValueError(f"a0 and a2 must be positive, got {self.a0!r} and {self.a2!r}")
        if not (math.isfinite(self.ratio0) and self.ratio0 >= 1.0 - _REL_SLACK):
            raise ValueError(f"ratio0 must be at least 1, got {self.ratio0!r}")
        product = 4.0 * self.a0 * self.a2
        computed = product - self.a1 * self.a1
        if abs(self.ratio0 - computed) > 1e-9 * max(1.0, product):
            raise ValueError(
                f"ratio0={self.ratio0!r} inconsistent with 4*a0*a2 - a1^2 = {computed!r}"
            )

    def x_value(self, tau: float) -> float:
        return self.a0 + tau * (self.a1 + tau * (self.a2 + self.lam * tau))

    def x_prime(self, tau: float) -> float:
        return self.a1 + tau * (2.0 * self.a2 + 3.0 * self.lam * tau)


def cubic_from_initial(state0: GaussianDensityMatrix, lam: float) -> CubicSolution:
    """Coefficients a0 = 1/(8C), a1 = -B/(2C), a2 = 2A + B^2/(2C) at tau = 0."""
    c0 = state0.c_coeff
    return CubicSolution(
        lam=lam,
        a2=2.0 * state0.a_coeff + state0.b_coeff * state0.b_coeff / (2.0 * c0),
        a1=-state0.b_coeff / (2.0 * c0),
        a0=1.0 / (8.0 * c0),
        ratio0=max(1.0, state0.a_coeff / c0),
    )


def evolve(cubic: CubicSolution, tau: float) -> GaussianDensityMatrix:
    """State at rescaled time tau >= 0 (tau in the cubic's length unit, squared)."""
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be nonnegative and finite, got {tau!r}")
    x = cubic.x_value(tau)
    if x <= 0.0:
        raise ValueError(f"X(tau) must stay positive, got {x!r} at tau={tau!r}")
    lam_tau = cubic.lam * tau
    # expanded 2XX'' - X'^2, innermost products pairing lam with tau; the
    # exact value never drops below 1 (its tau derivative is 12*lam*X > 0),
    # so clamp the rounding wobble at the purity boundary
    numerator = 4.0 * cubic.a2 + 3.0 * lam_tau
    numerator = 6.0 * cubic.a1 + tau * numerator
    numerator = 12.0 * cubic.a0 + tau * numerator
    numerator = max(1.0, cubic.ratio0 + lam_tau * numerator)
    eight_x = 8.0 * x
    return GaussianDensityMatrix(
        a_coeff=numerator / eight_x,
        b_coeff=-cubic.x_prime(tau) / (4.0 * x),
        c_coeff=1.0 / eight_x,
    )


def position_variance(cubic: CubicSolution, tau: float) -> float:
    """(dx)^2 = X(tau)."""
    return cubic.x_value(tau)


def momentum_variance(cubic: CubicSolution, tau: float) -> float:
    """(dp/hbar)^2 = X''/2 = 3*lam*tau + a2; exactly linear in tau."""
    return 3.0 * cubic.lam * tau + cubic.a2


def minimum_uncertainty_initial(dx0_squared: float) -> GaussianDensityMatrix:
    """Pure state saturating 4*(dx)^2*(dp/hbar)^2 = 1: A = C = 1/(8 dx0^2), B = 0."""
    if not (math.isfinite(dx0_squared) and dx0_squared > 0.0):
        raise ValueError(f"dx0_squared must be positive, got {dx0_squared!r}")
    coeff = 1.0 / (8.0 * dx0_squared)
    return GaussianDensityMatrix(coeff, 0.0, coeff)


def purity(state: GaussianDensityMatrix) -> float:
    """tr(rho^2) = sqrt(C/A): double Gaussian integral of |rho(x,x')|^2 with
    the (y, z) Jacobian of 1/2.  Equals 1 iff A = C."""
    return math.sqrt(state.c_coeff / state.a_coeff)
