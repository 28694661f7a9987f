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

from .model import _require_finite, _require_nonnegative, _require_positive

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
        _require_finite("a_coeff", self.a_coeff)
        _require_finite("b_coeff", self.b_coeff)
        _require_positive("c_coeff", self.c_coeff)
        if self.a_coeff < self.c_coeff * (1.0 - _REL_SLACK):
            raise ValueError(
                f"positivity requires a_coeff >= c_coeff, got {self.a_coeff!r} < {self.c_coeff!r}"
            )

    @property
    def norm(self) -> float:
        """Prefactor sqrt(4C/pi) fixing unit trace."""
        return math.sqrt(4.0 * self.c_coeff / math.pi)

    def kernel(self, x, xp):
        """Complex kernel values rho(x, x'); arguments broadcast.

        Evaluates norm * exp(-(A y y + C z z)) * phase in that operation
        order, in place: y and z live in the result's own memory, viewed
        as two float arrays, until the phase overwrites it, so a grid costs
        one float array beside the result."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        shape = np.broadcast_shapes(x.shape, xp.shape)
        out = np.empty(shape, dtype=complex)
        scratch = out.reshape(-1).view(float).reshape((2, *shape))
        y_or_z, czz = scratch[0, ...], scratch[1, ...]
        real = np.empty(shape)
        np.subtract(x, xp, out=y_or_z)
        np.multiply(self.a_coeff, y_or_z, out=real)
        real *= y_or_z
        np.add(x, xp, out=y_or_z)
        np.multiply(self.c_coeff, y_or_z, out=czz)
        czz *= y_or_z
        real += czz
        np.negative(real, out=real)
        np.exp(real, out=real)
        real *= self.norm
        # y z = x^2 - x'^2, so the phase separates into one factor per
        # argument: on a grid that is two length-n complex exps, not n^2
        phase_x, phase_xp = np.exp(-1j * self.b_coeff * x * x), np.exp(1j * self.b_coeff * xp * xp)
        if shape:
            np.multiply(phase_x, phase_xp, out=out)
        else:  # numpy's scalar complex product rounds apart from its array loop
            out[()] = phase_x * phase_xp
        np.multiply(real, out, out=out)
        return out[()]


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
        _require_nonnegative("lam", self.lam)
        _require_finite("a2", self.a2)
        _require_finite("a1", self.a1)
        _require_finite("a0", self.a0)
        _require_positive("a0", self.a0)
        _require_positive("a2", self.a2)
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


def _coefficients(cubic: CubicSolution, taus):
    """Yield (X, X''/2, A, B, C) at each tau of an iterable, lazily, in the
    cubic's length unit: the one evaluation of the closed form, which
    `evolve` takes at one tau and a report's trajectory at every sample.

    Plain floats, no range check: where X(tau) is not positive, A, B and C
    are nan.  X and X''/2 are CubicSolution.x_value's and momentum_variance's
    forms, each factor formed as they form it; X' is formed only here, for B.
    """
    lam, a2, a1, a0, ratio0 = cubic.lam, cubic.a2, cubic.a1, cubic.a0, cubic.ratio0
    three_lam, two_a2, four_a2, six_a1, twelve_a0 = 3.0 * lam, 2.0 * a2, 4.0 * a2, 6.0 * a1, 12.0 * a0
    for tau in taus:
        x = a0 + tau * (a1 + tau * (a2 + lam * tau))
        three_lam_tau = three_lam * tau
        if not x > 0.0:
            yield x, three_lam_tau + a2, math.nan, math.nan, math.nan
            continue
        lam_tau = lam * tau
        # expanded 2XX'' - X'^2, innermost products pairing lam with tau; the
        # exact value never drops below 1 (its tau derivative is 12*lam*X > 0),
        # so clamp the rounding wobble at the purity boundary (nan clamps too)
        numerator = ratio0 + lam_tau * (twelve_a0 + tau * (six_a1 + tau * (four_a2 + 3.0 * lam_tau)))
        if not numerator > 1.0:
            numerator = 1.0
        eight_x = 8.0 * x
        yield (
            x,
            three_lam_tau + a2,
            numerator / eight_x,
            -(a1 + tau * (two_a2 + three_lam_tau)) / (4.0 * x),
            1.0 / eight_x,
        )


def evolve(cubic: CubicSolution, tau: float) -> GaussianDensityMatrix:
    """State at rescaled time tau >= 0 (tau in the cubic's length unit, squared)."""
    _require_nonnegative("tau", tau)
    x, _, a_coeff, b_coeff, c_coeff = next(_coefficients(cubic, (tau,)))
    if x <= 0.0:
        raise ValueError(f"X(tau) must stay positive, got {x!r} at tau={tau!r}")
    return GaussianDensityMatrix(a_coeff, b_coeff, c_coeff)


def position_variance(cubic: CubicSolution, tau: float) -> float:
    """(dx)^2 = X(tau)."""
    return cubic.x_value(tau)


def momentum_variance(cubic: CubicSolution, tau: float) -> float:
    """(dp/hbar)^2 = X''/2 = 3*lam*tau + a2; exactly linear in tau."""
    return 3.0 * cubic.lam * tau + cubic.a2


def minimum_uncertainty_initial(dx0_squared: float) -> GaussianDensityMatrix:
    """Pure state saturating 4*(dx)^2*(dp/hbar)^2 = 1: A = C = 1/(8 dx0^2), B = 0."""
    _require_positive("dx0_squared", dx0_squared)
    coeff = 1.0 / (8.0 * dx0_squared)
    return GaussianDensityMatrix(coeff, 0.0, coeff)


def purity(state: GaussianDensityMatrix) -> float:
    """tr(rho^2) = sqrt(C/A): double Gaussian integral of |rho(x,x')|^2 with
    the (y, z) Jacobian of 1/2.  Equals 1 iff A = C."""
    return math.sqrt(state.c_coeff / state.a_coeff)
