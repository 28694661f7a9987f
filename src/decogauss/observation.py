"""Localized Gaussian observation operators and their trace measures.

An operator window is the kernel

    A_k(x, x') = norm * exp{-[alpha (x-x')^2 + gamma (x+x' - 2 center)^2]},

normalized to unit trace (norm = 2 sqrt(gamma/pi)), so the measures of a
family of identical windows tiling the line sum to about one.

The measure tr(A_k rho) closes in Gaussian integrals.  With y = x - x',
z = x + x' (Jacobian 1/2), integrating y first and completing the square
in z gives

    tr(A_k rho) = norm * sqrt(pi C / ((A + alpha) Q))
                  * exp(-4 gamma (Q - gamma) center^2 / Q),
    Q = C + gamma + B^2 / (4 (A + alpha)),

real and nonnegative; B enters only through B^2 and the center only
squared.  The test suite holds this algebra against 2-D quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .evolution import GaussianDensityMatrix
from .model import _require_finite, _require_nonnegative, _require_positive

__all__ = ["ObservationOperator", "measure", "measure_profile"]


@dataclass(frozen=True)
class ObservationOperator:
    center: float  # length
    alpha: float   # 1/length^2, relative-coordinate width
    gamma: float   # 1/length^2, center-coordinate width

    def __post_init__(self):
        _require_finite("center", self.center)
        _require_nonnegative("alpha", self.alpha)
        _require_positive("gamma", self.gamma)

    @property
    def norm(self) -> float:
        """Fixed by unit trace."""
        return 2.0 * math.sqrt(self.gamma / math.pi)


def measure(op: ObservationOperator, state: GaussianDensityMatrix) -> float:
    """tr(A_k rho), the closed 2-D Gaussian integral of the product kernel;
    operator and state are given in one length unit."""
    a, b, c = state.a_coeff, state.b_coeff, state.c_coeff
    denom_y = a + op.alpha
    q_minus_gamma = c + b * b / (4.0 * denom_y)
    q = q_minus_gamma + op.gamma
    if math.isinf(q):
        return math.nan  # Q overflowed; the closed form gives no value past it
    scale = denom_y * q
    if scale > 0.0:
        prefactor = op.norm * math.sqrt(math.pi * c / scale)
    else:
        # (A + alpha) Q underflowed; gamma/Q and C/(A + alpha) are at most 1
        prefactor = 2.0 * math.sqrt(op.gamma / q) * math.sqrt(c / denom_y)
    # -4 gamma (Q - gamma) center^2 / Q on the significands, the binary
    # exponents summed apart, so no product under- or overflows on the way;
    # a power-of-two scale is exact, so each product rounds as the direct one
    # does wherever that stays normal
    parts = map(math.frexp, (op.gamma, q_minus_gamma, op.center, q))
    (m_g, e_g), (m_r, e_r), (m_x, e_x), (m_q, e_q) = parts
    try:
        exponent = math.ldexp(-4.0 * m_g * m_r * (m_x * m_x) / m_q, e_g + e_r + 2 * e_x - e_q)
    except OverflowError:
        exponent = -math.inf
    return prefactor * math.exp(exponent)


def measure_profile(
    centers,
    alpha: float,
    gamma: float,
    state: GaussianDensityMatrix,
) -> list[tuple[float, float]]:
    """Element-wise measures of a window family sharing (alpha, gamma), in
    the state's length unit; rows (center, measure) ready for CSV emission."""
    centers = list(centers)
    if not centers:
        raise ValueError("center list must be nonempty")
    return [
        (x_k, measure(ObservationOperator(x_k, alpha, gamma), state))
        for x_k in centers
    ]
