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


def _add(m_x: float, e_x: int, m_y: float, e_y: int) -> tuple[float, int]:
    """m_x 2^e_x + m_y 2^e_y as a frexp pair, for m_x != 0: the term with the
    smaller exponent is scaled to the other's before the one rounding add.
    A zero m_y carries no exponent, so it never sets the scale."""
    if m_y and e_y > e_x:
        m_x, e_x, m_y, e_y = m_y, e_y, m_x, e_x
    m, e = math.frexp(m_x + math.ldexp(m_y, e_y - e_x))
    return m, e + e_x


def measure(op: ObservationOperator, state: GaussianDensityMatrix) -> float:
    """tr(A_k rho), the closed 2-D Gaussian integral of the product kernel;
    operator and state are given in one length unit."""
    # the whole form on the significands, the binary exponents summed apart,
    # so no sum, product or quotient under- or overflows on the way; a
    # power-of-two scale is exact, so each step rounds as the direct one
    # does wherever that stays normal
    (m_b, e_b), (m_c, e_c) = math.frexp(state.b_coeff), math.frexp(state.c_coeff)
    (m_g, e_g), (m_x, e_x) = math.frexp(op.gamma), math.frexp(op.center)
    # A + alpha, Q - gamma = C + B^2 / (4 (A + alpha)), then Q = (Q - gamma) + gamma
    m_a, e_a = _add(*math.frexp(state.a_coeff), *math.frexp(op.alpha))
    m_r, e_r = _add(m_c, e_c, m_b * m_b / (4.0 * m_a), 2 * e_b - e_a)
    m_q, e_q = _add(m_r, e_r, m_g, e_g)
    try:
        exponent = math.ldexp(-4.0 * m_g * m_r * (m_x * m_x) / m_q, e_g + e_r + 2 * e_x - e_q)
    except OverflowError:
        exponent = -math.inf
    # norm * sqrt(pi C / ((A + alpha) Q)): each root on a significand times
    # its exponent's odd bit, the even halves in one ldexp after the product
    e_s = e_c - e_a - e_q
    root_g = 2.0 * math.sqrt(math.ldexp(m_g, e_g % 2) / math.pi)
    root_s = math.sqrt(math.ldexp(math.pi * m_c / (m_a * m_q), e_s % 2))
    prefactor = math.ldexp(root_g * root_s, e_g // 2 + e_s // 2)
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
