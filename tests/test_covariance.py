"""Exact covariance under a power-of-two change of the length unit.

x -> 2^k x divides A, B, C, alpha and gamma by 4^k and lambda by 16^k, and
multiplies tau by 4^k and a window's centre by 2^k.  Scaling by a power of
the radix is exact unless it under- or overflows (Higham 2002, ch. 2), so
every result must come out bit for bit the same: a hidden length scale in
the library (a constant or a clamp in absolute units) breaks this.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decogauss.averaging import phase_average
from decogauss.evolution import GaussianDensityMatrix, cubic_from_initial, evolve, minimum_uncertainty_initial
from decogauss.observation import ObservationOperator, measure
from decogauss.oracle import discretize, integrate_master_equation
from decogauss.spectral import mean_excitation, von_neumann_entropy


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


def coefficients(state):
    return (state.a_coeff, state.b_coeff, state.c_coeff)


def rescaled(state, k):
    return GaussianDensityMatrix(*(value / 4.0**k for value in coefficients(state)))


# In units of C0, the ranges keep every product inside the normal doubles
# for C0 in [1e-30, 1e30] and |k| <= 60.
@settings(max_examples=300, deadline=None)
@given(
    c0=log_uniform(1e-30, 1e30),
    ratio=log_uniform(1.0, 1e6),
    chirp=st.floats(-1e3, 1e3),
    ell=log_uniform(1e-30, 1e15),
    u=log_uniform(1e-6, 1e6),
    k=st.integers(-60, 60),
    xi=st.floats(-10.0, 10.0),
    alpha=log_uniform(1e-3, 1e3),
    gamma=log_uniform(1e-3, 1e3),
)
def test_closed_form_is_bit_covariant(c0, ratio, chirp, ell, u, k, xi, alpha, gamma):
    start = GaussianDensityMatrix(ratio * c0, chirp * c0, c0)
    lam, tau = ell * c0 * c0, u / c0
    state = evolve(cubic_from_initial(start, lam), tau)
    scaled = evolve(cubic_from_initial(rescaled(start, k), lam / 16.0**k), tau * 4.0**k)
    assert tuple(value * 4.0**k for value in coefficients(scaled)) == coefficients(state)
    n_mean = mean_excitation(state)
    assert mean_excitation(scaled) == n_mean
    assert von_neumann_entropy(mean_excitation(scaled)) == von_neumann_entropy(n_mean)
    assert phase_average(scaled) == rescaled(phase_average(state), k)
    op = ObservationOperator(xi / math.sqrt(c0), alpha * c0, gamma * c0)
    scaled_op = ObservationOperator(op.center * 2.0**k, op.alpha / 4.0**k, op.gamma / 4.0**k)
    assert measure(scaled_op, scaled) == measure(op, state)


@pytest.mark.parametrize("k", [1, 3, -2])
def test_grid_integrator_is_bit_covariant(k):
    lam, tau = 0.8, 0.2
    cubic = cubic_from_initial(minimum_uncertainty_initial(0.5), lam)
    span = 8.0 * math.sqrt(cubic.x_value(tau))
    grid = integrate_master_equation(discretize(evolve(cubic, 0.0), -span, span, 243), lam, tau)
    start = rescaled(evolve(cubic, 0.0), k)
    scaled_span = span * 2.0**k
    scaled = integrate_master_equation(
        discretize(start, -scaled_span, scaled_span, 243), lam / 16.0**k, tau * 4.0**k
    )
    # the kernel is a density in x and x', so its values carry 1/length
    assert np.array_equal(scaled.values * 2.0**k, grid.values)
    assert scaled.momentum_variance() * 4.0**k == grid.momentum_variance()
