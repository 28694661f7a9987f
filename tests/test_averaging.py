import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import valid_states
from decogauss.averaging import phase_average
from decogauss.evolution import (
    CubicSolution,
    GaussianDensityMatrix,
    cubic_from_initial,
    evolve,
    minimum_uncertainty_initial,
    purity,
)
from decogauss.spectral import mean_excitation, von_neumann_entropy


def test_phase_average_drops_b_only():
    state = GaussianDensityMatrix(0.75, -0.5, 0.0625)
    averaged = phase_average(state)
    assert averaged.a_coeff == 0.75
    assert averaged.b_coeff == 0.0
    assert averaged.c_coeff == 0.0625
    assert mean_excitation(averaged) == mean_excitation(state)
    assert von_neumann_entropy(mean_excitation(averaged)) == von_neumann_entropy(
        mean_excitation(state)
    )


@settings(max_examples=100)
@given(state=valid_states())
def test_phase_average_idempotent(state):
    once = phase_average(state)
    assert phase_average(once) == once


@settings(max_examples=100)
@given(state=valid_states())
def test_phase_average_invariants_exact(state):
    averaged = phase_average(state)
    # these depend only on (A, C), so equality is exact, not approximate
    assert mean_excitation(averaged) == mean_excitation(state)
    assert purity(averaged) == purity(state)
    assert averaged.c_coeff == state.c_coeff  # weighted variance 1/(8C)


def test_b_zero_input_unchanged():
    state = GaussianDensityMatrix(0.7, 0.0, 0.3)
    assert phase_average(state) == state


# --- leading-order scalings ------------------------------------------------------

# deep in the ballistic window: N >> 1 while 3*lam*tau << a2
BALLISTIC = cubic_from_initial(minimum_uncertainty_initial(0.25), 1e-8)


def averaged(tau):
    return phase_average(evolve(BALLISTIC, tau))


def test_scaling_n_grows_as_t_to_three_halves():
    tau = 3e4
    n1 = mean_excitation(averaged(tau))
    n4 = mean_excitation(averaged(4.0 * tau))
    assert n1 > 100.0
    assert n4 / n1 == pytest.approx(8.0, rel=1e-2)


def test_scaling_c_falls_as_t_to_minus_two():
    tau = 3e4
    c1 = averaged(tau).c_coeff
    c2 = averaged(2.0 * tau).c_coeff
    assert c2 / c1 == pytest.approx(0.25, rel=1e-2)


def test_scalings_match_closed_form_exactly():
    """The averaged state keeps A = (2XX'' - X'^2)/(8X) and C = 1/(8X) of
    the variance cubic, here evaluated in exact rational arithmetic."""
    lam, a2, a1, a0, tau = map(
        Fraction, (BALLISTIC.lam, BALLISTIC.a2, BALLISTIC.a1, BALLISTIC.a0, 3e4)
    )
    x = a0 + tau * (a1 + tau * (a2 + tau * lam))
    x_prime = a1 + tau * (2 * a2 + 3 * lam * tau)
    x_second = 2 * a2 + 6 * lam * tau
    a_exact = (2 * x * x_second - x_prime * x_prime) / (8 * x)
    c_exact = 1 / (8 * x)
    state = averaged(3e4)
    assert state.b_coeff == 0.0
    assert state.a_coeff == pytest.approx(float(a_exact), rel=1e-12)
    assert state.c_coeff == pytest.approx(float(c_exact), rel=1e-12)
    n_exact = 0.5 * (math.sqrt(float(a_exact / c_exact)) - 1.0)
    assert mean_excitation(state) == pytest.approx(n_exact, rel=1e-12)


def test_leading_order_deviations_small_in_ballistic_window():
    """The spreading-regime power laws A ~ lam*tau/2, C ~ 1/(8 a2 tau^2),
    N ~ sqrt(a2 lam tau^3) and S ~ ln N + 1 hold to 5% in the window."""
    tau = 3e4
    state = averaged(tau)
    n_exact = mean_excitation(state)
    n_leading = math.sqrt(BALLISTIC.a2 * BALLISTIC.lam) * tau * math.sqrt(tau)
    pairs = [
        (state.a_coeff, 0.5 * BALLISTIC.lam * tau),
        (state.c_coeff, 1.0 / (8.0 * BALLISTIC.a2 * tau * tau)),
        (n_exact, n_leading),
        (von_neumann_entropy(n_exact), math.log(n_leading) + 1.0),
    ]
    for exact, leading in pairs:
        assert abs((exact - leading) / exact) < 0.05


# --- numerical time average ------------------------------------------------------

def test_time_average_suppresses_phase_structure():
    """Averaging the kernel over a window short against the variance drift
    but long against the phase winding reproduces the analytic B -> 0 rule:
    where the phase barely winds the averaged kernel matches the B = 0
    kernel, and where it winds by many turns the averaged kernel collapses
    while the B = 0 kernel keeps full magnitude."""
    cubic = CubicSolution(lam=0.0, a2=1.0, a1=0.0, a0=1.0, ratio0=4.0)
    tau0, window = 2000.0, 10.0
    taus = np.linspace(tau0, tau0 + window, 2001)
    mid = evolve(cubic, tau0 + 0.5 * window)
    first, last = evolve(cubic, tau0), evolve(cubic, tau0 + window)
    delta_b = abs(last.b_coeff - first.b_coeff)
    s_a = math.sqrt(mid.a_coeff)
    s_c = math.sqrt(mid.c_coeff)

    def averaged_kernel_at(y, z):
        x, xp = 0.5 * (z + y), 0.5 * (z - y)
        values = np.array([complex(evolve(cubic, t).kernel(x, xp)) for t in taus])
        return values.mean(), complex(phase_average(mid).kernel(x, xp))

    # quiet point: total phase and winding both far below a radian
    y_q, z_q = 0.002 / s_a, 0.002 / s_c
    assert abs(mid.b_coeff) * y_q * z_q < 0.02
    avg_q, b0_q = averaged_kernel_at(y_q, z_q)
    assert abs(avg_q - b0_q) < 0.02 * abs(b0_q)

    # winding point: tens of turns across the window, drift still ~1%
    y_w, z_w = 2.0 / s_a, 2.0 / s_c
    winding = delta_b * y_w * z_w
    assert winding > 40.0
    avg_w, b0_w = averaged_kernel_at(y_w, z_w)
    assert abs(avg_w) < 0.1 * abs(b0_w)
    # the instantaneous kernel has full magnitude there; only the average dies
    assert abs(complex(mid.kernel(0.5 * (z_w + y_w), 0.5 * (z_w - y_w)))) == pytest.approx(
        abs(b0_w), rel=1e-12
    )
