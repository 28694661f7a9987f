import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import o1_states, valid_states
from decogauss.evolution import (
    CubicSolution,
    GaussianDensityMatrix,
    cubic_from_initial,
    evolve,
    minimum_uncertainty_initial,
    momentum_variance,
    position_variance,
    purity,
)
from decogauss.scenarios import baseball_scenario, evolve_scenario
from decogauss.units import PLANCK_LENGTH
from _quad import quad_purity, quad_trace

# baseball magnitudes in Planck units (rounded to the published digits)
TAU_B = 1.78e37
LAM_B = 2.2e-60
BASEBALL_CUBIC = CubicSolution(lam=LAM_B, a2=1.0, a1=0.0, a0=0.25, ratio0=1.0)


def exact_coefficients(cubic, tau):
    """Rational-arithmetic evaluation of the textbook forms; exact for float
    inputs, immune to the catastrophic cancellation of the naive order."""
    lam, a2, a1, a0, t = (
        Fraction(cubic.lam),
        Fraction(cubic.a2),
        Fraction(cubic.a1),
        Fraction(cubic.a0),
        Fraction(tau),
    )
    big_x = lam * t**3 + a2 * t**2 + a1 * t + a0
    x_p = 3 * lam * t**2 + 2 * a2 * t + a1
    x_pp = 6 * lam * t + 2 * a2
    return (
        float((2 * big_x * x_pp - x_p * x_p) / (8 * big_x)),
        float(-x_p / (4 * big_x)),
        float(1 / (8 * big_x)),
    )


def pure_initial_closed_form(dx0_sq, lam, tau):
    """Independent closed form for a minimum-uncertainty start (cross-check
    only; the production path always goes through the general cubic)."""
    big_x = lam * tau**3 + 0.25 * tau**2 / dx0_sq + dx0_sq
    a = (3 * lam**2 * tau**4 + lam * tau**3 / dx0_sq + 12 * lam * dx0_sq * tau + 1) / (8 * big_x)
    b = -(6 * lam * tau**2 + tau / dx0_sq) / (8 * big_x)
    c = 1 / (8 * big_x)
    return a, b, c


# --- cubic_from_initial -----------------------------------------------------

def test_cubic_from_pure_minimum_uncertainty():
    cubic = cubic_from_initial(GaussianDensityMatrix(0.5, 0.0, 0.5), lam=1.0)
    assert (cubic.a0, cubic.a1, cubic.a2) == (0.25, 0.0, 1.0)


def test_cubic_from_mixed_state():
    cubic = cubic_from_initial(GaussianDensityMatrix(0.75, -0.5, 0.0625), lam=0.0)
    assert cubic.a0 == pytest.approx(2.0, rel=1e-14)
    assert cubic.a1 == pytest.approx(4.0, rel=1e-14)
    assert cubic.a2 == pytest.approx(3.5, rel=1e-14)


@given(c=st.floats(0.01, 10.0))
def test_pure_symmetric_state_gives_a1_zero(c):
    cubic = cubic_from_initial(GaussianDensityMatrix(c, 0.0, c), lam=0.5)
    assert cubic.a1 == 0.0
    assert 4.0 * cubic.a0 * cubic.a2 == pytest.approx(1.0, rel=1e-14)


def test_cubic_rejects_negative_lam():
    with pytest.raises(ValueError):
        cubic_from_initial(GaussianDensityMatrix(0.5, 0.0, 0.5), lam=-1.0)


@pytest.mark.parametrize("b", [1e200, -1e200])
def test_cubic_rejects_overflowing_chirp_naming_a2(b):
    # B**2 overflowed as a float power and escaped as an OverflowError
    with pytest.raises(ValueError, match=r"^a2 must be finite, got inf$"):
        cubic_from_initial(GaussianDensityMatrix(1e300, b, 1.0), 0.0)


def test_cubic_initial_ratio_is_a_over_c():
    state = GaussianDensityMatrix(0.75, -0.5, 0.0625)
    cubic = cubic_from_initial(state, lam=1.0)
    assert cubic.ratio0 == pytest.approx(0.75 / 0.0625, rel=1e-12)


# --- evolve ------------------------------------------------------------------

def test_evolve_hand_example():
    cubic = CubicSolution(lam=1.0, a2=0.5, a1=0.0, a0=0.5, ratio0=1.0)
    state = evolve(cubic, 1.0)
    assert cubic.x_value(1.0) == pytest.approx(2.0, rel=1e-15)
    assert 2 * momentum_variance(cubic, 1.0) == pytest.approx(7.0, rel=1e-15)
    assert state.a_coeff == pytest.approx(0.75, rel=1e-14)
    assert state.b_coeff == pytest.approx(-0.5, rel=1e-14)
    assert state.c_coeff == pytest.approx(0.0625, rel=1e-14)


@settings(max_examples=100)
@given(state=valid_states(), lam=st.floats(0.0, 10.0))
def test_evolve_at_zero_recovers_initial(state, lam):
    back = evolve(cubic_from_initial(state, lam), 0.0)
    assert back.a_coeff == pytest.approx(state.a_coeff, rel=1e-12)
    assert back.b_coeff == pytest.approx(state.b_coeff, rel=1e-12, abs=1e-300)
    assert back.c_coeff == pytest.approx(state.c_coeff, rel=1e-12)


def test_evolve_baseball_magnitudes():
    state = evolve(BASEBALL_CUBIC, TAU_B)
    assert state.a_coeff == pytest.approx(2e-23, rel=0.2)
    assert state.b_coeff == pytest.approx(-2.8e-38, rel=0.2)
    assert state.c_coeff == pytest.approx(3.9e-76, rel=0.2)


def test_evolve_baseball_agrees_with_rational_arithmetic():
    # the expanded-numerator evaluation must match exact rational arithmetic
    # where the naive float order loses every significant digit
    state = evolve(BASEBALL_CUBIC, TAU_B)
    a_exact, b_exact, c_exact = exact_coefficients(BASEBALL_CUBIC, TAU_B)
    assert state.a_coeff == pytest.approx(a_exact, rel=1e-12)
    assert state.b_coeff == pytest.approx(b_exact, rel=1e-12)
    assert state.c_coeff == pytest.approx(c_exact, rel=1e-12)
    # and the naive order really does lose it (no correct digits at all)
    x = BASEBALL_CUBIC.x_value(TAU_B)
    x_second = 2 * momentum_variance(BASEBALL_CUBIC, TAU_B)
    lam, a2, a1 = BASEBALL_CUBIC.lam, BASEBALL_CUBIC.a2, BASEBALL_CUBIC.a1
    x_prime = a1 + TAU_B * (2 * a2 + 3 * lam * TAU_B)
    naive = (2 * x * x_second - x_prime**2) / (8 * x)
    assert abs(naive - a_exact) > 0.5 * abs(a_exact)


def test_evolve_rejects_negative_tau():
    with pytest.raises(ValueError):
        evolve(BASEBALL_CUBIC, -1.0)


# --- variances ---------------------------------------------------------------

def test_position_variance_at_zero_is_a0():
    cubic = CubicSolution(lam=1.0, a2=0.5, a1=0.0, a0=0.5, ratio0=1.0)
    assert position_variance(cubic, 0.0) == 0.5


def test_position_variance_cubic_value():
    cubic = CubicSolution(lam=1.0, a2=0.5, a1=0.0, a0=0.5, ratio0=1.0)
    assert position_variance(cubic, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_position_variance_baseball():
    # (v_b t_b)^2 = (288 m)^2; in Planck units X ~ tau^2
    x = position_variance(BASEBALL_CUBIC, TAU_B)
    dx_m = math.sqrt(x) * 1.616255e-35
    assert dx_m == pytest.approx(288.0, rel=1e-2)


def test_momentum_variance_linear():
    cubic = CubicSolution(lam=1.0, a2=0.5, a1=0.0, a0=0.5, ratio0=1.0)
    assert momentum_variance(cubic, 0.0) == 0.5
    assert momentum_variance(cubic, 1.0) == pytest.approx(3.5, rel=1e-15)
    taus = np.linspace(0.0, 5.0, 11)
    values = [momentum_variance(cubic, t) for t in taus]
    assert np.allclose(values, 3.0 * taus + 0.5, rtol=1e-14)


def test_momentum_variance_baseball_fractional_shift():
    shift = 3.0 * LAM_B * TAU_B / BASEBALL_CUBIC.a2
    assert shift == pytest.approx(1.2e-22, rel=0.3)


# --- minimum uncertainty / purity ---------------------------------------------

def test_minimum_uncertainty_quarter():
    state = minimum_uncertainty_initial(0.25)
    assert state.a_coeff == 0.5
    assert state.b_coeff == 0.0
    assert state.c_coeff == 0.5


def test_minimum_uncertainty_planck_baseball_start():
    state = minimum_uncertainty_initial(0.25)
    cubic = cubic_from_initial(state, LAM_B)
    assert (cubic.a0, cubic.a1, cubic.a2) == (0.25, 0.0, 1.0)


def test_minimum_uncertainty_is_pure():
    state = minimum_uncertainty_initial(1.7)
    assert state.a_coeff == state.c_coeff
    assert purity(state) == 1.0


def test_minimum_uncertainty_rejects_nonpositive():
    with pytest.raises(ValueError):
        minimum_uncertainty_initial(0.0)


def test_purity_matches_quadrature():
    state = GaussianDensityMatrix(0.75, -0.5, 0.0625)
    assert purity(state) == pytest.approx(quad_purity(state), rel=1e-6)


def test_purity_baseball_matches_ladder_sum():
    state = evolve(BASEBALL_CUBIC, TAU_B)
    n_mean = 0.5 * (math.sqrt(state.a_coeff / state.c_coeff) - 1.0)
    assert purity(state) == pytest.approx(1.0 / (2.0 * n_mean + 1.0), rel=1e-9)


# --- invariants ----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(state=o1_states())
def test_trace_is_one(state):
    assert quad_trace(state) == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=150)
@given(state=valid_states(), lam=st.floats(0.0, 10.0), tau=st.floats(0.0, 10.0))
def test_positivity_preserved(state, lam, tau):
    evolved = evolve(cubic_from_initial(state, lam), tau)
    assert evolved.a_coeff >= evolved.c_coeff * (1.0 - 1e-12)


@settings(max_examples=150)
@given(
    state=valid_states(),
    lam=st.floats(0.0, 10.0),
    tau1=st.floats(0.0, 10.0),
    tau2=st.floats(0.0, 10.0),
)
def test_semigroup_composition(state, lam, tau1, tau2):
    cubic = cubic_from_initial(state, lam)
    mid = evolve(cubic, tau1)
    restarted = evolve(cubic_from_initial(mid, lam), tau2)
    direct = evolve(cubic, tau1 + tau2)
    got = np.array([restarted.a_coeff, restarted.b_coeff, restarted.c_coeff])
    want = np.array([direct.a_coeff, direct.b_coeff, direct.c_coeff])
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


@settings(max_examples=150)
@given(state=valid_states(), lam=st.floats(0.0, 10.0), tau=st.floats(0.0, 10.0))
def test_uncertainty_product_bound(state, lam, tau):
    cubic = cubic_from_initial(state, lam)
    product = position_variance(cubic, tau) * momentum_variance(cubic, tau)
    assert product >= 0.25 * (1.0 - 1e-12)


def test_uncertainty_equality_iff_pure_unchirped():
    pure = cubic_from_initial(minimum_uncertainty_initial(0.4), lam=2.0)
    assert position_variance(pure, 0.0) * momentum_variance(pure, 0.0) == pytest.approx(
        0.25, rel=1e-14
    )
    chirped = cubic_from_initial(GaussianDensityMatrix(0.5, 0.3, 0.5), lam=2.0)
    assert position_variance(chirped, 0.0) * momentum_variance(chirped, 0.0) > 0.25 * (1 + 1e-6)


@settings(max_examples=60)
@given(state=valid_states(), tau=st.floats(0.0, 10.0))
def test_free_limit_preserves_purity_and_momentum(state, tau):
    cubic = cubic_from_initial(state, 0.0)
    evolved = evolve(cubic, tau)
    assert purity(evolved) == pytest.approx(purity(state), rel=1e-12)
    assert momentum_variance(cubic, tau) == momentum_variance(cubic, 0.0)


def test_ode_residuals():
    # central differences of the closed form against the coupled system
    # A' = 4AB + 3 lam/2, B' = 2(B^2 - 4AC), C' = 4BC
    cubic = cubic_from_initial(GaussianDensityMatrix(0.75, -0.5, 0.0625), lam=1.3)
    step = 1e-5
    for tau in (0.2, 0.7, 1.9):
        plus = evolve(cubic, tau + step)
        minus = evolve(cubic, tau - step)
        here = evolve(cubic, tau)
        a_dot = (plus.a_coeff - minus.a_coeff) / (2 * step)
        b_dot = (plus.b_coeff - minus.b_coeff) / (2 * step)
        c_dot = (plus.c_coeff - minus.c_coeff) / (2 * step)
        a, b, c = here.a_coeff, here.b_coeff, here.c_coeff
        assert a_dot == pytest.approx(4 * a * b + 1.5 * cubic.lam, rel=1e-6)
        assert b_dot == pytest.approx(2 * (b * b - 4 * a * c), rel=1e-6)
        assert c_dot == pytest.approx(4 * b * c, rel=1e-6)


@pytest.mark.parametrize("dx0_sq,lam", [(0.5, 1.0), (0.25, 0.3), (1.5, 2.0)])
def test_pure_initial_closed_form_cross_check(dx0_sq, lam):
    cubic = cubic_from_initial(minimum_uncertainty_initial(dx0_sq), lam)
    for tau in (0.1, 0.5, 2.0):
        state = evolve(cubic, tau)
        a, b, c = pure_initial_closed_form(dx0_sq, lam, tau)
        assert state.a_coeff == pytest.approx(a, rel=1e-12)
        assert state.b_coeff == pytest.approx(b, rel=1e-12)
        assert state.c_coeff == pytest.approx(c, rel=1e-12)


# --- construction guards --------------------------------------------------------

def test_state_rejects_nonpositive_c():
    with pytest.raises(ValueError):
        GaussianDensityMatrix(1.0, 0.0, 0.0)


def test_state_rejects_a_below_c():
    with pytest.raises(ValueError):
        GaussianDensityMatrix(0.4, 0.0, 0.5)


def test_state_accepts_chirped_pure_state():
    # A = C with B != 0 is a unitary phase transform of a pure Gaussian
    state = GaussianDensityMatrix(0.5, 1.0, 0.5)
    assert purity(state) == 1.0
    cubic = cubic_from_initial(state, 0.5)
    assert cubic.a1 != 0.0
    assert cubic.ratio0 == pytest.approx(1.0, rel=1e-12)


def test_state_rejects_non_finite():
    with pytest.raises(ValueError):
        GaussianDensityMatrix(math.nan, 0.0, 0.5)


def test_cubic_rejects_invalid_coefficients():
    with pytest.raises(ValueError):
        CubicSolution(lam=1.0, a2=0.5, a1=0.0, a0=-0.5, ratio0=1.0)
    with pytest.raises(ValueError):
        CubicSolution(lam=1.0, a2=-0.5, a1=0.0, a0=0.5, ratio0=1.0)
    with pytest.raises(ValueError):
        # a1^2 > 4 a0 a2 - 1 would need A(0) < C(0): 4 a0 a2 - a1^2 = -24, not ratio0
        CubicSolution(lam=1.0, a2=1.0, a1=5.0, a0=0.25, ratio0=1.0)


def test_state_unit_conversion_round_trip():
    # evolve_scenario's one Planck -> SI conversion of the evolved state,
    # taken back to Planck units by hand
    evolution = evolve_scenario(baseball_scenario())
    there, back = evolution.state, evolution.state_si
    ratio = PLANCK_LENGTH**2
    for name in ("a_coeff", "b_coeff", "c_coeff"):
        assert getattr(back, name) * ratio == pytest.approx(getattr(there, name), rel=1e-12)


@st.composite
def kernel_points(draw):
    """A state with |B| <= 1e2 and a point with |x|, |x'| <= 20.  A and C
    keep A y^2 + C z^2 <= 40, so the amplitude's own rounding (about
    3 eps per unit of exponent) stays far inside the phase bound below."""
    x = draw(st.floats(-20.0, 20.0))
    xp = draw(st.floats(-20.0, 20.0))
    y_sq, z_sq = (x - xp) ** 2, (x + xp) ** 2
    c = draw(st.floats(1e-6, 20.0 / max(1.0, y_sq, z_sq)))
    a = draw(st.floats(c, max(c, 20.0 / max(1.0, y_sq))))
    b = draw(st.floats(-1e2, 1e2))
    return GaussianDensityMatrix(a, b, c), x, xp


@settings(max_examples=300, deadline=None)
@given(point=kernel_points())
def test_kernel_matches_high_precision(point):
    # the phase is evaluated as exp(-iB x^2) exp(iB x'^2); its rounding
    # grows with B (x^2 + x'^2), not with the much smaller B y z
    state, x, xp = point
    with mpmath.workdps(40):
        mx, mxp = mpmath.mpf(x), mpmath.mpf(xp)
        y, z = mx - mxp, mx + mxp
        exponent = mpmath.mpc(
            -(state.a_coeff * y * y + state.c_coeff * z * z), -state.b_coeff * y * z
        )
        norm = mpmath.sqrt(4 * mpmath.mpf(state.c_coeff) / mpmath.pi)
        exact = complex(norm * mpmath.exp(exponent))
    phase_size = abs(state.b_coeff) * (x * x + xp * xp)
    assert abs(complex(state.kernel(x, xp)) - exact) <= 1e-13 * abs(exact) * max(1.0, phase_size)
