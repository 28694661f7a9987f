import math
import struct
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import o1_states
from decogauss.evolution import GaussianDensityMatrix
from decogauss.observation import ObservationOperator, measure, measure_profile
from _quad import operator_kernel, operator_norm, quad_measure, quad_mixture_measure

STATE = GaussianDensityMatrix(0.75, -0.5, 0.0625)


def test_norm_fixed_by_unit_trace():
    op = ObservationOperator(0.0, 1.0, math.pi / 4.0)
    assert operator_norm(op) == pytest.approx(1.0, rel=1e-14)
    # quadrature of the diagonal: integral of exp(-4 gamma (x - x_k)^2)
    xs = np.linspace(-30, 30, 20001)
    h = xs[1] - xs[0]
    assert float(np.sum(operator_kernel(op, xs, xs)) * h) == pytest.approx(1.0, rel=1e-10)


def test_translation_covariance():
    shift = 1.7
    op0 = ObservationOperator(0.3, 0.8, 1.1)
    op1 = ObservationOperator(0.3 + shift, 0.8, 1.1)
    xs = np.linspace(-3, 3, 41)
    k0 = operator_kernel(op0, xs[:, None], xs[None, :])
    k1 = operator_kernel(op1, xs[:, None] + shift, xs[None, :] + shift)
    assert np.allclose(k0, k1, rtol=1e-13)


def test_alpha_zero_is_pure_position_window():
    op = ObservationOperator(0.0, 0.0, 2.0)
    # kernel depends on x + x' only: shifting along the antidiagonal is free
    assert operator_kernel(op, 1.3, -0.2) == pytest.approx(operator_kernel(op, 0.55, 0.55), rel=1e-14)


def test_operator_rejects_bad_widths():
    with pytest.raises(ValueError):
        ObservationOperator(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ObservationOperator(0.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        ObservationOperator(0.0, -1e-3, 1.0)


def test_measure_matches_quadrature_basic():
    for center in (0.0, 0.8, -2.5):
        op = ObservationOperator(center, 0.6, 1.4)
        assert measure(op, STATE) == pytest.approx(quad_measure(op, STATE), rel=1e-8)


def test_measure_matches_quadrature_alpha_zero():
    op = ObservationOperator(0.5, 0.0, 2.0)
    assert measure(op, STATE) == pytest.approx(quad_measure(op, STATE), rel=1e-8)


def test_measure_matches_scipy_dblquad():
    from scipy.integrate import dblquad

    op = ObservationOperator(0.4, 0.7, 1.2)

    def integrand(xp, x):
        return float(np.real(operator_kernel(op, x, xp) * STATE.kernel(xp, x)))

    value, err = dblquad(integrand, -9, 9, -9, 9, epsabs=1e-12, epsrel=1e-12)
    assert measure(op, STATE) == pytest.approx(value, rel=1e-8)


def test_measure_grows_with_gamma_toward_peak():
    values = [measure(ObservationOperator(0.0, 0.5, g), STATE) for g in (1.0, 10.0, 100.0)]
    assert values[0] < values[1] < values[2]
    for g, v in zip((1.0, 10.0, 100.0), values):
        assert v == pytest.approx(quad_measure(ObservationOperator(0.0, 0.5, g), STATE), rel=1e-8)


def test_measure_parity_symmetry():
    for s in (0.5, 1.5, 4.0):
        plus = measure(ObservationOperator(+s, 0.6, 1.4), STATE)
        minus = measure(ObservationOperator(-s, 0.6, 1.4), STATE)
        assert plus == minus


def test_measure_localization_sensitivity():
    width = math.sqrt(1.0 / (8.0 * STATE.c_coeff))
    near = measure(ObservationOperator(0.0, 0.6, 1.4), STATE)
    far = measure(ObservationOperator(10.0 * width, 0.6, 1.4), STATE)
    assert near / far > 1e3


def test_measure_monotone_in_center_distance():
    centers = np.linspace(0.0, 6.0, 25)
    state = GaussianDensityMatrix(0.9, 0.0, 0.2)
    values = [measure(ObservationOperator(c, 0.4, 1.1), state) for c in centers]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_measure_linear_in_state():
    op = ObservationOperator(0.6, 0.5, 1.0)
    s1 = GaussianDensityMatrix(0.75, -0.5, 0.0625)
    s2 = GaussianDensityMatrix(1.4, 0.3, 0.9)
    xs = np.linspace(-12, 12, 1601)
    mixed = quad_mixture_measure(op, (0.6, 0.4), (s1, s2), xs)
    combo = 0.6 * measure(op, s1) + 0.4 * measure(op, s2)
    assert mixed == pytest.approx(combo, rel=1e-10)


def test_measure_invariant_under_phase_conjugation():
    op = ObservationOperator(1.2, 0.4, 0.9)
    plus = measure(op, GaussianDensityMatrix(0.75, 0.5, 0.0625))
    minus = measure(op, GaussianDensityMatrix(0.75, -0.5, 0.0625))
    assert plus == minus


@settings(max_examples=25, deadline=None)
@given(
    state=o1_states(),
    center=st.floats(-3.0, 3.0),
    alpha=st.floats(0.0, 3.0),
    gamma=st.floats(0.05, 4.0),
)
def test_measure_quadrature_property(state, center, alpha, gamma):
    op = ObservationOperator(center, alpha, gamma)
    got = measure(op, state)
    assert got >= 0.0
    assert got == pytest.approx(quad_measure(op, state), rel=1e-7, abs=1e-30)


def test_measure_survives_an_underflowing_denominator():
    # the measure is dimensionless: coefficients times 2**-540 leave it
    # unchanged at the centre, but (A + alpha) Q underflows to 0 (B = 0,
    # since B**2 would underflow too)
    scale = 2.0**-540
    state, op = GaussianDensityMatrix(0.75, 0.0, 0.0625), ObservationOperator(0.0, 0.8, 1.1)
    small = GaussianDensityMatrix(state.a_coeff * scale, 0.0, state.c_coeff * scale)
    small_op = ObservationOperator(0.0, op.alpha * scale, op.gamma * scale)
    assert (small.a_coeff + small_op.alpha) * (small.c_coeff + small_op.gamma) == 0.0
    assert measure(small_op, small) == pytest.approx(measure(op, state), rel=1e-15)


def mp_measure(op, state):
    """The module's closed form at 50 digits, where no product under- or
    overflows."""
    with mpmath.workdps(50):
        a, b, c, alpha, gamma, center = map(
            mpmath.mpf, (state.a_coeff, state.b_coeff, state.c_coeff, op.alpha, op.gamma, op.center)
        )
        q_minus_gamma = c + b * b / (4 * (a + alpha))
        q = q_minus_gamma + gamma
        value = 2 * mpmath.sqrt(gamma / q) * mpmath.sqrt(c / (a + alpha))
        return float(value * mpmath.exp(-4 * gamma * q_minus_gamma * center * center / q))


TINY = GaussianDensityMatrix(2.0**-1040, 0.0, 2.0**-1040)


OUT_OF_RANGE = [
    # 4 gamma (Q - gamma) = 2**-1078 underflows to 0 against a finite
    # centre**2, which read 5.27e-82, the exponent lost
    pytest.param(
        ObservationOperator(2.0**270, 1.0, 2.0**-540), GaussianDensityMatrix(1.0, 0.0, 2.0**-540), id="underflow"
    ),
    # 4 gamma (Q - gamma) ~ 8.8e-315 is subnormal: 31 of its 53 bits are left
    pytest.param(
        ObservationOperator(4.1e79, 1.0, 1.3e-160), GaussianDensityMatrix(1.0, 0.0, 1.7e-155), id="subnormal"
    ),
    # it underflows against an overflowed centre**2: 0 * inf read nan
    pytest.param(ObservationOperator(3.0 * 2.0**518, 0.0, 2.0**-1040), TINY, id="underflow-times-inf"),
    pytest.param(ObservationOperator(-2.5e156, 0.0, 2.0**-1040), TINY, id="underflow-times-inf-negative"),
    # 4 gamma (Q - gamma) = 4e308 overflows: -inf * centre**2 read 0,
    # and -inf * 0 read nan at the window's centre
    pytest.param(ObservationOperator(1e-5, 0.0, 1e300), GaussianDensityMatrix(1e8, 0.0, 1e8), id="overflow"),
    pytest.param(ObservationOperator(0.0, 0.0, 1e300), GaussianDensityMatrix(1e8, 0.0, 1e8), id="overflow-at-zero"),
    # the prefactor's (A + alpha) Q = 1e200 * 2e200 overflows: pi C / inf read 0
    pytest.param(
        ObservationOperator(1e-100, 0.0, 1e200), GaussianDensityMatrix(1e200, 0.0, 1e200), id="prefactor-overflow"
    ),
    # pi C / ((A + alpha) Q) ~ 4e-401 underflows to 0, though its square
    # root ~ 6e-201 is a normal double
    pytest.param(
        ObservationOperator(3e99, 0.5, 2.0), GaussianDensityMatrix(4e200, 3.0, 1e-200), id="prefactor-underflow"
    ),
    # B * B = 9.6e-350 underflows to 0, though B^2 / (4 (A + alpha)) ~ 3e-30
    # is most of Q: Q read C + gamma and the measure 2.0, not 8.878e-72
    pytest.param(
        ObservationOperator(0.0, 0.0, 6e-173), GaussianDensityMatrix(7.89e-321, -3.1e-175, 7.89e-321),
        id="b-squared-underflow",
    ),
    # Q = 1e308 + 1e308 overflows, so inf / inf read nan; the value is sqrt(2)
    pytest.param(ObservationOperator(0.0, 0.0, 1e308), GaussianDensityMatrix(1e308, 0.0, 1e308), id="q-overflow"),
    # B^2 / (4 (A + alpha)) = 2.5e319 overflows on its own and read nan
    pytest.param(
        ObservationOperator(0.5, 0.0, 1.0), GaussianDensityMatrix(1.0, 1e160, 1.0), id="b-squared-overflow"
    ),
    # A + alpha = 2e308 overflows: pi C / ((A + alpha) Q) read 0, and the measure 0 for 1e-154
    pytest.param(
        ObservationOperator(0.0, 1e308, 1.0), GaussianDensityMatrix(1e308, 0.0, 1.0), id="a-plus-alpha-overflow"
    ),
]


@pytest.mark.parametrize("op, state", OUT_OF_RANGE)
def test_measure_keeps_an_exponent_whose_products_leave_the_range(op, state):
    exact = mp_measure(op, state)
    assert 0.0 < exact <= 2.0
    assert abs(measure(op, state) - exact) <= 2 * math.ulp(exact)


def test_measure_keeps_an_exponent_whose_centre_squared_overflows():
    # a normal 4 gamma (Q - gamma) = 4e-308 against centre**2 = inf read 0;
    # the exponent is -160, and its own rounding moves the result by ~1e-13
    op, state = ObservationOperator(2e154, 0.0, 1e-307), GaussianDensityMatrix(0.1, 0.0, 0.1)
    assert measure(op, state) == pytest.approx(mp_measure(op, state), rel=1e-13, abs=0.0)


def _binary(low, high, sign=False):
    """Doubles m 2^e, m in [0.5, 1), e in [low, high]; signed if asked."""
    magnitude = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(low, high))
    return st.builds(lambda s, m: s * m, st.sampled_from((-1.0, 1.0) if sign else (1.0,)), magnitude)


@settings(max_examples=400, deadline=None)
@given(
    c=_binary(-500, 500),
    a_over_c=_binary(1, 60),
    b=st.just(0.0) | _binary(-500, 500, sign=True),
    alpha=st.just(0.0) | _binary(-500, 500),
    gamma=_binary(-500, 500),
    window=st.none() | st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-8.0, 9.0)),
)
def test_measure_is_the_one_expression_form_wherever_it_stays_normal(c, a_over_c, b, alpha, gamma, window):
    # a power-of-two scale is exact, so measure on the significands must
    # give the direct form's bits wherever each of its steps is a normal
    # double; a zero B or centre makes its own steps exactly 0
    a = c * a_over_c
    denom = a + alpha
    b_term = b * b / (4.0 * denom)
    q_minus_gamma = c + b_term
    q = q_minus_gamma + gamma
    steps = [a, denom, 4.0 * denom, q_minus_gamma, q]
    if b:
        steps += [b * b, b_term]
    assume(all(sys.float_info.min <= abs(x) < math.inf for x in steps))
    center = 0.0
    if window is not None:
        # a centre where the Gaussian's exponent is about -2**log2_e, so that
        # exp shows that exponent's last bits
        sign, log2_e = window
        half = (log2_e + math.log2(q) - math.log2(gamma) - math.log2(q_minus_gamma) - 2.0) / 2.0
        assume(abs(half) < 1000.0)
        center = sign * 2.0**half
    op, state = ObservationOperator(center, alpha, gamma), GaussianDensityMatrix(a, b, c)
    scaled = -4.0 * gamma * q_minus_gamma
    exponent = scaled * (center * center) / q
    ratio = math.pi * c / (denom * q)
    prefactor = operator_norm(op) * math.sqrt(ratio)
    steps += [scaled, gamma / math.pi, operator_norm(op), math.pi * c, denom * q, ratio, math.sqrt(ratio), prefactor]
    if center:
        steps += [center * center, scaled * (center * center), exponent]
    assume(all(sys.float_info.min <= abs(x) < math.inf for x in steps))
    assert measure(op, state) == prefactor * math.exp(exponent)


def test_profile_singleton_matches_measure():
    rows = measure_profile([0.7], 0.5, 1.0, STATE)
    assert rows == [(0.7, measure(ObservationOperator(0.7, 0.5, 1.0), STATE))]


def test_profile_palindromic_for_symmetric_centers():
    centers = [-2.0, -1.0, 0.0, 1.0, 2.0]
    rows = measure_profile(centers, 0.5, 1.0, STATE)
    values = [m for _, m in rows]
    assert values == values[::-1]


def test_profile_rejects_empty_centers():
    with pytest.raises(ValueError):
        measure_profile([], 0.5, 1.0, STATE)


def test_profile_partition_of_unity():
    # identical unit-trace windows tiling the line: spacing well below the
    # window width and alpha large enough that the y-window is sharp
    alpha, gamma = 2000.0, 1.0
    width = math.sqrt(1.0 / (8.0 * STATE.c_coeff))
    spacing = 0.1 * width
    centers = np.arange(-8.0 * width, 8.0 * width + spacing / 2, spacing)
    rows = measure_profile(centers, alpha, gamma, STATE)
    total = spacing * math.sqrt(alpha / math.pi) * sum(m for _, m in rows)
    assert total == pytest.approx(1.0, abs=1e-3)


def _window_by_window(centers, alpha, gamma, state):
    """The profile as one checked window per centre and its own measure."""
    return [(x_k, measure(ObservationOperator(x_k, alpha, gamma), state)) for x_k in centers]


def _profile_outcome(profile_of, *args):
    """Each row's centre and measure bits, or the ValueError raised instead."""
    try:
        return [(x_k, struct.pack("d", value)) for x_k, value in profile_of(*args)]
    except ValueError as exc:
        return f"ValueError: {exc}"


_BAD = st.sampled_from((math.nan, math.inf, -math.inf, -1.0, 0.0))


@settings(max_examples=400, deadline=None)
@given(
    case=st.sampled_from([case.values for case in OUT_OF_RANGE]),
    state=st.none() | o1_states(),
    centers=st.lists(st.none() | st.floats(-1e300, 1e300) | _BAD, min_size=1, max_size=6),
    alpha=st.none() | st.floats(0.0, 1e300) | _BAD,
    gamma=st.none() | st.floats(0.0, 1e300, exclude_min=True) | _BAD,
)
def test_profile_is_the_one_window_measure_per_centre(case, state, centers, alpha, gamma):
    """measure_profile takes the centre-free terms once and is, bit for bit,
    measure at each centre, across the out-of-range cases above; a bad input
    raises the first error window-by-window checks raise: the first centre,
    then alpha, then gamma, then the later centres."""
    op, case_state = case
    state = case_state if state is None else state
    centers = [op.center if x_k is None else x_k for x_k in centers]
    alpha = op.alpha if alpha is None else alpha
    gamma = op.gamma if gamma is None else gamma
    args = (centers, alpha, gamma, state)
    assert _profile_outcome(measure_profile, *args) == _profile_outcome(_window_by_window, *args)
