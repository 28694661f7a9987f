import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from decogauss.evolution import GaussianDensityMatrix, purity
from decogauss.scenarios import baseball_scenario, evolve_scenario
from decogauss.spectral import mean_excitation
from decogauss.units import (
    CONSTANTS,
    METER,
    PLANCK_LENGTH,
    LengthUnit,
    PhysicalConstants,
)


def test_planck_length_consistent_with_hbar_g_c():
    derived = math.sqrt(CONSTANTS.hbar * CONSTANTS.G / CONSTANTS.c**3)
    assert abs(derived - CONSTANTS.planck_length) <= 1e-6 * CONSTANTS.planck_length


def test_planck_momentum_consistent_with_hbar_g_c():
    derived = math.sqrt(CONSTANTS.hbar * CONSTANTS.c**3 / CONSTANTS.G)
    assert abs(derived - CONSTANTS.planck_momentum) <= 1e-6 * CONSTANTS.planck_momentum


def test_h_is_exactly_two_pi_hbar():
    assert CONSTANTS.h == 2.0 * math.pi * CONSTANTS.hbar


def test_planck_mass_times_c_is_planck_momentum():
    assert (
        abs(CONSTANTS.planck_mass * CONSTANTS.c - CONSTANTS.planck_momentum)
        <= 1e-6 * CONSTANTS.planck_momentum
    )


def test_inconsistent_constants_rejected():
    with pytest.raises(ValueError):
        PhysicalConstants(
            hbar=CONSTANTS.hbar,
            h=CONSTANTS.h,
            c=CONSTANTS.c,
            G=CONSTANTS.G,
            boltzmann=CONSTANTS.boltzmann,
            g_gravity=CONSTANTS.g_gravity,
            planck_length=2e-35,  # off by ~24%
            planck_momentum=CONSTANTS.planck_momentum,
            planck_mass=CONSTANTS.planck_mass,
        )


@pytest.mark.parametrize(
    "field, value",
    [
        ("planck_length", math.nan),
        ("boltzmann", -1.0),
        ("g_gravity", math.inf),
        ("hbar", 0.0),
        ("c", -math.inf),
    ],
)
def test_nonpositive_or_non_finite_constant_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(CONSTANTS, **{field: value})


def test_convert_identity():
    state = GaussianDensityMatrix(0.75, -0.5, 0.0625, METER)
    assert state.convert(METER) == state


def test_convert_meter_to_planck_length():
    # a coefficient of one per square Planck length, given in 1/m^2
    state = GaussianDensityMatrix(2.0 / 1.616255e-35**2, 0.0, 1.0 / 1.616255e-35**2, METER)
    converted = state.convert(PLANCK_LENGTH)
    assert converted.unit == PLANCK_LENGTH
    assert converted.c_coeff == pytest.approx(1.0, rel=1e-12)
    assert converted.a_coeff == pytest.approx(2.0, rel=1e-12)


def test_convert_288_meters():
    spread_planck = 288.0 / 1.616255e-35  # direct division
    assert spread_planck == pytest.approx(1.782e37, rel=1e-3)
    c = 1.0 / (8.0 * spread_planck**2)  # position variance 1/(8C)
    state = GaussianDensityMatrix(c, 0.0, c, PLANCK_LENGTH)
    got = math.sqrt(1.0 / (8.0 * state.convert(METER).c_coeff))
    assert got == pytest.approx(288.0, rel=1e-12)


def test_convert_rejects_non_finite():
    state = GaussianDensityMatrix(1e300, 0.0, 1e300, METER)
    with pytest.raises(ValueError):
        state.convert(LengthUnit("Gm", 1e9))  # 1e318 per Gm^2 overflows


def test_custom_unit_scale_must_be_positive():
    with pytest.raises(ValueError):
        LengthUnit("u", 0.0)
    with pytest.raises(ValueError):
        LengthUnit("u", -1.0)
    with pytest.raises(ValueError):
        LengthUnit("u", math.inf)


@given(
    value=st.floats(1e-30, 1e30),
    ratio=st.floats(1.0, 1e4),
    b=st.floats(-1e2, 1e2).filter(lambda b: b == 0.0 or abs(b) > 1e-6),
    scale1=st.floats(1e-36, 1e6),
    scale2=st.floats(1e-36, 1e6),
)
def test_convert_round_trip(value, ratio, b, scale1, scale2):
    u1 = LengthUnit("u1", scale1)
    u2 = LengthUnit("u2", scale2)
    state = GaussianDensityMatrix(ratio * value, b * value, value, u1)
    back = state.convert(u2).convert(u1)
    assert back.unit == u1
    assert back.a_coeff == pytest.approx(state.a_coeff, rel=1e-12)
    assert back.b_coeff == pytest.approx(state.b_coeff, rel=1e-12)
    assert back.c_coeff == pytest.approx(state.c_coeff, rel=1e-12)


BASEBALL = evolve_scenario(baseball_scenario())


def test_planck_scaled_tau():
    assert BASEBALL.tau_si == pytest.approx(4.658e-33, rel=1e-3)
    oracle = BASEBALL.tau_si / CONSTANTS.planck_length**2
    assert BASEBALL.tau_planck == oracle
    assert BASEBALL.tau_planck == pytest.approx(1.78e37, rel=1e-2)


def test_planck_scaled_lambda():
    assert BASEBALL.lam_si == pytest.approx(3.27e79, rel=1e-2)
    oracle = BASEBALL.lam_si * CONSTANTS.planck_length**4
    assert BASEBALL.lam_planck == pytest.approx(oracle, rel=1e-12)
    assert BASEBALL.lam_planck == pytest.approx(2.2e-60, rel=5e-2)


def test_planck_scaled_zero_power_identity():
    # dimensionless figures of the state do not depend on the length unit
    in_meters = BASEBALL.state.convert(METER)
    assert mean_excitation(in_meters) == pytest.approx(mean_excitation(BASEBALL.state), rel=1e-12)
    assert purity(in_meters) == pytest.approx(purity(BASEBALL.state), rel=1e-12)


def test_planck_scaled_rejects_non_finite():
    with pytest.raises(ValueError):
        constants = dataclasses.replace(CONSTANTS, planck_length=math.nan)
        evolve_scenario(baseball_scenario(), constants)
