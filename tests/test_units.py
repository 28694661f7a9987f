import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from decogauss import units
from decogauss.evolution import evolve, minimum_uncertainty_initial, purity
from decogauss.model import FreeParticle
from decogauss.scenarios import baseball_scenario, evolve_scenario, run
from decogauss.spectral import mean_excitation
from decogauss.units import GRAVITATIONAL_CONSTANT, H, HBAR, PLANCK_LENGTH, SPEED_OF_LIGHT


def test_planck_length_consistent_with_hbar_g_c():
    derived = math.sqrt(HBAR * GRAVITATIONAL_CONSTANT / SPEED_OF_LIGHT**3)
    assert abs(derived - PLANCK_LENGTH) <= 1e-6 * PLANCK_LENGTH


def test_h_is_exactly_two_pi_hbar():
    assert H == 2.0 * math.pi * HBAR


def test_every_constant_is_positive_and_finite():
    for name in units.__all__:
        value = getattr(units, name)
        assert math.isfinite(value) and value > 0.0, name


BASEBALL = evolve_scenario(baseball_scenario())

def test_convert_meter_to_planck_length():
    # an initial coefficient of one per square Planck length, given in meters
    # as the spread 1/sqrt(8) l_Pl
    scenario = dataclasses.replace(
        baseball_scenario(), initial_dx_m=PLANCK_LENGTH / math.sqrt(8.0)
    )
    start = evolve(evolve_scenario(scenario).cubic, 0.0)
    assert start.c_coeff == pytest.approx(1.0, rel=1e-12)
    assert start.a_coeff == pytest.approx(1.0, rel=1e-12)


def test_convert_288_meters():
    spread_planck = math.sqrt(1.0 / (8.0 * BASEBALL.state.c_coeff))  # variance 1/(8C)
    assert spread_planck == pytest.approx(1.782e37, rel=1e-2)
    got = math.sqrt(1.0 / (8.0 * BASEBALL.state_si.c_coeff))
    assert got == pytest.approx(spread_planck * PLANCK_LENGTH, rel=1e-12)
    assert got == pytest.approx(288.0, rel=1e-2)


def test_convert_rejects_non_finite():
    dx_m = 1e-156
    # the start is finite in Planck units (about 3e241 per l_Pl^2) ...
    c_planck = minimum_uncertainty_initial((dx_m / PLANCK_LENGTH) ** 2).c_coeff
    assert math.isfinite(c_planck)
    # ... and overflows in SI (about 1e311 per m^2)
    scenario = dataclasses.replace(baseball_scenario(), initial_dx_m=dx_m, evolution_time_s=1e-300)
    with pytest.raises(ValueError, match="must be finite"):
        evolve_scenario(scenario)


@given(dx_m=st.floats(1e-35, 1e-6), mass=st.floats(1e-18, 10.0))
def test_convert_round_trip(dx_m, mass):
    # SI in, Planck units inside, SI out: the start comes back as it went in,
    # and the trajectory's SI row at the end time is the evolution's state_si
    scenario = dataclasses.replace(
        baseball_scenario(), particle=FreeParticle(mass, 0.0369), initial_dx_m=dx_m, name=""
    )
    scenario = dataclasses.replace(scenario, sample_times_s=(0.0, scenario.evolution_time_s))
    start, end = run(scenario).trajectory
    assert start.dx2 == pytest.approx(dx_m**2, rel=1e-12)
    assert start.c_coeff == pytest.approx(1.0 / (8.0 * dx_m**2), rel=1e-12)
    assert (start.a_coeff, start.b_coeff) == (start.c_coeff, 0.0)
    state_si = evolve_scenario(scenario).state_si
    assert end.a_coeff == pytest.approx(state_si.a_coeff, rel=1e-12)
    assert end.b_coeff == pytest.approx(state_si.b_coeff, rel=1e-12)
    assert end.c_coeff == pytest.approx(state_si.c_coeff, rel=1e-12)


def test_planck_scaled_tau():
    assert BASEBALL.tau_si == pytest.approx(4.658e-33, rel=1e-3)
    oracle = BASEBALL.tau_si / PLANCK_LENGTH**2
    assert BASEBALL.tau_planck == oracle
    assert BASEBALL.tau_planck == pytest.approx(1.78e37, rel=1e-2)


def test_planck_scaled_lambda():
    assert BASEBALL.lam_si == pytest.approx(3.27e79, rel=1e-2)
    oracle = BASEBALL.lam_si * PLANCK_LENGTH**4
    assert BASEBALL.cubic.lam == pytest.approx(oracle, rel=1e-12)
    assert BASEBALL.cubic.lam == pytest.approx(2.2e-60, rel=5e-2)


def test_planck_scaled_zero_power_identity():
    # dimensionless figures of the state do not depend on the length unit
    in_meters = BASEBALL.state_si
    assert mean_excitation(in_meters) == pytest.approx(mean_excitation(BASEBALL.state), rel=1e-12)
    assert purity(in_meters) == pytest.approx(purity(BASEBALL.state), rel=1e-12)
