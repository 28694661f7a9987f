import math

import pytest

from decogauss.model import (
    AirModel,
    FreeParticle,
    ScatteringEnvironment,
    air_environment,
    big_lambda,
    lambda_coefficient,
    lambda_composite_crosscheck,
    tau_from_time,
)
from decogauss.units import HBAR, PLANCK_LENGTH

BASEBALL = FreeParticle(mass=0.1459553, radius=0.0369)
AIR = AirModel(molecular_mass=4.80965e-26, mass_density=1.2250, temperature=288.15)


def test_big_lambda_unit_inputs():
    env = ScatteringEnvironment(1.0, 1.0, 1.0, 1.0)
    assert big_lambda(env) == pytest.approx(1.0 / (8.0 * math.pi**2), rel=1e-12)


def test_big_lambda_hand_product():
    env = ScatteringEnvironment(2.0, 3.0, 5.0, 7.0)
    assert big_lambda(env) == pytest.approx(2 * 3 * 5 * 49 / (8.0 * math.pi**2), rel=1e-12)


def test_air_speed_matches_published_value():
    env = air_environment(AIR, BASEBALL)
    assert env.mean_relative_velocity == pytest.approx(498.144, rel=1e-4)


def test_air_cross_section():
    env = air_environment(AIR, BASEBALL)
    assert env.cross_section == pytest.approx(4.28e-3, rel=3e-3)
    assert env.cross_section == pytest.approx(math.pi * 0.0369**2, rel=1e-12)


def test_air_speed_vanishes_at_zero_temperature():
    cold = AirModel(molecular_mass=4.80965e-26, mass_density=1.2250, temperature=1e-20)
    env = air_environment(cold, BASEBALL)
    assert env.mean_relative_velocity < 1e-6


def test_air_environment_needs_radius():
    with pytest.raises(ValueError):
        air_environment(AIR, FreeParticle(mass=0.1))


def test_baseball_lambda_magnitude():
    env = air_environment(AIR, BASEBALL)
    lam = lambda_coefficient(big_lambda(env), BASEBALL)
    assert lam == pytest.approx(3.3e79, rel=0.15)
    assert lam * PLANCK_LENGTH**4 == pytest.approx(2.2e-60, rel=0.15)


def test_lambda_coefficient_inverts_definition():
    particle = FreeParticle(mass=0.7)
    rate = 3.0 * HBAR / (2.0 * particle.mass)
    assert lambda_coefficient(rate, particle) == pytest.approx(1.0, rel=1e-12)


def test_lambda_coefficient_zero_rate():
    assert lambda_coefficient(0.0, BASEBALL) == 0.0


def test_lambda_coefficient_rejects_negative_rate():
    with pytest.raises(ValueError):
        lambda_coefficient(-1.0, BASEBALL)


def test_tau_zero():
    assert tau_from_time(0.0, BASEBALL) == 0.0


def test_tau_baseball():
    tau = tau_from_time(6.44675, BASEBALL)
    assert tau == pytest.approx(HBAR * 6.44675 / 0.1459553, rel=1e-12)
    assert tau == pytest.approx(4.66e-33, rel=1e-2)


def test_tau_vanishes_for_large_mass():
    heavy = FreeParticle(mass=1e30)
    assert tau_from_time(1.0, heavy) < 1e-60


def test_tau_rejects_negative_time():
    with pytest.raises(ValueError):
        tau_from_time(-1e-9, BASEBALL)


@pytest.mark.parametrize("factor", [2.0, 5.0, 0.3])
def test_lambda_scaling_linear_in_density_and_cross_section(factor):
    base = ScatteringEnvironment(1.5, 2.5, 3.5, 4.5)
    lam0 = lambda_coefficient(big_lambda(base), BASEBALL)
    denser = ScatteringEnvironment(1.5 * factor, 2.5, 3.5, 4.5)
    wider = ScatteringEnvironment(1.5, 2.5 * factor, 3.5, 4.5)
    assert lambda_coefficient(big_lambda(denser), BASEBALL) == pytest.approx(factor * lam0, rel=1e-12)
    assert lambda_coefficient(big_lambda(wider), BASEBALL) == pytest.approx(factor * lam0, rel=1e-12)


def test_lambda_scaling_linear_in_mass_quadratic_in_wavenumber():
    env = ScatteringEnvironment(1.5, 2.5, 3.5, 4.5)
    lam0 = lambda_coefficient(big_lambda(env), FreeParticle(mass=1.0))
    assert lambda_coefficient(big_lambda(env), FreeParticle(mass=3.0)) == pytest.approx(
        3.0 * lam0, rel=1e-12
    )
    hotter = ScatteringEnvironment(1.5, 2.5, 3.5, 9.0)
    assert lambda_coefficient(big_lambda(hotter), FreeParticle(mass=1.0)) == pytest.approx(
        (9.0 / 4.5) ** 2 * lam0, rel=1e-12
    )


def test_composite_crosscheck_differs_by_two_pi():
    # the one-line composite is retained only as a flagged cross-check; it
    # sits a factor 2*pi below the defining chain
    env = air_environment(AIR, BASEBALL)
    chain = lambda_coefficient(big_lambda(env), BASEBALL)
    composite = lambda_composite_crosscheck(AIR, BASEBALL)
    assert chain / composite == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_composite_crosscheck_survives_an_underflow_against_an_overflow():
    # m*sigma*m_a*rho underflows to 0 while v_a^3 overflows, which read nan;
    # the reference is a 50-digit mpmath evaluation from the same float inputs
    # and constants
    composite = lambda_composite_crosscheck(AirModel(1e-50, 1.225, 1e200), FreeParticle(0.1459553, 1e-150))
    assert composite == pytest.approx(1.7156286701593398176e90, rel=1e-12)
    # a composite beyond the largest double is inf, not an OverflowError
    assert lambda_composite_crosscheck(AirModel(1e-26, 1e200, 1e300), FreeParticle(1e300, 1e100)) == math.inf


def test_invariant_violations_rejected():
    with pytest.raises(ValueError):
        FreeParticle(mass=-1.0)
    with pytest.raises(ValueError):
        FreeParticle(mass=1.0, radius=0.0)
    with pytest.raises(ValueError):
        ScatteringEnvironment(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        AirModel(molecular_mass=1e-26, mass_density=1.0, temperature=-5.0)
