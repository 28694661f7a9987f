"""Acceptance suite: every golden number of the macroscopic preset at its
stated tolerance, plus the property-based criteria that validate the
formula layer against the independent grid and quadrature oracles.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import math

import numpy as np
import pytest

from decogauss.averaging import phase_average
from decogauss.evolution import (
    GaussianDensityMatrix,
    cubic_from_initial,
    evolve,
    momentum_variance,
    position_variance,
    purity,
)
from decogauss.observation import ObservationOperator, measure
from decogauss.oracle import (
    discretize,
    eigendecompose_kernel,
    extract_gaussian_coefficients,
    integrate_master_equation,
)
from decogauss.scenarios import baseball_scenario, run
from decogauss.spectral import (
    eigenstate_amplitude,
    eigenstate_spec,
    eigenvalue,
    mean_excitation,
    von_neumann_entropy,
)
from _quad import quad_measure, quad_trace


def check(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def within_factor(value, reference, factor=2.0):
    ratio = value / reference
    return (1.0 / factor) <= ratio <= factor


@pytest.fixture(scope="module")
def report():
    return run(baseball_scenario(), samples=4)


@pytest.fixture(scope="module")
def rows(report):
    return {row.name: row.value for row in report.scalars}


def test_criterion_01_planck_momentum(rows):
    value = rows["momentum_kg_m_s"]
    check(
        "criterion 1",
        abs(value - 6.524785) <= 1e-4 * 6.524785,
        f"m_b*v_b = {value:.7f} kg m/s vs 6.524785 within 0.01%",
    )


def test_criterion_02_kinematics_and_air(rows):
    ok_t = abs(rows["flight_time_s"] - 6.44675) <= 1e-5
    ok_v = abs(rows["air_speed_m_s"] - 498.144) <= 1e-4 * 498.144
    ok_s = abs(rows["cross_section_m2"] - 4.28e-3) <= 3e-3 * 4.28e-3
    check(
        "criterion 2",
        ok_t and ok_v and ok_s,
        f"t_b = {rows['flight_time_s']:.6f} s, v_a = {rows['air_speed_m_s']:.3f} m/s, "
        f"sigma_b = {rows['cross_section_m2']:.4e} m^2",
    )


def test_criterion_03_tau(rows):
    ok_si = within_factor(rows["tau_m2"], 5e-33)
    ok_pl = within_factor(rows["tau_planck"], 2e37)
    ok_consistency = rows["tau_consistency_rel"] <= 1e-9
    check(
        "criterion 3",
        ok_si and ok_pl and ok_consistency,
        f"tau = {rows['tau_m2']:.3e} m^2 = {rows['tau_planck']:.3e} l_Pl^2, "
        f"two-route agreement {rows['tau_consistency_rel']:.1e}",
    )


def test_criterion_04_lambda(rows):
    ok_si = within_factor(rows["lambda_per_m4"], 3e79)
    ok_pl = within_factor(rows["lambda_planck"], 2e-60)
    check(
        "criterion 4",
        ok_si and ok_pl,
        f"lambda = {rows['lambda_per_m4']:.3e} 1/m^4 = {rows['lambda_planck']:.3e} 1/l_Pl^4",
    )


def test_criterion_05_evolved_coefficients(rows):
    ok_a = within_factor(rows["coeff_A_planck"], 2e-23)
    ok_b = within_factor(rows["coeff_B_planck"], -3e-38)
    ok_c = within_factor(rows["coeff_C_planck"], 4e-76)
    check(
        "criterion 5",
        ok_a and ok_b and ok_c,
        f"A = {rows['coeff_A_planck']:.3e}, B = {rows['coeff_B_planck']:.3e}, "
        f"C = {rows['coeff_C_planck']:.3e} (Planck units)",
    )


def test_criterion_06_position_spread(rows):
    ok_dx = abs(rows["position_spread_m"] - 288.0) <= 1e-2 * 288.0
    ok_consistency = rows["weighted_variance_consistency_rel"] <= 1e-12
    check(
        "criterion 6",
        ok_dx and ok_consistency,
        f"dx(t_b) = {rows['position_spread_m']:.2f} m, 1/(8C) vs X agreement "
        f"{rows['weighted_variance_consistency_rel']:.1e}",
    )


def test_criterion_07_momentum_shift(rows):
    value = rows["momentum_variance_shift"]
    check(
        "criterion 7",
        within_factor(value, 1e-22),
        f"3*lambda*tau = {value:.3e} (fractional momentum-variance shift)",
    )


def test_criterion_08_spectral_summary(rows):
    ok_n = abs(rows["mean_excitation"] - 1.12538e26) <= 5e-3 * 1.12538e26
    ok_s = abs(rows["entropy_nats"] - 61.0) <= 0.5
    ok_p = within_factor(rows["p0"], 1e-26)
    check(
        "criterion 8",
        ok_n and ok_s and ok_p,
        f"N = {rows['mean_excitation']:.6e}, S = {rows['entropy_nats']:.3f} nats, "
        f"p0 = {rows['p0']:.3e}",
    )


def test_criterion_09_ground_state_variance(rows):
    value = rows["ground_state_variance_m2"]
    check(
        "criterion 9",
        within_factor(value, (2e-11) ** 2),
        f"ground eigenstate variance = {value:.3e} m^2 vs (2e-11 m)^2",
    )


def test_criterion_10_period_and_averaging_time(rows):
    ok_period = abs(rows["oscillator_period_years"] - 2.0e5) <= 0.15 * 2.0e5
    ok_avg = within_factor(rows["averaging_time_s"], 5e-36)
    check(
        "criterion 10",
        ok_period and ok_avg,
        f"period = {rows['oscillator_period_years']:.3e} yr, "
        f"averaging time = {rows['averaging_time_s']:.3e} s",
    )


def test_criterion_11_averaged_state(rows, report):
    ok_c = abs(rows["averaged_C_per_m2"] - 1.50501e-6) <= 5e-3 * 1.50501e-6
    ok_sig = abs(rows["averaged_A_significand"] - 7.62419) <= 5e-3 * 7.62419
    ledger = [entry for entry in report.discrepancies if "averaged A" in entry.description]
    check(
        "criterion 11",
        ok_c and ok_sig and len(ledger) == 1,
        f"averaged C = {rows['averaged_C_per_m2']:.6e} 1/m^2, averaged A significand "
        f"= {rows['averaged_A_significand']:.5f}, exponent discrepancy in ledger",
    )


@pytest.fixture(scope="module")
def criterion_12_disagreement():
    """Worst fitted-coefficient and momentum-variance disagreements between
    the grid oracle and the closed form over twelve seeded chirped sets."""
    rng = np.random.default_rng(1985)
    worst_coeff = 0.0
    worst_momentum = 0.0
    for _ in range(12):
        c0 = rng.uniform(0.15, 0.6)
        ratio = rng.uniform(1.0, 5.0)
        b0 = rng.uniform(-0.8, 0.8)
        lam = rng.uniform(0.2, 1.2)
        tau_end = rng.uniform(0.12, 0.22)
        state0 = GaussianDensityMatrix(ratio * c0, b0, c0)
        cubic = cubic_from_initial(state0, lam)
        span = 8.0 * math.sqrt(max(cubic.x_value(0.0), cubic.x_value(tau_end))) + 0.5
        grid = discretize(state0, -span, span, 192)
        evolved = integrate_master_equation(grid, lam, tau_end)
        fit = extract_gaussian_coefficients(evolved)
        exact = evolve(cubic, tau_end)
        worst_coeff = max(
            worst_coeff,
            abs(fit.a_coeff - exact.a_coeff) / exact.a_coeff,
            abs(fit.b_coeff - exact.b_coeff) / max(abs(exact.b_coeff), 1e-6),
            abs(fit.c_coeff - exact.c_coeff) / exact.c_coeff,
        )
        worst_momentum = max(
            worst_momentum,
            abs(evolved.momentum_variance() - momentum_variance(cubic, tau_end))
            / momentum_variance(cubic, tau_end),
        )
    return worst_coeff, worst_momentum


def test_criterion_12_grid_oracle_equivalence(criterion_12_disagreement):
    worst_coeff, worst_momentum = criterion_12_disagreement
    check(
        "criterion 12",
        worst_coeff <= 1e-3 and worst_momentum <= 1e-3,
        f"12 parameter sets: worst coefficient disagreement {worst_coeff:.2e}, "
        f"worst momentum-variance disagreement {worst_momentum:.2e}",
    )


def test_criterion_12_grid_oracle_is_exact(criterion_12_disagreement):
    # the integrator removes its splitting error exactly and the momentum
    # variance is a spectral sum, so at criterion 12's sets both sit near
    # rounding, far inside the 1e-3 gate
    worst_coeff, worst_momentum = criterion_12_disagreement
    assert worst_coeff <= 1e-12
    assert worst_momentum <= 1e-10


def test_criterion_13_spectral_oracle():
    states = [
        GaussianDensityMatrix(0.75, -0.5, 0.0625),
        GaussianDensityMatrix(1.3, 0.4, 0.5),
        GaussianDensityMatrix(2.2, 0.0, 1.1),
    ]
    worst_eig = 0.0
    worst_overlap = 1.0
    for state in states:
        span = 8.0 * math.sqrt(1.0 / (8.0 * state.c_coeff)) + 2.0
        grid = discretize(state, -span, span, 384)
        eigvals, eigvecs = eigendecompose_kernel(grid, 8)
        n_mean = mean_excitation(state)
        for n in range(6):
            want = eigenvalue(n_mean, n)
            worst_eig = max(worst_eig, abs(eigvals[n] - want) / want)
            phi = eigenstate_amplitude(eigenstate_spec(state, n), grid.xs)
            overlap = abs(np.vdot(eigvecs[:, n], phi)) ** 2 * grid.spacing
            worst_overlap = min(worst_overlap, overlap)
    check(
        "criterion 13",
        worst_eig <= 1e-4 and worst_overlap >= 0.999,
        f"3 parameter sets, n <= 5: worst eigenvalue error {worst_eig:.2e}, "
        f"worst eigenvector overlap {worst_overlap:.6f}",
    )


def test_criterion_14_invariant_suite():
    rng = np.random.default_rng(61)
    cases = 1000
    worst_trace = 0.0
    worst_semigroup = 0.0
    min_uncertainty = math.inf
    for _ in range(cases):
        c0 = 10.0 ** rng.uniform(-2.0, 2.0)
        ratio = 10.0 ** rng.uniform(0.0, 3.0)
        b0 = rng.uniform(-20.0, 20.0)
        lam = rng.uniform(0.0, 5.0)
        tau1 = rng.uniform(0.0, 5.0)
        tau2 = rng.uniform(0.0, 5.0)
        state = GaussianDensityMatrix(ratio * c0, b0, c0)
        worst_trace = max(worst_trace, abs(quad_trace(state, n=801) - 1.0))

        cubic = cubic_from_initial(state, lam)
        evolved = evolve(cubic, tau1)
        assert evolved.a_coeff >= evolved.c_coeff * (1.0 - 1e-12)
        min_uncertainty = min(
            min_uncertainty,
            position_variance(cubic, tau1) * momentum_variance(cubic, tau1),
        )

        restarted = evolve(cubic_from_initial(evolved, lam), tau2)
        direct = evolve(cubic, tau1 + tau2)
        got = np.array([restarted.a_coeff, restarted.b_coeff, restarted.c_coeff])
        want = np.array([direct.a_coeff, direct.b_coeff, direct.c_coeff])
        scale = np.abs(want).max()
        worst_semigroup = max(worst_semigroup, float(np.max(np.abs(got - want) / scale)))

        averaged = phase_average(evolved)
        assert phase_average(averaged) == averaged
        assert mean_excitation(averaged) == mean_excitation(evolved)
        assert von_neumann_entropy(mean_excitation(averaged)) == von_neumann_entropy(
            mean_excitation(evolved)
        )
        assert purity(averaged) == purity(evolved)
        assert averaged.c_coeff == evolved.c_coeff  # weighted variance 1/(8C)

    check(
        "criterion 14",
        worst_trace <= 1e-6 and min_uncertainty >= 0.25 * (1.0 - 1e-12) and worst_semigroup <= 1e-9,
        f"{cases} cases: worst trace deviation {worst_trace:.1e}, minimum uncertainty "
        f"product {min_uncertainty:.6f}, worst semigroup mismatch {worst_semigroup:.1e}",
    )


def test_criterion_15_observation_measures():
    rng = np.random.default_rng(52)
    worst = 0.0
    for _ in range(20):
        c0 = rng.uniform(0.05, 1.0)
        ratio = rng.uniform(1.0, 10.0)
        b0 = rng.uniform(-1.5, 1.5)
        state = GaussianDensityMatrix(ratio * c0, b0, c0)
        op = ObservationOperator(
            center=rng.uniform(-2.5, 2.5),
            alpha=rng.uniform(0.0, 2.5),
            gamma=rng.uniform(0.1, 3.0),
        )
        closed = measure(op, state)
        reference = quad_measure(op, state)
        worst = max(worst, abs(closed - reference) / reference)

        mirrored = measure(ObservationOperator(-op.center, op.alpha, op.gamma), state)
        flipped = measure(op, GaussianDensityMatrix(state.a_coeff, -b0, c0))
        assert abs(mirrored - closed) <= 1e-10 * closed
        assert abs(flipped - closed) <= 1e-10 * closed
    check(
        "criterion 15",
        worst <= 1e-8,
        f"20 random (state, operator) pairs: worst quadrature disagreement {worst:.2e}; "
        "parity and B -> -B symmetry exact",
    )


def test_criterion_16_entropy_consistency():
    worst = 0.0
    for n_mean in (0.1, 1.0, 10.0, 100.0):
        total = 0.0
        mass = 0.0
        n = 0
        while mass < 1.0 - 1e-12:
            p = eigenvalue(n_mean, n)
            if p > 0.0:
                total -= p * math.log(p)
            mass += p
            n += 1
        worst = max(worst, abs(total - von_neumann_entropy(n_mean)))
    check(
        "criterion 16",
        worst <= 1e-8,
        f"N in (0.1, 1, 10, 100): worst ladder-sum entropy deviation {worst:.1e} nats",
    )
