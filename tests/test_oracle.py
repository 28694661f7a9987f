import math

import numpy as np
import pytest

from decogauss.evolution import (
    GaussianDensityMatrix,
    cubic_from_initial,
    evolve,
    minimum_uncertainty_initial,
    momentum_variance,
)
from decogauss.oracle import (
    DomainCoverageError,
    FitQualityError,
    GridState,
    IntegrationFailureError,
    _hermiticity_error,
    discretize,
    eigendecompose_kernel,
    extract_gaussian_coefficients,
    integrate_master_equation,
)
from decogauss.spectral import (
    eigenstate_amplitude,
    eigenstate_spec,
    eigenvalue,
    mean_excitation,
)

PURE = GaussianDensityMatrix(0.5, 0.0, 0.5)
MIXED = GaussianDensityMatrix(0.75, -0.5, 0.0625)


def spanning_grid(state, n_points=256, sigmas=8.0, extra=0.0):
    limit = sigmas * math.sqrt(1.0 / (8.0 * state.c_coeff)) + extra
    return discretize(state, -limit, limit, n_points)


# --- discretize -------------------------------------------------------------------

def test_discretize_pure_state_trace():
    grid = discretize(PURE, -8.0, 8.0, 256)
    assert grid.trace() == pytest.approx(1.0, abs=1e-8)


def test_discretize_hermitian_with_phase():
    grid = spanning_grid(MIXED)
    assert grid.hermiticity_error() < 1e-14


def test_discretize_variance_matches_weighted_variance():
    grid = spanning_grid(MIXED)
    assert grid.position_variance() == pytest.approx(1.0 / (8.0 * MIXED.c_coeff), abs=1e-6)


def test_discretize_rejects_narrow_domain():
    with pytest.raises(DomainCoverageError) as info:
        discretize(MIXED, -3.0, 3.0, 256)
    assert info.value.trace_deficit >= 0.0


def test_discretize_rejects_coarse_grid():
    with pytest.raises(ValueError):
        discretize(PURE, -8.0, 8.0, 32)


# an infinite bound makes linspace warn before the grid rejects it
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "x_min, x_max, field",
    [(math.nan, 8.0, "x_min"), (-8.0, math.inf, "x_max"), (-math.inf, 8.0, "x_min")],
)
def test_discretize_rejects_non_finite_bounds(x_min, x_max, field):
    # NaN fails every comparison and an infinite bound passes the coverage
    # check, so without the grid's own check these came back as all-NaN grids
    with pytest.raises(ValueError, match=field):
        discretize(PURE, x_min, x_max, 64)


@pytest.mark.parametrize("n", [64, 127, 128])
def test_hermiticity_error_is_the_direct_expression(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    direct = float(np.max(np.abs(values - values.conj().T)))
    assert _hermiticity_error(values) == direct
    assert GridState(-1.0, 1.0, n, values).hermiticity_error() == direct


# --- integration ------------------------------------------------------------------

def test_free_evolution_conserves_purity():
    cubic = cubic_from_initial(PURE, 0.0)
    span = 8.0 * math.sqrt(cubic.x_value(0.5))
    grid = discretize(PURE, -span, span, 160)
    evolved = integrate_master_equation(grid, 0.0, 0.5)
    assert grid.purity() == pytest.approx(1.0, abs=1e-6)
    assert evolved.purity() == pytest.approx(1.0, abs=1e-4)


def test_integration_matches_closed_form():
    lam, tau_end = 1.0, 0.3
    cubic = cubic_from_initial(minimum_uncertainty_initial(0.5), lam)
    span = 8.0 * math.sqrt(cubic.x_value(tau_end))
    grid = discretize(evolve(cubic, 0.0), -span, span, 192)
    evolved = integrate_master_equation(grid, lam, tau_end)
    fit = extract_gaussian_coefficients(evolved)
    exact = evolve(cubic, tau_end)
    assert fit.a_coeff == pytest.approx(exact.a_coeff, rel=1e-3)
    assert fit.b_coeff == pytest.approx(exact.b_coeff, rel=1e-3)
    assert fit.c_coeff == pytest.approx(exact.c_coeff, rel=1e-3)
    assert evolved.trace() == pytest.approx(1.0, abs=1e-5)
    assert evolved.hermiticity_error() < 1e-10


def test_momentum_variance_grows_linearly():
    lam = 1.0
    cubic = cubic_from_initial(minimum_uncertainty_initial(0.5), lam)
    span = 8.0 * math.sqrt(cubic.x_value(0.3))
    grid = discretize(evolve(cubic, 0.0), -span, span, 192)
    assert grid.momentum_variance() == pytest.approx(momentum_variance(cubic, 0.0), rel=1e-3)
    for tau_end in (0.15, 0.3):
        evolved = integrate_master_equation(grid, lam, tau_end)
        assert evolved.momentum_variance() == pytest.approx(
            momentum_variance(cubic, tau_end), rel=1e-3
        )


@pytest.mark.parametrize("n_points", [127, 128])
def test_momentum_variance_is_exact_on_a_resolved_grid(n_points):
    # the Fourier p^2 matrix is exact for a kernel the grid resolves, at odd
    # and even n; on this chirped state a sixth-order stencil misses by 1e-2
    grid = spanning_grid(MIXED, n_points=n_points)
    exact = 2.0 * MIXED.a_coeff + MIXED.b_coeff**2 / (2.0 * MIXED.c_coeff)
    assert grid.momentum_variance() == pytest.approx(exact, rel=1e-10)


def test_damping_only_matches_exact_decay():
    lam, tau_end = 1.0, 0.2
    grid = spanning_grid(MIXED, n_points=192)
    evolved = integrate_master_equation(grid, lam, tau_end, terms="damping")
    xs = grid.xs
    y_sq = (xs[:, None] - xs[None, :]) ** 2
    exact = grid.values * np.exp(-1.5 * lam * y_sq * tau_end)
    window = np.abs(exact) > 1e-8 * np.abs(exact).max()
    rel = np.abs(evolved.values[window] - exact[window]) / np.abs(exact[window])
    assert rel.max() < 1e-8


def test_damping_decays_off_diagonal_monotonically():
    lam = 1.0
    grid = spanning_grid(MIXED, n_points=128)
    i, j = 40, 70  # fixed y != 0
    previous = abs(grid.values[i, j])
    state = grid
    for _ in range(4):
        state = integrate_master_equation(state, lam, 0.05, terms="damping")
        current = abs(state.values[i, j])
        assert current < previous
        previous = current


def test_single_step_over_long_interval_is_stable():
    # no factor of the splitting exceeds modulus 1, so one step over the
    # whole interval stays bounded where an explicit scheme blows up
    grid = spanning_grid(MIXED, n_points=128)
    evolved = integrate_master_equation(grid, 1.0, 1.0, n_steps=1)
    assert abs(evolved.trace() - 1.0) < 1e-12
    assert evolved.hermiticity_error() < 1e-10


def test_instability_raises_with_step_index():
    grid = spanning_grid(MIXED, n_points=128)
    values = grid.values.copy()
    values[3, 5] += 0.1
    broken = GridState(grid.x_min, grid.x_max, grid.n_points, values)
    with pytest.raises(IntegrationFailureError, match="Hermiticity") as info:
        integrate_master_equation(broken, 1.0, 1.0, n_steps=1)
    assert info.value.step == 1


def test_integration_rejects_bad_arguments():
    grid = spanning_grid(MIXED, n_points=128)
    with pytest.raises(ValueError):
        integrate_master_equation(grid, -1.0, 0.1)
    with pytest.raises(ValueError):
        integrate_master_equation(grid, 1.0, -0.1)
    with pytest.raises(ValueError):
        integrate_master_equation(grid, 1.0, 0.1, terms="sideways")


@pytest.mark.parametrize("n_steps", [0, 2.0, True, "2"])
def test_integration_rejects_step_counts_that_are_not_positive_integers(n_steps):
    grid = spanning_grid(MIXED, n_points=128)
    with pytest.raises(ValueError, match="n_steps"):
        integrate_master_equation(grid, 1.0, 0.1, n_steps=n_steps)


@pytest.mark.parametrize("terms", ["full", "damping"])
@pytest.mark.parametrize("n_steps", [1, 3])
def test_integration_leaves_the_input_grid_untouched(terms, n_steps):
    # the integrator transforms its own copy in place
    grid = spanning_grid(MIXED, n_points=128)
    before = grid.values.tobytes()
    integrate_master_equation(grid, 1.0, 0.2, n_steps=n_steps, terms=terms)
    assert grid.values.tobytes() == before


def _convergence_problem(sigmas=8.0):
    lam, tau_end = 0.8, 0.4
    cubic = cubic_from_initial(minimum_uncertainty_initial(0.6), lam)
    span = sigmas * math.sqrt(max(cubic.x_value(0.0), cubic.x_value(tau_end)))
    grid = discretize(evolve(cubic, 0.0), -span, span, 96)
    return grid, lam, tau_end, evolve(cubic, tau_end)


def test_result_does_not_depend_on_step_count():
    # Strang's error on this equation is exactly exp(-(lam/2) h^3 d_z^2) per
    # step, which the integrator removes, so one step is as good as sixteen
    grid, lam, tau_end, exact = _convergence_problem()
    for n_steps in (1, 2, 4, 8, 16):
        evolved = integrate_master_equation(grid, lam, tau_end, n_steps=n_steps)
        fit = extract_gaussian_coefficients(evolved)
        assert abs(fit.a_coeff - exact.a_coeff) <= 1e-13 * exact.a_coeff
        assert abs(fit.b_coeff - exact.b_coeff) <= 1e-13 * abs(exact.b_coeff)
        assert abs(fit.c_coeff - exact.c_coeff) <= 1e-13 * exact.c_coeff


def test_two_half_intervals_equal_one_interval():
    # Pins the correction coefficient without the closed form: a wrong one
    # leaves an error of order tau h^2, so one call over tau and two calls
    # over tau/2 differ.  The domain is 10 standard deviations wide: at 8 the
    # diagonal tail reaches the periodic edge at exp(-32) of the peak, and
    # the wrap alone moves the kernel by ~4e-13 of it.
    grid, lam, tau_end, _ = _convergence_problem(sigmas=10.0)
    once = integrate_master_equation(grid, lam, tau_end).values
    halves = integrate_master_equation(
        integrate_master_equation(grid, lam, 0.5 * tau_end), lam, 0.5 * tau_end
    ).values
    assert np.max(np.abs(once - halves)) <= 1e-13 * np.max(np.abs(once))


# --- extraction -------------------------------------------------------------------

def test_extract_round_trip():
    grid = spanning_grid(MIXED)
    fit = extract_gaussian_coefficients(grid)
    assert fit.a_coeff == pytest.approx(MIXED.a_coeff, rel=1e-10)
    assert fit.b_coeff == pytest.approx(MIXED.b_coeff, rel=1e-10)
    assert fit.c_coeff == pytest.approx(MIXED.c_coeff, rel=1e-10)
    assert fit.residual < 1e-10


def test_extract_rejects_non_gaussian():
    # sum of two displaced Gaussians is not log-quadratic
    left = GaussianDensityMatrix(0.6, 0.0, 0.4)
    xs = np.linspace(-10, 10, 256)
    values = 0.5 * left.kernel(xs[:, None] - 2.5, xs[None, :] - 2.5)
    values = values + 0.5 * left.kernel(xs[:, None] + 2.5, xs[None, :] + 2.5)
    grid = GridState(-10.0, 10.0, 256, values)
    with pytest.raises(FitQualityError) as info:
        extract_gaussian_coefficients(grid)
    assert info.value.residual > 1e-2


# --- eigendecomposition -----------------------------------------------------------

def test_eigendecompose_pure_state_is_rank_one():
    grid = discretize(PURE, -8.0, 8.0, 256)
    eigvals, _ = eigendecompose_kernel(grid, 6)
    assert eigvals[0] == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.abs(eigvals[1:]) < 1e-6)


def test_eigendecompose_matches_geometric_ladder():
    grid = spanning_grid(MIXED)
    eigvals, eigvecs = eigendecompose_kernel(grid, 8)
    n_mean = mean_excitation(MIXED)
    for n in range(6):
        assert eigvals[n] == pytest.approx(eigenvalue(n_mean, n), rel=1e-4)
    assert np.all(eigvals > -1e-8)
    xs = grid.xs
    for n in range(4):
        phi = eigenstate_amplitude(eigenstate_spec(MIXED, n), xs)
        overlap = abs(np.vdot(eigvecs[:, n], phi)) ** 2 * grid.spacing
        assert overlap >= 0.999


def test_eigendecompose_rejects_bad_count():
    grid = spanning_grid(MIXED, n_points=128)
    with pytest.raises(ValueError):
        eigendecompose_kernel(grid, 0)
    with pytest.raises(ValueError):
        eigendecompose_kernel(grid, 64)


def test_eigendecompose_rejects_non_hermitian():
    grid = spanning_grid(MIXED, n_points=128)
    values = grid.values.copy()
    values[3, 5] += 0.1
    broken = GridState(grid.x_min, grid.x_max, grid.n_points, values)
    with pytest.raises(ValueError):
        eigendecompose_kernel(broken, 4)
