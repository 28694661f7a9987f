import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import SUBPROCESS_ENV
from decogauss.evolution import (
    GaussianDensityMatrix,
    cubic_from_initial,
    evolve,
    minimum_uncertainty_initial,
    momentum_variance,
)
from decogauss.oracle import (
    FIT_WINDOW_FLOOR,
    GridState,
    _ROW_BLOCK,
    _hermiticity_error,
    _peak,
    _reflection_error,
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
    assert _hermiticity_error(grid.values) < 1e-14


def test_discretize_rejects_narrow_domain():
    sigma = math.sqrt(1.0 / (8.0 * MIXED.c_coeff))
    with pytest.raises(ValueError) as info:
        discretize(MIXED, -3.0, 3.0, 256)
    prefix = f"domain [-3.0, 3.0] covers less than 8 standard deviations ({sigma:.4g}); trace deficit "
    assert str(info.value).startswith(prefix)
    assert float(str(info.value)[len(prefix):]) >= 0.0


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


GUARD_SIZES = [1, 2, 63, 64, 65, 127, 128, 200, 513]


@pytest.mark.parametrize("n", GUARD_SIZES)
def test_hermiticity_error_is_the_direct_expression(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    direct = float(np.max(np.abs(values - values.conj().T)))
    assert _hermiticity_error(values) == direct


@pytest.mark.parametrize("n", GUARD_SIZES)
def test_peak_and_reflection_guards_are_the_direct_expressions(n):
    # the guards reduce over blocks of rows; each must equal its one
    # expression over the whole grid, at sizes on and off the block size
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    # the peak's location is its first occurrence in row-major order, here
    # with a copy of the peak placed in the last row of the last block
    row, col = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    values[-1, -1] = values[row, col]
    assert _peak(values) == (float(np.max(np.abs(values))), int(row), int(col))
    assert _reflection_error(values) == float(np.max(np.abs(values - values[::-1, ::-1])))


# --- the in-place stages against their whole-grid forms ---------------------------

def _one_expression_kernel(state, x, xp):
    x, xp = np.asarray(x, dtype=float), np.asarray(xp, dtype=float)
    y, z = x - xp, x + xp
    real = state.a_coeff * y * y + state.c_coeff * z * z
    phase = np.exp(-1j * state.b_coeff * x * x) * np.exp(1j * state.b_coeff * xp * xp)
    return state.norm * np.exp(-real) * phase


@pytest.mark.parametrize("state", [PURE, MIXED, GaussianDensityMatrix(1.3, 0.4, 0.5)])
def test_kernel_is_the_one_expression_form(state):
    xs = np.linspace(-9.0, 11.0, 301)
    scalars = [tuple(map(float, pair)) for pair in np.random.default_rng(5).uniform(-6.0, 6.0, (40, 2))]
    cases = [(xs[:, None], xs[None, :]), (xs, xs[::-1]), (xs[:, None], 0.5), (xs, -2), *scalars]
    for x, xp in cases:
        got, want = state.kernel(x, xp), _one_expression_kernel(state, x, xp)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n_points", [64, 127, 512])
def test_discretize_is_the_one_expression_kernel(n_points):
    grid = spanning_grid(MIXED, n_points=n_points)
    assert np.array_equal(grid.values, _one_expression_kernel(MIXED, grid.xs[:, None], grid.xs[None, :]))


def _whole_grid_integration(grid, lam, h):
    # the corrected Strang step with every factor built as an n x n temporary
    xs = grid.xs
    damp = np.exp(-1.5 * lam * h * (xs[:, None] - xs[None, :]) ** 2)
    k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)
    phase_k = np.exp(0.25j * h * k * k)
    half = phase_k.conj()[:, None] * phase_k[None, :]
    corrected = half * np.exp(-0.125 * lam * h**3 * (k[:, None] + k[None, :]) ** 2)
    rho = np.fft.ifftn(np.fft.fftn(grid.values) * corrected) * damp
    return np.fft.ifftn(np.fft.fftn(rho) * half)


def _whole_grid_fit(grid):
    # the fit with its window masked out of n x n arrays of y, z and rewrap
    v, xs = grid.values, grid.xs
    mags = np.abs(v)
    peak = float(mags.max())
    mask = mags >= FIT_WINDOW_FLOOR * peak
    y = (xs[:, None] - xs[None, :])[mask]
    z = (xs[:, None] + xs[None, :])[mask]
    w = mags[mask] / peak
    data_r = -np.log(mags[mask])
    design = np.empty((3, len(y)))
    design[0], design[1], design[2] = y * y, z * z, 1.0
    scale = design.max(axis=1)
    design = design * w / scale[:, None]
    coeffs = np.linalg.lstsq(design.T, w * data_r, rcond=None)[0] / scale
    a_fit, c_fit, d_fit = map(float, coeffs)
    ic, jc = np.unravel_index(int(np.argmax(mags)), mags.shape)
    up, left, right, down = np.angle(v[[ic + 1, ic, ic, ic - 1], [jc, jc - 1, jc + 1, jc]])
    b_seed = -(up - left - right + down) / (4.0 * grid.spacing**2)
    seed_phase = np.exp(1j * b_seed * xs * xs)
    yz = y * z
    unwrapped = -b_seed * yz + np.angle(v[mask] * (seed_phase[:, None] * seed_phase.conj()[None, :])[mask])
    weight_sq = w * w
    b_fit = float(np.sum(weight_sq * yz * (-unwrapped)) / float(np.sum((w * yz) ** 2)))
    real_misfit = a_fit * y * y + c_fit * z * z + d_fit - data_r
    imag_misfit = b_fit * yz + unwrapped
    residual = math.sqrt(
        float(np.sum(weight_sq * (real_misfit**2 + imag_misfit**2)) / np.sum(weight_sq))
    )
    return a_fit, b_fit, c_fit, residual


def _whole_grid_momentum_variance(grid):
    # the wrapped diagonals summed over one n x 2n copy of the grid
    n, h = grid.n_points, grid.spacing
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
    flat = np.concatenate([grid.values.real] * 2, axis=1).ravel()
    wrapped = sliding_window_view(flat, n)[:: 2 * n + 1]
    return float(h * ((k * k) @ np.fft.fft(wrapped.sum(axis=0)).real) / n)


@pytest.mark.parametrize("n_points", [160, 193, 256])
def test_integrate_fit_and_momentum_variance_are_the_whole_grid_forms(n_points):
    # bit for bit: the in-place factors and the blockwise diagonal sums keep
    # every operation and its order.  The fit solves by a blockwise QR, not
    # lstsq's SVD, so it meets the whole-grid lstsq fit to rounding: on these
    # 66 grids A to 2.2e-14, C to 5.6e-15, B to 3.8e-16 of max(|B|, C) and the
    # residual to 6.7e-14, absolute
    for cubic, tau in _oracle_check_and_chirped_cubics():
        span = 8.0 * math.sqrt(max(cubic.x_value(0.0), cubic.x_value(tau))) + 0.5
        grid = discretize(evolve(cubic, 0.0), -span, span, n_points)
        evolved = integrate_master_equation(grid, cubic.lam, tau)
        assert np.array_equal(evolved.values, _whole_grid_integration(grid, cubic.lam, tau))
        for g in (grid, evolved):
            fit = extract_gaussian_coefficients(g)
            a_ref, b_ref, c_ref, residual_ref = _whole_grid_fit(g)
            assert abs(fit.a_coeff - a_ref) <= 1e-13 * a_ref
            assert abs(fit.b_coeff - b_ref) <= 1e-13 * max(abs(b_ref), c_ref)
            assert abs(fit.c_coeff - c_ref) <= 1e-13 * c_ref
            assert abs(fit.residual - residual_ref) <= 1e-12
            assert g.momentum_variance() == _whole_grid_momentum_variance(g)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stages_stay_within_their_memory_budget():
    # a grid_spectrum state at n = 512 (A/C about 2.6, a third of the grid in
    # the fit window); peaks count the 4 MB grid.  With n x n temporaries the
    # stages peaked at 4.0, 2.5, 3.8 and 2.0 grids; the fit that gathered its
    # whole window for lstsq peaked at 2.6.
    state = GaussianDensityMatrix(1.24, 0.2, 0.475)
    span = 8.0 * math.sqrt(1.0 / (8.0 * state.c_coeff)) + 2.0
    grid, peak = _traced_peak(lambda: discretize(state, -span, span, 512))
    size = grid.values.nbytes
    assert peak <= 2.0 * size
    for call, budget in [
        (lambda: eigendecompose_kernel(grid, 12), 2.0),
        (lambda: extract_gaussian_coefficients(grid), 2.0),
        (grid.momentum_variance, 1.5),
    ]:
        _, peak = _traced_peak(call)
        assert size + peak <= budget * size


# --- integration ------------------------------------------------------------------

def test_free_evolution_conserves_purity():
    cubic = cubic_from_initial(PURE, 0.0)
    span = 8.0 * math.sqrt(cubic.x_value(0.5))
    grid = discretize(PURE, -span, span, 160)
    evolved = integrate_master_equation(grid, 0.0, 0.5)
    # a Gaussian kernel's purity is sqrt(C/A), so a pure state keeps A = C
    fit = extract_gaussian_coefficients(evolved)
    assert abs(fit.a_coeff - fit.c_coeff) <= 1e-12 * fit.c_coeff


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
    assert _hermiticity_error(evolved.values) < 1e-10


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


def _oracle_check_and_chirped_cubics():
    # oracle-check's 8 seeded pure starts, then 3 of criterion 12's chirped mixed ones
    rng = np.random.default_rng(20210830)
    for _ in range(8):
        dx0_sq, lam, tau = rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.2), rng.uniform(0.15, 0.25)
        yield cubic_from_initial(minimum_uncertainty_initial(dx0_sq), lam), tau
    rng = np.random.default_rng(1985)
    for _ in range(3):
        c0, ratio, b0 = rng.uniform(0.15, 0.6), rng.uniform(1.0, 5.0), rng.uniform(-0.8, 0.8)
        lam, tau = rng.uniform(0.2, 1.2), rng.uniform(0.12, 0.22)
        yield cubic_from_initial(GaussianDensityMatrix(ratio * c0, b0, c0), lam), tau


@pytest.mark.parametrize("n_points", [160, 192, 193, 256, 257])
def test_momentum_variance_rounds_below_1e_11(n_points):
    # the closed-form kernel at tau, sampled and summed: the spectral sum keeps
    # the whole error at rounding level, at odd and even n
    worst = 0.0
    for cubic, tau in _oracle_check_and_chirped_cubics():
        span = 8.0 * math.sqrt(max(cubic.x_value(0.0), cubic.x_value(tau))) + 0.5
        grid = discretize(evolve(cubic, tau), -span, span, n_points)
        exact = momentum_variance(cubic, tau)
        worst = max(worst, abs(grid.momentum_variance() - exact) / exact)
    assert worst <= 1e-11


def test_single_step_over_long_interval_is_stable():
    # no factor of the splitting exceeds modulus 1, so one step over the
    # whole interval stays bounded where an explicit scheme blows up
    grid = spanning_grid(MIXED, n_points=128)
    evolved = integrate_master_equation(grid, 1.0, 1.0)
    assert abs(evolved.trace() - 1.0) < 1e-12
    assert _hermiticity_error(evolved.values) < 1e-10


def test_integration_follows_a_focusing_state_through_its_focus():
    # B > 0 focuses: X(tau) falls from 2 to its minimum at tau_focus and is
    # back at 2.0012 by tau = 2 tau_focus, while the kernel's peak grows by
    # about sqrt(C_focus / C0) ~ 11 on the way; a sup-norm guard read that
    # growth as an instability
    lam, tau_end = 0.3, 0.247955
    state = GaussianDensityMatrix(0.5, 4.0, 0.0625)
    evolved = integrate_master_equation(discretize(state, -12.0, 12.0, 625), lam, tau_end)
    fit = extract_gaussian_coefficients(evolved)
    exact = evolve(cubic_from_initial(state, lam), tau_end)
    assert abs(fit.a_coeff - exact.a_coeff) <= 1e-12 * exact.a_coeff
    assert abs(fit.b_coeff - exact.b_coeff) <= 1e-12 * max(abs(exact.b_coeff), exact.c_coeff)
    assert abs(fit.c_coeff - exact.c_coeff) <= 1e-12 * exact.c_coeff


def test_integration_rejects_a_grid_that_leaves_the_doubles_mid_step():
    # a finite grid whose transform overflows: the Hermiticity guard, which
    # NaN fails, stops it after the damping
    grid = spanning_grid(MIXED, n_points=128)
    huge = GridState(grid.x_min, grid.x_max, grid.values * 1e306)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^Hermiticity drifted to nan$"):
            integrate_master_equation(huge, 1.0, 0.2)


def test_integration_raises_on_hermiticity_drift():
    grid = spanning_grid(MIXED, n_points=128)
    values = grid.values.copy()
    values[3, 5] += 0.1
    broken = GridState(grid.x_min, grid.x_max, values)
    with pytest.raises(ValueError, match=r"^Hermiticity drifted to \d\.\d{3}e[-+]\d+$"):
        integrate_master_equation(broken, 1.0, 1.0)


def test_integration_rejects_bad_arguments():
    grid = spanning_grid(MIXED, n_points=128)
    with pytest.raises(ValueError):
        integrate_master_equation(grid, -1.0, 0.1)
    with pytest.raises(ValueError):
        integrate_master_equation(grid, 1.0, -0.1)


@pytest.mark.parametrize("path", ["full", "damping"])
@pytest.mark.parametrize("n_calls", [1, 3])
def test_integration_leaves_the_input_grid_untouched(path, n_calls):
    # the integrator transforms its own copy in place, both when the step
    # runs through ("full") and when its guard stops it after the damping
    grid = spanning_grid(MIXED, n_points=128)
    if path == "damping":
        values = grid.values.copy()
        values[3, 5] += 0.1
        grid = GridState(grid.x_min, grid.x_max, values)
    before = grid.values.tobytes()
    results = []
    for _ in range(n_calls):
        if path == "full":
            results.append(integrate_master_equation(grid, 1.0, 0.2).values.tobytes())
        else:
            with pytest.raises(ValueError, match=r"^Hermiticity drifted to \d\.\d{3}e[-+]\d+$"):
                integrate_master_equation(grid, 1.0, 0.2)
    assert grid.values.tobytes() == before
    assert len(set(results)) <= 1


def _convergence_problem(sigmas=8.0):
    lam, tau_end = 0.8, 0.4
    cubic = cubic_from_initial(minimum_uncertainty_initial(0.6), lam)
    span = sigmas * math.sqrt(max(cubic.x_value(0.0), cubic.x_value(tau_end)))
    grid = discretize(evolve(cubic, 0.0), -span, span, 96)
    return grid, lam, tau_end, evolve(cubic, tau_end)


def test_one_corrected_step_meets_the_closed_form():
    # Strang's error on this equation is exactly exp(-(lam/2) h^3 d_z^2),
    # which the integrator removes, so its one step meets the closed form
    grid, lam, tau_end, exact = _convergence_problem()
    fit = extract_gaussian_coefficients(integrate_master_equation(grid, lam, tau_end))
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


def _explicit_residual(grid, fit):
    # sqrt(sum w^2 |misfit|^2 / sum w^2) over the window, with D from its own
    # normal equation: the weighted mean of -ln|v| - A y^2 - C z^2
    v, xs = grid.values, grid.xs
    mags = np.abs(v)
    mask = mags >= FIT_WINDOW_FLOOR * mags.max()
    y = (xs[:, None] - xs[None, :])[mask]
    z = (xs[:, None] + xs[None, :])[mask]
    weight_sq = (mags[mask] / mags.max()) ** 2
    real_misfit = fit.a_coeff * y * y + fit.c_coeff * z * z + np.log(mags[mask])
    real_misfit -= np.sum(weight_sq * real_misfit) / np.sum(weight_sq)
    imag_misfit = np.angle(v[mask] * np.exp(1j * fit.b_coeff * y * z))
    return math.sqrt(np.sum(weight_sq * (real_misfit**2 + imag_misfit**2)) / np.sum(weight_sq))


def test_fit_streams_a_window_across_row_blocks():
    # at n = 384 this chirped state's window runs from row 23 to row 360, over
    # all six row blocks, and the peak (row 191) lies in a later block than
    # the first window row.  The stencil at the first block's largest point
    # straddles a phase wrap (it reads B = 451), so the seed must come from
    # the grid's own first peak, found across the blocks
    chirped = GaussianDensityMatrix(0.75, 1.0, 0.0625)
    grid = spanning_grid(chirped, n_points=384)
    row_peaks = np.abs(grid.values).max(axis=1)
    blocks = np.flatnonzero(row_peaks >= FIT_WINDOW_FLOOR * row_peaks.max()) // _ROW_BLOCK
    assert blocks[-1] - blocks[0] >= 2 and np.argmax(row_peaks) // _ROW_BLOCK > blocks[0]
    fit = extract_gaussian_coefficients(grid)
    assert abs(fit.a_coeff - chirped.a_coeff) <= 1e-12 * chirped.a_coeff
    assert abs(fit.b_coeff - chirped.b_coeff) <= 1e-12 * max(abs(chirped.b_coeff), chirped.c_coeff)
    assert abs(fit.c_coeff - chirped.c_coeff) <= 1e-12 * chirped.c_coeff
    assert abs(fit.residual - _explicit_residual(grid, fit)) <= 1e-12
    # a non-Gaussian bump lifts the residual far above rounding, where the
    # factors' last diagonal entries must still give it
    xs = grid.xs
    bump = np.exp(1e-3 * (1.0 + 0.5j) * np.cos(xs[:, None]) * np.cos(xs[None, :]))
    bumped = GridState(grid.x_min, grid.x_max, grid.values * bump)
    fit = extract_gaussian_coefficients(bumped)
    assert fit.residual > 1e-4
    assert abs(fit.residual - _explicit_residual(bumped, fit)) <= 1e-12


@pytest.mark.parametrize(
    "points",
    [[(64, 64)], [(70, 40)], [(90, 90), (20, 107)], [(10, 10), (60, 67)]],
    ids=["peak", "hermitian-pair", "peak-and-antidiagonal-pair", "off-centre-peak-and-antidiagonal-pair"],
)
def test_fit_rejects_a_window_that_does_not_determine_a_c_and_d(points):
    # fewer than three distinct (y^2, z^2) rows: a point (i, j) and its
    # mirror (j, i) share one, and so does an antidiagonal pair (i, n-1-i),
    # whose z is 0 to rounding; lstsq returned a minimum-norm answer here
    values = np.zeros((128, 128), dtype=complex)
    for k, (i, j) in enumerate(points):
        values[i, j] = values[j, i] = 0.5**k
    with pytest.raises(ValueError, match=r"^the fit window does not determine A, C and D$"):
        extract_gaussian_coefficients(GridState(-5.0, 5.0, values))


def test_fit_rejects_an_identically_zero_kernel():
    with pytest.raises(ValueError, match=r"^kernel is identically zero$"):
        extract_gaussian_coefficients(GridState(-5.0, 5.0, np.zeros((64, 64), dtype=complex)))


def test_extract_rejects_non_gaussian():
    # sum of two displaced Gaussians is not log-quadratic
    left = GaussianDensityMatrix(0.6, 0.0, 0.4)
    xs = np.linspace(-10, 10, 256)
    values = 0.5 * left.kernel(xs[:, None] - 2.5, xs[None, :] - 2.5)
    values = values + 0.5 * left.kernel(xs[:, None] + 2.5, xs[None, :] + 2.5)
    grid = GridState(-10.0, 10.0, values)
    with pytest.raises(ValueError) as info:
        extract_gaussian_coefficients(grid)
    prefix, suffix = "kernel deviates from the Gaussian form: residual ", " exceeds 1.0e-02"
    message = str(info.value)
    assert message.startswith(prefix) and message.endswith(suffix)
    assert float(message[len(prefix):-len(suffix)]) > 1e-2


# --- eigendecomposition -----------------------------------------------------------

def test_eigendecompose_pure_state_is_rank_one():
    grid = discretize(PURE, -8.0, 8.0, 256)
    eigvals, _ = eigendecompose_kernel(grid, 6)
    assert eigvals[0] == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.abs(eigvals[1:]) < 1e-6)


def test_eigendecompose_pure_state_is_rank_one_with_underflowing_rows():
    # at +-40 the outermost rows underflow to exact zeros, which carry no phase
    grid = discretize(PURE, -40.0, 40.0, 256)
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
    broken = GridState(grid.x_min, grid.x_max, values)
    with pytest.raises(ValueError):
        eigendecompose_kernel(broken, 4)


# the three states of acceptance criterion 13, on its centred window
CRITERION_13_STATES = [
    MIXED,
    GaussianDensityMatrix(1.3, 0.4, 0.5),
    GaussianDensityMatrix(2.2, 0.0, 1.1),
]


def criterion_13_span(state):
    return 8.0 * math.sqrt(1.0 / (8.0 * state.c_coeff)) + 2.0


@pytest.mark.parametrize("n_points", [128, 129, 256, 257])
@pytest.mark.parametrize("state", CRITERION_13_STATES)
def test_eigendecompose_parity_sectors_match_the_full_solve(state, n_points):
    span = criterion_13_span(state)
    grid = discretize(state, -span, span, n_points)
    eigvals, eigvecs = eigendecompose_kernel(grid, 8)
    full = np.linalg.eigh(grid.values * grid.spacing).eigenvalues[::-1][:8]
    assert eigvals.dtype == np.float64 and eigvecs.dtype == np.complex128
    assert eigvals.shape == (8,) and eigvecs.shape == (n_points, 8)
    assert np.max(np.abs(eigvals - full)) <= 1e-13
    assert np.max(np.abs(eigvecs.conj().T @ eigvecs - np.eye(8))) <= 1e-13
    for k in range(8):
        assert np.array_equal(eigvecs[::-1, k], (-1) ** k * eigvecs[:, k])


def test_eigendecompose_rejects_a_kernel_not_real_up_to_a_phase():
    # i S with S real, antisymmetric and S = JSJ keeps the grid Hermitian and
    # reflection symmetric, but no diagonal phase makes it real
    grid = spanning_grid(MIXED, n_points=128)
    rng = np.random.default_rng(7)
    s = rng.standard_normal((128, 128))
    s -= s.T
    s += s[::-1, ::-1]
    peak = float(np.max(np.abs(grid.values)))
    twisted = GridState(grid.x_min, grid.x_max, grid.values + 1e-3j * peak * s)
    with pytest.raises(ValueError, match=r"^kernel is not real up to a diagonal phase: deviation "):
        eigendecompose_kernel(twisted, 8)


@pytest.mark.parametrize("n_points", [192, 256, 257])
def test_eigendecompose_accepts_integrated_grids(n_points):
    # the phase read from an integrated grid leaves rounding alone, so the
    # real sector solves match the full complex solve
    for cubic, tau in _oracle_check_and_chirped_cubics():
        span = 8.0 * math.sqrt(max(cubic.x_value(0.0), cubic.x_value(tau))) + 0.5
        grid = discretize(evolve(cubic, 0.0), -span, span, n_points)
        evolved = integrate_master_equation(grid, cubic.lam, tau)
        eigvals, _ = eigendecompose_kernel(evolved, 16)
        full = np.linalg.eigh(evolved.values * evolved.spacing).eigenvalues[::-1][:16]
        assert np.max(np.abs(eigvals - full)) <= 1e-13


def _grid_with_a_nan_pair():
    grid = spanning_grid(MIXED, n_points=128)
    values = grid.values.copy()
    values[3, 5] = values[5, 3] = math.nan
    return GridState(grid.x_min, grid.x_max, values)


@pytest.mark.parametrize(
    "call",
    [
        lambda grid: integrate_master_equation(grid, 1.0, 0.2),
        extract_gaussian_coefficients,
        lambda grid: eigendecompose_kernel(grid, 4),
    ],
    ids=["integrate", "fit", "eigendecompose"],
)
def test_entry_points_reject_a_nan_grid(call):
    # NaN fails every comparison, so a guard written as value > bound let
    # it through: eigendecompose returned nan eigenvalues
    with pytest.raises(ValueError, match=r"^grid is not finite: peak modulus nan$"):
        call(_grid_with_a_nan_pair())


@pytest.mark.parametrize("row, col", [(3, 5), (100, 7), (200, 250)])
def test_one_nan_reaches_every_blockwise_guard(row, col):
    # the builtin max drops a NaN that is not its first argument, so a NaN
    # outside the first block of rows would slip past a guard combined with it
    grid = spanning_grid(MIXED, n_points=256)
    values = grid.values.copy()
    values[row, col] = math.nan
    with pytest.raises(ValueError, match=r"^grid is not finite: peak modulus nan$"):
        _peak(values)
    for guard in (_hermiticity_error, _reflection_error):
        assert math.isnan(guard(values))
    broken = GridState(grid.x_min, grid.x_max, values)
    for call in (
        lambda: integrate_master_equation(broken, 1.0, 0.2),
        lambda: extract_gaussian_coefficients(broken),
        lambda: eigendecompose_kernel(broken, 4),
    ):
        with pytest.raises(ValueError, match=r"^grid is not finite: peak modulus nan$"):
            call()


def test_eigendecompose_rejects_an_off_centre_window():
    # a centred state on a window shifted off the origin has no reflection
    # symmetry, so the parity sectors do not decouple
    span = criterion_13_span(MIXED)
    grid = discretize(MIXED, -span, span + 3.0, 256)
    with pytest.raises(ValueError, match="not reflection symmetric: deviation 2.57"):
        eigendecompose_kernel(grid, 8)


def test_eigendecompose_imports_no_scipy():
    # a subset scipy.linalg.eigh would put its import, about 0.26 s, into
    # every process that checks the spectrum
    code = (
        "import sys, math\n"
        "from decogauss.evolution import GaussianDensityMatrix\n"
        "from decogauss.oracle import discretize, eigendecompose_kernel\n"
        "grid = discretize(GaussianDensityMatrix(0.75, -0.5, 0.0625), -14.0, 14.0, 128)\n"
        "eigendecompose_kernel(grid, 8)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
