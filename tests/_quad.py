"""Quadrature oracles shared across the test suite.

Tensor-product Riemann sums on boxes wide enough that the Gaussian tails
sit below the target accuracy.  For analytic integrands on uniform grids
the sums converge spectrally, so modest point counts reach ~1e-12
relative; the grids are sized to resolve the fastest phase gradient of
the integrand.  These sums are the permanent independent check of every
closed-form integral in the package.
"""

import math

import numpy as np


def state_half_width(state, sigmas=8.5):
    """Box half-width in x covering `sigmas` e-folding scales of both the
    y = x - x' and z = x + x' Gaussian factors of the kernel magnitude."""
    s_y = 1.0 / math.sqrt(2.0 * state.a_coeff)
    s_z = 1.0 / math.sqrt(2.0 * state.c_coeff)
    return 0.5 * sigmas * (s_y + s_z)


def operator_norm(op):
    """The window's prefactor 2 sqrt(gamma/pi), fixed by unit trace."""
    return 2.0 * math.sqrt(op.gamma / math.pi)


def operator_kernel(op, x, xp):
    """Kernel values of the ObservationOperator ``op``; arguments broadcast."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    y = x - xp
    zc = x + xp - 2.0 * op.center
    return operator_norm(op) * np.exp(-(op.alpha * y * y + op.gamma * zc * zc))


def quad_trace(state, n=3001, sigmas=8.5):
    xs = np.linspace(-state_half_width(state, sigmas), state_half_width(state, sigmas), n)
    h = xs[1] - xs[0]
    return float(np.real(np.sum(state.kernel(xs, xs))) * h)


def quad_purity(state, n=1401):
    limit = state_half_width(state)
    xs = np.linspace(-limit, limit, n)
    h = xs[1] - xs[0]
    kernel = state.kernel(xs[:, None], xs[None, :])
    return float(np.sum(np.abs(kernel) ** 2) * h * h)


def _measure_grid(op, state):
    s_y = 1.0 / math.sqrt(2.0 * (state.a_coeff + op.alpha))
    s_z = 1.0 / math.sqrt(2.0 * (state.c_coeff + op.gamma))
    limit = 5.0 * (s_y + s_z) + 1.5 * abs(op.center)
    # resolve the exp(-iByz) phase: largest per-cell step |B| * 2L * h
    phase_n = abs(state.b_coeff) * (2.0 * limit) ** 2 / 0.25
    width_n = 16.0 * limit / min(s_y, s_z)
    n = int(min(2000, max(901, phase_n, width_n)))
    return np.linspace(-limit, limit, n)


def quad_measure(op, state, xs=None):
    """tr(A_k rho) by direct 2-D summation of A_k(x, x') rho(x', x).

    A chirped state under a window narrow in x + x' and wide in x - x'
    oscillates so fast that the sum cancels to below 1e-6 of the sum of
    its magnitudes.  Double-precision rounding of the terms then moves the
    result by ~1e-16 of that magnitude, which can exceed 1e-7 of the
    result, so such cases are summed along the steepest-descent contour
    instead."""
    if xs is None:
        xs = _measure_grid(op, state)
    h = xs[1] - xs[0]
    x = xs[:, None]
    xp = xs[None, :]
    product = operator_kernel(op, x, xp) * state.kernel(xp, x)
    total = complex(np.sum(product) * h * h)
    if abs(total.real) < 1e-6 * float(np.sum(np.abs(product)) * h * h):
        total = _contour_measure(op, state)
    assert abs(total.imag) < 1e-10 * max(abs(total.real), 1e-300)
    return float(total.real)


def _contour_measure(op, state, n=201):
    """tr(A_k rho) = 1/2 integral dy dz of

        f(y, z) = exp(-(alpha + A) y^2 + i B y z - gamma (z - 2 x_k)^2 - C z^2)

    times both norms, with y = x - x' and z = x + x'.  f is entire in y and
    decays along every horizontal line, so the y integral can run along
    y = t + i B z / (2 (alpha + A)) instead of the real axis.  There the
    phase of f cancels and the summed terms are positive, however small
    the result.  The shift only conditions the sum: f itself is evaluated
    as written, and any shift gives the same integral."""
    # the t and z ranges span ten e-folding widths of |f| on the contour
    d = op.alpha + state.a_coeff
    b = state.b_coeff
    q = op.gamma + state.c_coeff + b * b / (4.0 * d)
    ts = np.linspace(-10.0, 10.0, n) / math.sqrt(2.0 * d)
    zs = 2.0 * op.gamma * op.center / q + np.linspace(-10.0, 10.0, n) / math.sqrt(2.0 * q)
    z = zs[None, :]
    y = ts[:, None] + 1j * (b / (2.0 * d)) * z
    exponent = -d * y * y + 1j * b * y * z - op.gamma * (z - 2.0 * op.center) ** 2 - state.c_coeff * z * z
    cell = (ts[1] - ts[0]) * (zs[1] - zs[0])
    return complex(np.sum(np.exp(exponent)) * (0.5 * cell * operator_norm(op) * state.norm))


def quad_mixture_measure(op, weights, states, xs=None):
    """Measure of a convex combination of Gaussian kernels (the mixture
    leaves the Gaussian family, so only quadrature can evaluate it)."""
    if xs is None:
        xs = _measure_grid(op, states[0])
    h = xs[1] - xs[0]
    x = xs[:, None]
    xp = xs[None, :]
    mix = sum(w * s.kernel(xp, x) for w, s in zip(weights, states))
    total = complex(np.sum(operator_kernel(op, x, xp) * mix) * h * h)
    return float(total.real)


def quad_overlap(f_vals, g_vals, h):
    """L^2 inner product <f|g> of sampled functions."""
    return complex(np.vdot(f_vals, g_vals) * h)
