"""Grid-PDE oracle: independent numerical validation of the closed form.

Discretizes rho(x, x') on a square grid and integrates the master equation
in rescaled time,

    d rho / d tau = (i/2) (d^2/dx^2 - d^2/dx'^2) rho
                    - (3 lam / 2) (x - x')^2 rho,

by splitting: the transport term is diagonal in 2-D Fourier space and the
damping term is diagonal on the grid, so each is exponentiated exactly, and
the one splitting error, a commuting Fourier factor, is removed exactly (see
integrate_master_equation).  The damping coefficient in tau units is
3*lam/2.

Exercised only at O(1) dimensionless parameters: the macroscopic regime
spans ~150 decades of coefficient magnitude and is not grid-representable;
the closed form is parameter-smooth, so O(1) validation transfers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .evolution import GaussianDensityMatrix
from .units import METER, LengthUnit

__all__ = [
    "GridState",
    "DomainCoverageError",
    "IntegrationFailureError",
    "FitQualityError",
    "DecompositionError",
    "GaussianFit",
    "discretize",
    "integrate_master_equation",
    "extract_gaussian_coefficients",
    "eigendecompose_kernel",
]


class DomainCoverageError(ValueError):
    """Grid domain too small for the state; carries the measured trace deficit."""

    def __init__(self, message: str, trace_deficit: float):
        super().__init__(message)
        self.trace_deficit = trace_deficit


class IntegrationFailureError(RuntimeError):
    """Time stepping went unstable; carries the step index."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class FitQualityError(ValueError):
    """Kernel is not Gaussian to within the fit threshold; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class DecompositionError(RuntimeError):
    """Numerical eigendecomposition failed."""


def _hermiticity_error(values: np.ndarray) -> float:
    """max |rho - rho^H|.  The adjoint is written out contiguously once, so
    the subtraction does not read a transposed view column by column."""
    adjoint = np.conjugate(values.T, order="C")
    return float(np.max(np.abs(np.subtract(values, adjoint, out=adjoint))))


@dataclass
class GridState:
    """Discretized complex rho(x, x'): row index is x, column index is x'."""

    x_min: float
    x_max: float
    n_points: int
    values: np.ndarray
    unit: LengthUnit = METER

    def __post_init__(self):
        for name in ("x_min", "x_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.values.shape != (self.n_points, self.n_points):
            raise ValueError(
                f"values shape {self.values.shape} does not match n_points={self.n_points}"
            )

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def trace(self) -> float:
        return float(np.real(np.trace(self.values)) * self.spacing)

    def hermiticity_error(self) -> float:
        return _hermiticity_error(self.values)

    def purity(self) -> float:
        """tr(rho^2) = h^2 sum |rho_ij|^2 for Hermitian kernels."""
        return float(self.spacing**2 * np.sum(np.abs(self.values) ** 2))

    def position_variance(self) -> float:
        diag = np.real(np.diag(self.values))
        h = self.spacing
        mean = float(np.sum(self.xs * diag) * h)
        second = float(np.sum(self.xs**2 * diag) * h)
        return second - mean * mean

    def momentum_variance(self) -> float:
        """(dp/hbar)^2 = tr(p^2 rho) = h sum_ij P_ij rho_ij, with P the
        -d^2/dx^2 matrix of the band-limited interpolant on the periodic grid
        (Trefethen 2000, Spectral Methods in MATLAB, ch. 3).  That is exact,
        to rounding, for any kernel resolved by the grid's Fourier modes.  P_ij
        depends on (j - i) mod n alone, so the sum runs over wrapped diagonals.

        Assumes zero mean momentum, which holds for every kernel in the
        Gaussian family handled here.
        """
        n = self.n_points
        t = math.pi * np.arange(1, n) / n
        off_diagonal = (-1.0) ** np.arange(1, n) / (2.0 * np.sin(t) ** 2)
        if n % 2 == 0:
            row = np.concatenate([[(n * n + 2.0) / 12.0], off_diagonal])
        else:
            row = np.concatenate([[(n * n - 1.0) / 12.0], off_diagonal * np.cos(t)])
        row *= (2.0 * math.pi / (n * self.spacing)) ** 2
        # wrapped[i, o] = Re rho[i, (i + o) mod n]
        flat = np.concatenate([self.values.real] * 2, axis=1).ravel()
        wrapped = sliding_window_view(flat, n)[:: 2 * n + 1]
        return float(self.spacing * (row @ wrapped.sum(axis=0)))


def discretize(
    state: GaussianDensityMatrix, x_min: float, x_max: float, n_points: int
) -> GridState:
    """Sample the closed-form kernel.  The domain must cover at least eight
    standard deviations of the diagonal marginal on both sides."""
    if n_points < 64:
        raise ValueError(f"n_points must be at least 64, got {n_points}")
    sigma = math.sqrt(1.0 / (8.0 * state.c_coeff))
    xs = np.linspace(x_min, x_max, n_points)
    values = state.kernel(xs[:, None], xs[None, :])
    grid = GridState(x_min, x_max, n_points, values, state.unit)
    deficit = abs(1.0 - grid.trace())
    if x_min > -8.0 * sigma or x_max < 8.0 * sigma:
        raise DomainCoverageError(
            f"domain [{x_min}, {x_max}] covers less than 8 standard deviations "
            f"({sigma:.4g}); trace deficit {deficit:.3e}",
            trace_deficit=deficit,
        )
    if not deficit <= 1e-8:
        raise DomainCoverageError(
            f"grid trace deviates from 1 by {deficit:.3e}", trace_deficit=deficit
        )
    return grid


def integrate_master_equation(
    grid: GridState,
    lam: float,
    tau_end: float,
    n_steps: int | None = None,
    terms: str = "full",
) -> GridState:
    """Evolve the grid from tau = 0 to tau_end by corrected Strang splitting.

    A step of size h is S(h) = F(h/2) D(h) F(h/2), with the pointwise damping
    D(h) = exp(-(3 lam / 2) y^2 h) and the free flight F(h), the factor
    exp((i/2)(k'^2 - k^2) h) in 2-D Fourier space.  With y = x - x' and
    z = x + x', damping A = -(3 lam / 2) y^2 and transport B = 2i d_y d_z give
    [A, [A, B]] = 0 and a central [B, [B, A]] = 12 lam d_z^2, so BCH ends at
    h^3: S(h) = exp(h L) exp(-(lam / 2) h^3 d_z^2) exactly.  Multiplying the
    spectrum once by exp(-(lam / 8) n_steps h^3 (k + k')^2) removes that for
    every step, so the result is independent of n_steps (default 1) to
    rounding.  No factor exceeds modulus 1, so no step size is unstable, and
    merged half flights make n steps cost n + 1 FFT pairs.  (The order D F D
    needs the anti-diffusive exp(+(lam / 4) h^3 (k + k')^2) and blows up.)

    terms="damping" integrates the pointwise damping term alone (exact
    solution exp(-(3 lam / 2) y^2 tau) rho0), used to pin the damping
    constant independently of the transport term.

    Raises IntegrationFailureError if, after a step's damping, the sup norm
    has grown by more than 10x or Hermiticity drifted past 1e-10.
    """
    if lam < 0.0 or not math.isfinite(lam):
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    if tau_end < 0.0 or not math.isfinite(tau_end):
        raise ValueError(f"tau_end must be nonnegative, got {tau_end!r}")
    if terms not in ("full", "damping"):
        raise ValueError(f"terms must be 'full' or 'damping', got {terms!r}")
    n_steps = 1 if n_steps is None else n_steps
    if isinstance(n_steps, bool) or not isinstance(n_steps, int) or n_steps < 1:
        raise ValueError(f"n_steps must be an integer of at least 1, got {n_steps!r}")

    h = tau_end / n_steps
    xs = grid.xs
    damp = np.exp(-1.5 * lam * h * (xs[:, None] - xs[None, :]) ** 2)
    k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)
    phase_k = np.exp(0.25j * h * k * k)
    half = phase_k.conj()[:, None] * phase_k[None, :]
    whole = half * half if n_steps > 1 else None
    factor = half * np.exp(-0.125 * lam * n_steps * h**3 * (k[:, None] + k[None, :]) ** 2)

    def flight(rho, factor):
        # in place on the integrator's own copy; ifftn, because numpy 2's
        # ifft2 drops its out= argument
        if terms == "damping":
            return rho
        rho = np.fft.fftn(rho, out=rho)
        rho *= factor
        return np.fft.ifftn(rho, out=rho)

    rho = grid.values.astype(np.complex128, copy=True)
    initial_peak = float(np.max(np.abs(rho)))
    for step in range(1, n_steps + 1):
        rho = flight(rho, factor)
        rho *= damp
        factor = whole
        peak = float(np.max(np.abs(rho)))
        if not math.isfinite(peak) or peak > 10.0 * initial_peak:
            raise IntegrationFailureError(
                f"instability detected at step {step}/{n_steps}: "
                f"sup norm grew from {initial_peak:.3e} to {peak:.3e}",
                step=step,
            )
        herm = _hermiticity_error(rho)
        if herm > 1e-10 * max(1.0, initial_peak):
            raise IntegrationFailureError(
                f"Hermiticity drifted to {herm:.3e} at step {step}/{n_steps}",
                step=step,
            )
    rho = flight(rho, half)
    return GridState(grid.x_min, grid.x_max, grid.n_points, rho, grid.unit)


@dataclass(frozen=True)
class GaussianFit:
    """Least-squares Gaussian coefficients with the weighted RMS log residual."""

    a_coeff: float
    b_coeff: float
    c_coeff: float
    residual: float


def extract_gaussian_coefficients(
    grid: GridState,
    window_floor: float = 1e-10,
    residual_threshold: float = 1e-2,
) -> GaussianFit:
    """Weighted least-squares fit of -ln(kernel) to A y^2 + i B y z + C z^2 + D
    over the central window |kernel| >= window_floor * peak.

    The magnitude fixes A, C; the phase fixes B, seeded by a cross stencil at
    the peak and rewrapped against that seed, so phase wraps across the
    window do not alias the fit.  Residuals above residual_threshold raise
    FitQualityError (deliberately non-Gaussian input).
    """
    v = grid.values
    mags = np.abs(v)
    peak = float(mags.max())
    if peak <= 0.0:
        raise FitQualityError("kernel is identically zero", residual=math.inf)
    mask = mags >= window_floor * peak
    xs = grid.xs
    y = (xs[:, None] - xs[None, :])[mask]
    z = (xs[:, None] + xs[None, :])[mask]
    w = (mags[mask] / peak).astype(float)

    # magnitude part: -ln|v| = A y^2 + C z^2 + Re D
    data_r = -np.log(mags[mask])
    design = np.column_stack([y * y, z * z, np.ones_like(y)])
    scale = np.max(np.abs(design), axis=0)
    coeffs, *_ = np.linalg.lstsq(
        (w[:, None] * design) / scale, w * data_r, rcond=None
    )
    coeffs = coeffs / scale
    a_fit, c_fit, d_fit = float(coeffs[0]), float(coeffs[1]), float(coeffs[2])

    # phase part: arg v = -B y z; seed B from the mixed stencil at the peak
    ic, jc = np.unravel_index(int(np.argmax(mags)), mags.shape)
    if 1 <= ic < grid.n_points - 1 and 1 <= jc < grid.n_points - 1:
        up, left, right, down = np.angle(
            v[[ic + 1, ic, ic, ic - 1], [jc, jc - 1, jc + 1, jc]]
        )
        b_seed = -(up - left - right + down) / (4.0 * grid.spacing**2)
    else:
        b_seed = 0.0
    yz = y * z
    predicted = -b_seed * yz
    # exp(-i predicted) = exp(i b_seed x^2) exp(-i b_seed x'^2): two length-n
    # complex exps instead of one per window point
    seed_phase = np.exp(1j * b_seed * xs * xs)
    rewrap = (seed_phase[:, None] * seed_phase.conj()[None, :])[mask]
    unwrapped = predicted + np.angle(v[mask] * rewrap)
    weight_sq = w * w
    denom = float(np.sum((w * yz) ** 2))
    b_fit = b_seed if denom == 0.0 else float(np.sum(weight_sq * yz * (-unwrapped)) / denom)

    # |model - data|^2 of the complex log fit, in real arithmetic
    real_misfit = a_fit * y * y + c_fit * z * z + d_fit - data_r
    imag_misfit = b_fit * yz + unwrapped
    residual = math.sqrt(
        float(np.sum(weight_sq * (real_misfit**2 + imag_misfit**2)) / np.sum(weight_sq))
    )
    if residual > residual_threshold:
        raise FitQualityError(
            f"kernel deviates from the Gaussian form: residual {residual:.3e} "
            f"exceeds {residual_threshold:.1e}",
            residual=residual,
        )
    return GaussianFit(a_coeff=a_fit, b_coeff=b_fit, c_coeff=c_fit, residual=residual)


def eigendecompose_kernel(grid: GridState, count: int):
    """Top eigenvalues (descending) and grid eigenvectors of kernel * spacing."""
    if not (1 <= count <= 32):
        raise ValueError(f"count must be between 1 and 32, got {count}")
    herm = grid.hermiticity_error()
    if herm > 1e-10 * max(1.0, float(np.max(np.abs(grid.values)))):
        raise ValueError(f"grid is not Hermitian: deviation {herm:.3e}")
    try:
        eigvals, eigvecs = np.linalg.eigh(grid.values * grid.spacing)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - library failure
        raise DecompositionError(str(exc)) from exc
    # eigh returns ascending eigenvalues; copy the top eigenvectors so the
    # caller does not keep all n alive
    return eigvals[::-1][:count], eigvecs[:, ::-1][:, :count].copy()

