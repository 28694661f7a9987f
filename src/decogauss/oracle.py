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

__all__ = [
    "GridState",
    "GaussianFit",
    "discretize",
    "integrate_master_equation",
    "extract_gaussian_coefficients",
    "eigendecompose_kernel",
]


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
    values: np.ndarray

    def __post_init__(self):
        for name in ("x_min", "x_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError(f"values must be a square array, got shape {self.values.shape}")

    @property
    def n_points(self) -> int:
        return len(self.values)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def trace(self) -> float:
        return float(np.real(np.trace(self.values)) * self.spacing)

    def momentum_variance(self) -> float:
        """(dp/hbar)^2 = tr(p^2 rho) = h sum_ij P_ij rho_ij, with P the
        -d^2/dx^2 matrix of the band-limited interpolant on the periodic grid
        (Trefethen 2000, Spectral Methods in MATLAB, ch. 3).  That is exact,
        to rounding, for any kernel resolved by the grid's Fourier modes.  P_ij
        depends on (j - i) mod n alone, so the sum runs over wrapped diagonals
        w_o, and P's row is the DFT of k^2 / n: the sum is h k^2 . Re DFT(w) / n.

        Assumes zero mean momentum, which holds for every kernel in the
        Gaussian family handled here.
        """
        n, h = self.n_points, self.spacing
        k = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
        # wrapped[i, o] = Re rho[i, (i + o) mod n]
        flat = np.concatenate([self.values.real] * 2, axis=1).ravel()
        wrapped = sliding_window_view(flat, n)[:: 2 * n + 1]
        return float(h * ((k * k) @ np.fft.fft(wrapped.sum(axis=0)).real) / n)


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
    grid = GridState(x_min, x_max, values)
    deficit = abs(1.0 - grid.trace())
    if x_min > -8.0 * sigma or x_max < 8.0 * sigma:
        raise ValueError(
            f"domain [{x_min}, {x_max}] covers less than 8 standard deviations "
            f"({sigma:.4g}); trace deficit {deficit:.3e}"
        )
    if not deficit <= 1e-8:
        raise ValueError(f"grid trace deviates from 1 by {deficit:.3e}")
    return grid


def integrate_master_equation(grid: GridState, lam: float, tau_end: float) -> GridState:
    """Evolve the grid from tau = 0 to tau_end in one corrected Strang step.

    With h = tau_end the step is S(h) = F(h/2) D(h) F(h/2), with the
    pointwise damping D(h) = exp(-(3 lam / 2) y^2 h) and the free flight
    F(h), the factor exp((i/2)(k'^2 - k^2) h) in 2-D Fourier space.  With
    y = x - x' and z = x + x', damping A = -(3 lam / 2) y^2 and transport
    B = 2i d_y d_z give [A, [A, B]] = 0 and a central [B, [B, A]] =
    12 lam d_z^2, so BCH ends at h^3: S(h) = exp(h L) exp(-(lam / 2) h^3 d_z^2)
    exactly.  Multiplying the spectrum by exp(-(lam / 8) h^3 (k + k')^2)
    removes that, so the one step is exact to rounding.  No factor exceeds
    modulus 1, so no interval is unstable.  (The order D F D needs the
    anti-diffusive exp(+(lam / 4) h^3 (k + k')^2) and blows up.)

    Raises ValueError if, after the damping, the sup norm has grown by more
    than 10x or Hermiticity drifted past 1e-10.
    """
    if lam < 0.0 or not math.isfinite(lam):
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    if tau_end < 0.0 or not math.isfinite(tau_end):
        raise ValueError(f"tau_end must be nonnegative, got {tau_end!r}")

    h = tau_end
    xs = grid.xs
    damp = np.exp(-1.5 * lam * h * (xs[:, None] - xs[None, :]) ** 2)
    k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)
    phase_k = np.exp(0.25j * h * k * k)
    half = phase_k.conj()[:, None] * phase_k[None, :]
    corrected = half * np.exp(-0.125 * lam * h**3 * (k[:, None] + k[None, :]) ** 2)

    # in place on the integrator's own copy; ifftn, because numpy 2's
    # ifft2 drops its out= argument
    rho = grid.values.astype(np.complex128, copy=True)
    initial_peak = float(np.max(np.abs(rho)))
    rho = np.fft.fftn(rho, out=rho)
    rho *= corrected
    del corrected  # free before the Hermiticity guard allocates its adjoint
    rho = np.fft.ifftn(rho, out=rho)
    rho *= damp
    peak = float(np.max(np.abs(rho)))
    if not math.isfinite(peak) or peak > 10.0 * initial_peak:
        raise ValueError(
            f"instability detected: sup norm grew from {initial_peak:.3e} to {peak:.3e}"
        )
    herm = _hermiticity_error(rho)
    if herm > 1e-10 * max(1.0, initial_peak):
        raise ValueError(f"Hermiticity drifted to {herm:.3e}")
    rho = np.fft.fftn(rho, out=rho)
    rho *= half
    rho = np.fft.ifftn(rho, out=rho)
    return GridState(grid.x_min, grid.x_max, rho)


@dataclass(frozen=True)
class GaussianFit:
    """Least-squares Gaussian coefficients with the weighted RMS log residual."""

    a_coeff: float
    b_coeff: float
    c_coeff: float
    residual: float


#: The fit window: grid points with |kernel| >= FIT_WINDOW_FLOOR * peak.
FIT_WINDOW_FLOOR = 1e-10
#: Weighted RMS log residual above which the kernel is not Gaussian.
FIT_RESIDUAL_THRESHOLD = 1e-2


def extract_gaussian_coefficients(grid: GridState) -> GaussianFit:
    """Weighted least-squares fit of -ln(kernel) to A y^2 + i B y z + C z^2 + D
    over the central window |kernel| >= FIT_WINDOW_FLOOR * peak.

    The magnitude fixes A, C; the phase fixes B, seeded by a cross stencil at
    the peak and rewrapped against that seed, so phase wraps across the
    window do not alias the fit.  Residuals above FIT_RESIDUAL_THRESHOLD raise
    ValueError (deliberately non-Gaussian input).
    """
    v = grid.values
    mags = np.abs(v)
    peak = float(mags.max())
    if peak <= 0.0:
        raise ValueError("kernel is identically zero")
    mask = mags >= FIT_WINDOW_FLOOR * peak
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
    if residual > FIT_RESIDUAL_THRESHOLD:
        raise ValueError(
            f"kernel deviates from the Gaussian form: residual {residual:.3e} "
            f"exceeds {FIT_RESIDUAL_THRESHOLD:.1e}"
        )
    return GaussianFit(a_coeff=a_fit, b_coeff=b_fit, c_coeff=c_fit, residual=residual)


def eigendecompose_kernel(grid: GridState, count: int):
    """Top eigenvalues (descending) and grid eigenvectors of kernel * spacing.

    The kernel must be Hermitian and symmetric under the grid reflection
    J: x_i <-> x_{n-1-i}, as every centred Gaussian on a centred window is
    (rho(-x, -x') = rho(x, x')); either deviation above 1e-10 * max(1, peak)
    raises ValueError.  J splits the kernel into its even and odd sectors.
    With m = n // 2, L = v[:m, :m] and R[i, j] = v[i, n-1-j], the even block
    is L + R (for odd n bordered by sqrt(2) times the centre row and by the
    centre element) and the odd block is L - R.  Each half-size block gets
    its own LAPACK eigh; the spectra merge in descending order, and a sector
    vector u lifts to [u/sqrt(2), (u_centre), +-reversed(u)/sqrt(2)], so
    eigenvector k of a Gaussian ladder has parity (-1)^k.
    """
    if not (1 <= count <= 32):
        raise ValueError(f"count must be between 1 and 32, got {count}")
    v, n = grid.values, grid.n_points
    bound = 1e-10 * max(1.0, float(np.max(np.abs(v))))
    herm = _hermiticity_error(v)
    if herm > bound:
        raise ValueError(f"grid is not Hermitian: deviation {herm:.3e}")
    # v - JvJ is odd under J, so its top (n + 1) // 2 rows hold its maximum
    rows = (n + 1) // 2
    asym = float(np.max(np.abs(v[:rows] - v[::-1, ::-1][:rows])))
    if asym > bound:
        raise ValueError(f"grid is not reflection symmetric: deviation {asym:.3e}")

    m = n // 2
    left, right = v[:m, :m], v[:m, ::-1][:, :m]
    even = np.empty((n - m, n - m), dtype=v.dtype)
    np.add(left, right, out=even[:m, :m])
    if n % 2:
        even[:m, m] = math.sqrt(2.0) * v[:m, m]
        even[m, :m] = math.sqrt(2.0) * v[m, :m]
        even[m, m] = v[m, m]
    even *= grid.spacing
    odd = np.subtract(left, right)
    odd *= grid.spacing
    even_vals, even_vecs = np.linalg.eigh(even)
    odd_vals, odd_vecs = np.linalg.eigh(odd)

    # eigh returns ascending eigenvalues; merge the two descending spectra
    # and lift only the top count vectors, so the caller keeps no n x n array
    eigvals = np.concatenate([even_vals[::-1], odd_vals[::-1]])
    top = np.argsort(-eigvals, kind="stable")[:count]
    is_even = top < n - m
    sector = np.zeros((n - m, len(top)), dtype=even_vecs.dtype)
    sector[:, is_even] = even_vecs[:, ::-1][:, top[is_even]]
    sector[:m, ~is_even] = odd_vecs[:, ::-1][:, top[~is_even] - (n - m)]
    half = sector[:m] / math.sqrt(2.0)
    parity = np.where(is_even, 1.0, -1.0)
    return eigvals[top], np.concatenate([half, sector[m:], parity * half[::-1]])

