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

eigendecompose_kernel solves the kernel's two reflection-parity blocks as
real symmetric matrices.  It requires the kernel to be Hermitian, reflection
symmetric and real up to a diagonal phase read from the grid, each to within
1e-10 * max(1, peak), and raises ValueError otherwise; the imaginary
remainder it drops moves eigenvalues only at second order (see its
docstring).  integrate_master_equation, extract_gaussian_coefficients and
eigendecompose_kernel raise ValueError on a grid holding NaN or inf.

Exercised only at O(1) dimensionless parameters: the macroscopic regime
spans ~150 decades of coefficient magnitude and is not grid-representable.
A change of length unit by a power of two, x -> 2^k x (A, B, C over 4^k,
lam over 16^k, tau times 4^k), leaves the closed form's results and this
integrator's grid bit for bit the same, because scaling by a power of the
radix is exact unless it under- or overflows (Higham 2002, ch. 2); the
least-squares fit is covariant only to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .evolution import GaussianDensityMatrix
from .model import _require_finite, _require_nonnegative

__all__ = [
    "GridState",
    "GaussianFit",
    "discretize",
    "integrate_master_equation",
    "extract_gaussian_coefficients",
    "eigendecompose_kernel",
]


#: Rows per block of the guards' reductions and of the fit: at n = 512 a
#: complex block is 512 KB, so neither builds a temporary the size of the grid.
_ROW_BLOCK = 64


def _max_abs(block, rows: int) -> float:
    """max |block(s)| over the row slices s of range(rows), one fixed block
    at a time.  np.max combines the block maxima, so a NaN in any block
    propagates, as the builtin max would not."""
    return float(np.max([
        np.max(np.abs(block(slice(start, min(start + _ROW_BLOCK, rows)))))
        for start in range(0, rows, _ROW_BLOCK)
    ]))


def _peak(values: np.ndarray) -> tuple[float, int, int]:
    """The first largest |rho| in row-major order and its (row, column),
    found block by block.  argmax finds a NaN first, so a NaN reaches the
    block maxima, and a grid holding NaN or inf raises ValueError."""
    n = len(values)
    firsts = [s * n + int(np.argmax(np.abs(values[s : s + _ROW_BLOCK]))) for s in range(0, n, _ROW_BLOCK)]
    maxima = np.abs(values.ravel()[firsts])
    peak = float(np.max(maxima))
    if not math.isfinite(peak):
        raise ValueError(f"grid is not finite: peak modulus {peak}")
    return (peak, *divmod(firsts[int(np.argmax(maxima))], n))


def _hermiticity_error(values: np.ndarray) -> float:
    """max |rho - rho^H|.  Each block's adjoint rows are written out
    contiguously, so the subtraction does not read a transposed view
    column by column."""

    def deviation(s):
        adjoint = np.conjugate(values[:, s].T, order="C")
        return np.subtract(values[s], adjoint, out=adjoint)

    return _max_abs(deviation, len(values))


def _reflection_error(values: np.ndarray) -> float:
    """max |rho - J rho J| for the grid reflection J: x_i <-> x_{n-1-i}.
    rho - J rho J is odd under J, so its top (n + 1) // 2 rows hold the
    maximum."""
    return _max_abs(lambda s: values[s] - values[::-1, ::-1][s], (len(values) + 1) // 2)


@dataclass
class GridState:
    """Discretized complex rho(x, x'): row index is x, column index is x'."""

    x_min: float
    x_max: float
    values: np.ndarray

    def __post_init__(self):
        _require_finite("x_min", self.x_min)
        _require_finite("x_max", self.x_max)
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
        # w[o] = sum_i Re rho[i, (i + o) mod n], added row after row in the
        # order of one sum over a whole wrapped grid, one block of rows at a
        # time: stack[0] carries the running sum above the block's rows
        stack = np.zeros((_ROW_BLOCK + 1, n))
        for start in range(0, n, _ROW_BLOCK):
            rows = min(_ROW_BLOCK, n - start)
            # doubled row r holds Re rho[start + r, (start + r + o) mod n] at start + r + o
            doubled = np.concatenate([self.values[start : start + rows].real] * 2, axis=1)
            stack[1 : rows + 1] = sliding_window_view(doubled.ravel(), n)[start :: 2 * n + 1][:rows]
            stack[0] = stack[: rows + 1].sum(axis=0)
        return float(h * ((k * k) @ np.fft.fft(stack[0]).real) / n)


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

    Raises ValueError if, after the damping, Hermiticity has drifted past
    1e-10 times the initial peak (at least 1e-10), which a non-finite grid
    does too.
    """
    _require_nonnegative("lam", lam)
    _require_nonnegative("tau_end", tau_end)

    h = tau_end
    n = grid.n_points
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.spacing)
    phase_k = np.exp(0.25j * h * k * k)
    # the factors are built in place: flight holds the corrected flight and
    # later the half flight, real the correction and later the damping
    flight = np.multiply(phase_k.conj()[:, None], phase_k)
    real = np.add(k[:, None], k[None, :])
    np.square(real, out=real)
    real *= -0.125 * lam * h**3
    np.exp(real, out=real)
    flight *= real

    # in place on the integrator's own copy; ifftn, because numpy 2's
    # ifft2 drops its out= argument
    rho = grid.values.astype(np.complex128, copy=True)
    initial_peak, _, _ = _peak(rho)
    rho = np.fft.fftn(rho, out=rho)
    rho *= flight
    rho = np.fft.ifftn(rho, out=rho)
    xs = grid.xs
    np.subtract(xs[:, None], xs[None, :], out=real)
    np.square(real, out=real)
    real *= -1.5 * lam * h
    np.exp(real, out=real)
    rho *= real
    del real
    herm = _hermiticity_error(rho)
    if not herm <= 1e-10 * max(1.0, initial_peak):
        raise ValueError(f"Hermiticity drifted to {herm:.3e}")
    rho = np.fft.fftn(rho, out=rho)
    np.multiply(phase_k.conj()[:, None], phase_k, out=flight)
    rho *= flight
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


def _block_factors(v, start, peak, xs, seed_phase, b_seed):
    """Householder R factors of one row block's weighted window rows
    [w y^2, w z^2, w, -w ln|v|] and [w y z, w u]; no window array outlives the call."""
    mag = np.abs(v[start : start + _ROW_BLOCK])
    window = np.flatnonzero(mag >= FIT_WINDOW_FLOOR * peak)
    mag = mag.ravel()[window]
    window += start * len(v)
    rows, cols = np.divmod(window, len(v))
    w = mag / peak
    y, z = xs[rows], xs[cols]
    y, z = y - z, y + z
    # transposed, each set is in LAPACK's Fortran order; one is factored before the next is built
    r_mag = np.linalg.qr(np.array([w * y * y, w * z * z, w, -w * np.log(mag)]).T, mode="r")
    yz = y * z
    # the seed's two factors are multiplied together before they meet v
    u = np.angle(v.ravel()[window] * (seed_phase[rows] * seed_phase.conj()[cols])) - b_seed * yz
    return r_mag, np.linalg.qr(np.array([w * yz, w * u]).T, mode="r")


def extract_gaussian_coefficients(grid: GridState) -> GaussianFit:
    """Weighted least-squares fit of -ln(kernel) to A y^2 + i B y z + C z^2 + D
    over the central window |kernel| >= FIT_WINDOW_FLOOR * peak.

    The magnitude fixes A, C; the phase fixes B, seeded by a cross stencil at
    the peak and rewrapped against that seed, so phase wraps across the
    window do not alias the fit.  Both least-squares problems run as the
    sequential tall-skinny QR of Demmel et al. (SIAM J. Sci. Comput. 34,
    2012): one more QR reduces the stacked R factors of the row blocks (u is
    the rewrapped phase), and R gives A, C, D and B by back substitution and
    the residual norms as its last diagonal entries.  A window that does not
    determine A, C and D raises ValueError, as does a residual above
    FIT_RESIDUAL_THRESHOLD (deliberately non-Gaussian input).
    """
    v, n = grid.values, grid.n_points
    peak, ic, jc = _peak(v)
    if peak <= 0.0:
        raise ValueError("kernel is identically zero")
    # phase part: arg v = -B y z; seed B from the mixed stencil at the peak
    if 1 <= ic < n - 1 and 1 <= jc < n - 1:
        up, left, right, down = np.angle(v[[ic + 1, ic, ic, ic - 1], [jc, jc - 1, jc + 1, jc]])
        b_seed = -(up - left - right + down) / (4.0 * grid.spacing**2)
    else:
        b_seed = 0.0
    xs = grid.xs
    # exp(-i predicted) = exp(i b_seed x^2) exp(-i b_seed x'^2): two length-n exps
    seed_phase = np.exp(1j * b_seed * xs * xs)
    # each block's R factors, stacked under zero factors so R is square
    blocks = range(0, n, _ROW_BLOCK)
    magnitude, phase = zip(*(_block_factors(v, s, peak, xs, seed_phase, b_seed) for s in blocks))
    r = np.linalg.qr(np.concatenate([np.zeros((4, 4)), *magnitude]), mode="r")
    r_phase = np.linalg.qr(np.concatenate([np.zeros((2, 2)), *phase]), mode="r")
    # column k lies within rounding of the span of those before it when |R_kk|
    # is within lstsq's cutoff, eps * rows, of the column's norm (rows <= n^2)
    cutoff = v.size * np.finfo(float).eps
    if not all(abs(r[k, k]) > cutoff * math.hypot(*r[: k + 1, k]) for k in range(3)):
        raise ValueError("the fit window does not determine A, C and D")
    a_fit, c_fit, _ = map(float, np.linalg.solve(r[:3, :3], r[:3, 3]))
    # R_phase[0, 0]^2 = sum (w yz)^2 and R_phase[0, 0] R_phase[0, 1] = sum w^2 yz u
    b_fit = b_seed if r_phase[0, 0] == 0.0 else float(-r_phase[0, 1] / r_phase[0, 0])
    # R's w column keeps its norm, sqrt(sum w^2)
    residual = math.hypot(r[3, 3], r_phase[1, 1]) / math.hypot(*r[:3, 2])
    if residual > FIT_RESIDUAL_THRESHOLD:
        raise ValueError(
            f"kernel deviates from the Gaussian form: residual {residual:.3e} "
            f"exceeds {FIT_RESIDUAL_THRESHOLD:.1e}"
        )
    return GaussianFit(a_coeff=a_fit, b_coeff=b_fit, c_coeff=c_fit, residual=residual)


def _centre_chained_phase(even: np.ndarray) -> np.ndarray:
    """Unit phases P with P^* even P real for a kernel real up to a diagonal
    phase.  The last index, nearest x = 0, has phase 1; every other index
    links to its largest-modulus entry toward it (the upper triangle), so
    its phase follows from the linked one's through that entry."""
    k = len(even)
    mags = np.triu(np.abs(even), 1)
    index = np.arange(k)
    nearest = np.argmax(mags, axis=1)
    # a row with no nonzero entry toward the centre links to its neighbour
    nearest = np.where(mags[index, nearest] > 0.0, nearest, np.minimum(index + 1, k - 1))
    # the angle, not entry / |entry|, which overflows for a subnormal entry
    unit = np.exp(1j * np.angle(even[index, nearest])).tolist()
    nearest = nearest.tolist()
    chain = [1.0 + 0.0j] * k
    for i in range(k - 2, -1, -1):
        chain[i] = chain[nearest[i]] * unit[i]
    phase = np.array(chain)
    return phase / np.abs(phase)


def _strip_phase(block: np.ndarray, phase: np.ndarray, bound: float) -> np.ndarray:
    """Re(P^* block P), rotating block in place, once Im(P^* block P) is
    checked to be within bound."""
    block *= phase.conj()[:, None]
    block *= phase
    residue = float(np.max(np.abs(block.imag)))
    if not residue <= bound:
        raise ValueError(f"kernel is not real up to a diagonal phase: deviation {residue:.3e}")
    return block.real


def eigendecompose_kernel(grid: GridState, count: int):
    """Top eigenvalues (descending) and grid eigenvectors of kernel * spacing.

    The kernel must be Hermitian and symmetric under the grid reflection
    J: x_i <-> x_{n-1-i}, as every centred Gaussian on a centred window is
    (rho(-x, -x') = rho(x, x')); either deviation above 1e-10 * max(1, peak)
    raises ValueError.  J splits the kernel into its even and odd sectors.
    With m = n // 2, L = v[:m, :m] and R[i, j] = v[i, n-1-j], the even block
    is L + R (for odd n bordered by sqrt(2) times the centre row and by the
    centre element) and the odd block is L - R.

    The kernel must also be real up to a diagonal phase, rho = P F P^* with
    F real and |P_ii| = 1, as every Gaussian kernel is (its chirp
    exp(-i B (x^2 - x'^2)) is such a P).  P is read from the even block,
    never from B, by chaining phases outward from the grid point nearest
    x = 0 (see _centre_chained_phase), and the odd block shares it.  A
    leftover imaginary part above 1e-10 * max(1, peak) in either block
    raises ValueError.  The rotation P^* block P is an exact unitary
    similarity, and the leftover part of a Hermitian block is i K with K
    real antisymmetric, so u^T K u = 0 for every real u and dropping it
    moves an eigenvalue only at second order, by at most |K|^2 / gap (Golub
    & Van Loan, Matrix Computations, 4th ed., sec. 8.1).  Each real
    half-size block gets its own LAPACK eigh; the spectra merge in
    descending order, and a sector vector u lifts to
    P [u/sqrt(2), (u_centre), +-reversed(u)/sqrt(2)], so
    eigenvector k of a Gaussian ladder has parity (-1)^k.
    """
    if not (1 <= count <= 32):
        raise ValueError(f"count must be between 1 and 32, got {count}")
    v, n = grid.values, grid.n_points
    bound = 1e-10 * max(1.0, _peak(v)[0])
    herm = _hermiticity_error(v)
    if not herm <= bound:
        raise ValueError(f"grid is not Hermitian: deviation {herm:.3e}")
    asym = _reflection_error(v)
    if not asym <= bound:
        raise ValueError(f"grid is not reflection symmetric: deviation {asym:.3e}")

    m = n // 2
    k = n - m  # even-block size; index k - 1 is the grid point nearest x = 0
    left, right = v[:m, :m], v[:m, ::-1][:, :m]
    even = np.empty((k, k), dtype=v.dtype)
    np.add(left, right, out=even[:m, :m])
    if n % 2:
        even[:m, m] = math.sqrt(2.0) * v[:m, m]
        even[m, :m] = math.sqrt(2.0) * v[m, :m]
        even[m, m] = v[m, m]
    odd = np.subtract(left, right)
    phase = _centre_chained_phase(even)
    even = _strip_phase(even, phase, bound) * grid.spacing
    odd = _strip_phase(odd, phase[:m], bound) * grid.spacing
    even_vals, even_vecs = np.linalg.eigh(even)
    odd_vals, odd_vecs = np.linalg.eigh(odd)

    # eigh returns ascending eigenvalues; merge the two descending spectra
    # and lift only the top count vectors, so the caller keeps no n x n array
    eigvals = np.concatenate([even_vals[::-1], odd_vals[::-1]])
    top = np.argsort(-eigvals, kind="stable")[:count]
    is_even = top < k
    sector = np.zeros((k, len(top)), dtype=complex)
    sector[:, is_even] = even_vecs[:, ::-1][:, top[is_even]]
    sector[:m, ~is_even] = odd_vecs[:, ::-1][:, top[~is_even] - k]
    sector *= phase[:, None]
    half = sector[:m] / math.sqrt(2.0)
    parity = np.where(is_even, 1.0, -1.0)
    return eigvals[top], np.concatenate([half, sector[m:], parity * half[::-1]])

