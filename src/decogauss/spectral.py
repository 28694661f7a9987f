"""Spectral decomposition of the Gaussian density matrix.

The eigenvalues form the geometric ladder p_n = N^n/(N+1)^(n+1) with mean
excitation N = (sqrt(A/C) - 1)/2, and the eigenstates are harmonic
oscillator eigenfunctions of width parameter alpha = 4*sqrt(A*C) carrying
an extra exp(-iB x^2) phase.  Ladder arithmetic runs in log space: at
N ~ 1e26 the factor (N+1)^(n+1) overflows immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .evolution import GaussianDensityMatrix

__all__ = [
    "SpectralSummary",
    "EigenstateSpec",
    "mean_excitation",
    "eigenvalue",
    "von_neumann_entropy",
    "truncation_index",
    "captured_mass",
    "spectral_summary",
    "eigenstate_spec",
    "eigenstate_amplitude",
]

#: Ladders are never enumerated past this index; callers working at
#: macroscopic N receive summary statistics instead.
INDEX_CAP = 10**6

#: Share of the ladder's mass a spectral summary's truncation index captures.
TARGET_MASS = 1.0 - 1e-9


@dataclass(frozen=True)
class SpectralSummary:
    mean_excitation: float
    entropy_nats: float
    p0: float
    truncation_index: int
    captured_mass: float


@dataclass(frozen=True)
class EigenstateSpec:
    """Parameters of the n-th eigenfunction: the real exponent coefficient
    2*sqrt(A*C) and the phase coefficient B."""

    index: int
    width_parameter: float    # 1/length^2, value 2*sqrt(A*C)
    phase_coefficient: float  # 1/length^2, value B

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("index must be nonnegative")
        if not (math.isfinite(self.width_parameter) and self.width_parameter > 0.0):
            raise ValueError("width_parameter must be positive")


def mean_excitation(state: GaussianDensityMatrix) -> float:
    """N = (sqrt(A/C) - 1)/2, clipped at 0 against rounding of pure states."""
    ratio = state.a_coeff / state.c_coeff
    return max(0.0, 0.5 * (math.sqrt(ratio) - 1.0))


def eigenvalue(n_mean: float, n: int) -> float:
    """p_n = N^n / (N+1)^(n+1), computed as exp(n ln N - (n+1) ln(N+1))."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not (math.isfinite(n_mean) and n_mean >= 0.0):
        raise ValueError(f"mean excitation must be finite and nonnegative, got {n_mean!r}")
    if n_mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(n_mean) - (n + 1) * math.log1p(n_mean))


def von_neumann_entropy(n_mean: float) -> float:
    """S = (N+1) ln(N+1) - N ln N in nats, with the N -> 0 limit 0.

    Evaluated as ln(N+1) + N ln(1 + 1/N) through log1p, which keeps both
    the small-N limit and the large-N asymptote ln N + 1 + 1/(2N) exact.
    Where 1/N overflows (subnormal N), N ln(1 + 1/N) is taken as
    N (ln(1+N) - ln N) instead.
    """
    if not (math.isfinite(n_mean) and n_mean >= 0.0):
        raise ValueError(f"mean excitation must be finite and nonnegative, got {n_mean!r}")
    if n_mean == 0.0:
        return 0.0
    inverse = 1.0 / n_mean
    if inverse == math.inf:
        return math.log1p(n_mean) + n_mean * (math.log1p(n_mean) - math.log(n_mean))
    return math.log1p(n_mean) + n_mean * math.log1p(inverse)


def captured_mass(n_mean: float, n_max: int) -> float:
    """Sum of p_0..p_n_max = 1 - (N/(N+1))^(n_max+1), via expm1."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not (math.isfinite(n_mean) and n_mean >= 0.0):
        raise ValueError(f"mean excitation must be finite and nonnegative, got {n_mean!r}")
    if n_mean == 0.0:
        return 1.0
    log_ratio = -math.log1p(1.0 / n_mean)  # ln(N/(N+1)) < 0
    return -math.expm1((n_max + 1) * log_ratio)


def truncation_index(n_mean: float, target_mass: float) -> int:
    """Smallest n with captured_mass(N, n) >= target_mass."""
    if not (0.0 < target_mass < 1.0):
        raise ValueError(f"target_mass must lie in (0, 1), got {target_mass!r}")
    if not (math.isfinite(n_mean) and n_mean >= 0.0):
        raise ValueError(f"mean excitation must be finite and nonnegative, got {n_mean!r}")
    if n_mean == 0.0:
        return 0
    log_ratio = -math.log1p(1.0 / n_mean)
    n = max(0, math.ceil(math.log(1.0 - target_mass) / log_ratio - 1.0))
    # guard the analytic estimate against one-ulp misses; past a few steps
    # adjacent indices are indistinguishable at double precision anyway
    for _ in range(4):
        if n > 0 and captured_mass(n_mean, n - 1) >= target_mass:
            n -= 1
        else:
            break
    for _ in range(4):
        if captured_mass(n_mean, n) < target_mass:
            n += 1
        else:
            break
    return n


def spectral_summary(state: GaussianDensityMatrix) -> SpectralSummary:
    """Summary statistics of the eigenvalue ladder, truncated at TARGET_MASS
    and capped at INDEX_CAP so it is never enumerated at macroscopic N."""
    n_mean = mean_excitation(state)
    n_max = min(INDEX_CAP, truncation_index(n_mean, TARGET_MASS))
    return SpectralSummary(
        mean_excitation=n_mean,
        entropy_nats=von_neumann_entropy(n_mean),
        p0=eigenvalue(n_mean, 0),
        truncation_index=n_max,
        captured_mass=captured_mass(n_mean, n_max),
    )


def eigenstate_spec(state: GaussianDensityMatrix, n: int) -> EigenstateSpec:
    """Width 2*sqrt(A)*sqrt(C): A and C can each be representable while
    their product is not (initial_dx_m = 1e-150 m: A ~ 2e-23, C ~ 6e-306)."""
    return EigenstateSpec(
        index=n,
        width_parameter=2.0 * math.sqrt(state.a_coeff) * math.sqrt(state.c_coeff),
        phase_coefficient=state.b_coeff,
    )


def eigenstate_amplitude(spec: EigenstateSpec, x):
    """phi_n(x), unit L^2 norm, vectorized over x.

    phi_n(x) = (alpha/pi)^(1/4) (2^n n!)^(-1/2) H_n(sqrt(alpha) x)
               * exp{-(alpha/2) x^2 - i B x^2},  alpha = 2*width_parameter,

    evaluated through the normalized Hermite-function recurrence
    h_n = sqrt(2/n) u h_{n-1} - sqrt((n-1)/n) h_{n-2}.  The values are
    carried as mantissa * 2^exponent per point: at large n the seed
    Gaussian underflows a plain double in the classically allowed region
    (u ~ sqrt(2n)) long before the polynomial growth compensates, which
    would silently zero the outer lobes.  Scaled, the recurrence is good
    to n well past 1e4.
    """
    import numpy as np

    alpha = 2.0 * spec.width_parameter
    x = np.asarray(x, dtype=float)
    u = math.sqrt(alpha) * x
    # seed pi^-1/4 exp(-u^2/2) as mantissa * 2^exponent
    log2_seed = -0.5 * u * u / math.log(2.0) - 0.25 * math.log2(math.pi)
    exponent = np.floor(log2_seed)
    h_prev = np.exp2(log2_seed - exponent)
    ex_prev = exponent.astype(np.int32)
    if spec.index == 0:
        h_n, ex_n = h_prev, ex_prev
    else:
        h_n, ex_n = math.sqrt(2.0) * u * h_prev, ex_prev.copy()
        for k in range(2, spec.index + 1):
            aligned = np.ldexp(h_prev, ex_prev - ex_n)
            h_next = math.sqrt(2.0 / k) * u * h_n - math.sqrt((k - 1) / k) * aligned
            h_prev, ex_prev = h_n, ex_n.copy()
            h_n = h_next
            mant, shift = np.frexp(h_n)
            nonzero = mant != 0.0
            h_n = np.where(nonzero, mant, h_n)
            ex_n = ex_n + np.where(nonzero, shift, 0)
    value = np.ldexp(h_n, ex_n)
    if not np.all(np.isfinite(value)):
        raise OverflowError(f"Hermite recurrence overflowed at n={spec.index}")
    return alpha**0.25 * value * np.exp(-1j * spec.phase_coefficient * x * x)

