import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import valid_states
from decogauss.evolution import CubicSolution, GaussianDensityMatrix, evolve, purity
from decogauss.spectral import (
    EigenstateSpec,
    captured_mass,
    eigenstate_amplitude,
    eigenstate_spec,
    eigenvalue,
    mean_excitation,
    spectral_summary,
    truncation_index,
    von_neumann_entropy,
)
from _quad import quad_overlap

MIXED = GaussianDensityMatrix(0.75, -0.5, 0.0625)
N_MIXED = math.sqrt(3) - 0.5  # (sqrt(12) - 1)/2


def ladder_entropy(n_mean, tail=1e-13):
    """Brute-force -sum p_n ln p_n, truncated when the captured mass
    reaches 1 - tail."""
    total = 0.0
    mass = 0.0
    n = 0
    while mass < 1.0 - tail:
        p = eigenvalue(n_mean, n)
        if p > 0.0:
            total -= p * math.log(p)
        mass += p
        n += 1
    return total


# --- mean excitation -----------------------------------------------------------

def test_mean_excitation_pure():
    assert mean_excitation(GaussianDensityMatrix(0.5, 0.0, 0.5)) == 0.0


def test_mean_excitation_hand_value():
    assert mean_excitation(MIXED) == pytest.approx(N_MIXED, rel=1e-14)


# --- eigenvalues ----------------------------------------------------------------

def test_eigenvalue_pure():
    assert eigenvalue(0.0, 0) == 1.0
    assert eigenvalue(0.0, 3) == 0.0


def test_eigenvalue_hand_value():
    assert eigenvalue(N_MIXED, 1) == pytest.approx(N_MIXED / (N_MIXED + 1.0) ** 2, rel=1e-13)
    assert eigenvalue(N_MIXED, 1) == pytest.approx(0.24730, rel=1e-4)


def test_eigenvalue_baseball_p0():
    n_mean = 1.12538e26
    assert eigenvalue(n_mean, 0) == pytest.approx(1.0 / (n_mean + 1.0), rel=1e-12)
    assert 0.5e-26 <= eigenvalue(n_mean, 0) * 2 <= 4e-26  # order 1e-26


def test_eigenvalues_decreasing_and_normalized():
    for n_mean in (0.3, 1.0, 7.5):
        count = truncation_index(n_mean, 1.0 - 1e-13) + 1
        ladder = [eigenvalue(n_mean, n) for n in range(count)]
        assert all(a > b for a, b in zip(ladder, ladder[1:]))
        assert sum(ladder) == pytest.approx(1.0, abs=1e-12)


def test_eigenvalue_rejects_bad_arguments():
    with pytest.raises(ValueError):
        eigenvalue(1.0, -1)
    with pytest.raises(ValueError):
        eigenvalue(-0.5, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: captured_mass(1.0, -1), "n_max must be nonnegative"),
        (lambda: EigenstateSpec(-1, 1.0, 0.0), "index must be nonnegative"),
    ],
    ids=["captured_mass", "EigenstateSpec"],
)
def test_negative_level_index_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda n: eigenvalue(n, 0),
        von_neumann_entropy,
        lambda n: truncation_index(n, 0.5),
        lambda n: captured_mass(n, 3),
    ],
    ids=["eigenvalue", "von_neumann_entropy", "truncation_index", "captured_mass"],
)
@pytest.mark.parametrize("n_mean", [math.inf, math.nan, -1.0])
def test_bad_mean_excitation_message(call, n_mean):
    message = f"mean excitation must be nonnegative and finite, got {n_mean!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(n_mean)


# --- entropy --------------------------------------------------------------------

def test_entropy_pure_is_zero():
    assert von_neumann_entropy(0.0) == 0.0


def test_entropy_hand_value_against_ladder_sum():
    value = von_neumann_entropy(N_MIXED)
    assert value == pytest.approx(1.5350555459442172, rel=1e-12)
    assert value == pytest.approx(ladder_entropy(N_MIXED), abs=1e-8)


def test_entropy_asymptotic_form():
    for n_mean in (150.0, 1e4, 1e10):
        asymptotic = math.log(n_mean) + 1.0 + 1.0 / (2.0 * n_mean)
        assert von_neumann_entropy(n_mean) == pytest.approx(asymptotic, rel=1e-4)


@pytest.mark.parametrize("n_mean", [5e-324, 1e-310, 1e-300])
def test_entropy_of_nearly_pure_states_against_mpmath(n_mean):
    # below about 5.6e-309, 1/N overflows and log1p(1/N) read inf
    with mpmath.workdps(50):
        n = mpmath.mpf(n_mean)
        exact = float((n + 1) * mpmath.log1p(n) - n * mpmath.log(n))
    assert abs(von_neumann_entropy(n_mean) - exact) <= 2 * math.ulp(exact)


@pytest.mark.parametrize("n_mean", [0.1, 1.0, 10.0, 100.0])
def test_entropy_consistency_with_truncated_sum(n_mean):
    assert von_neumann_entropy(n_mean) == pytest.approx(ladder_entropy(n_mean), abs=1e-8)


# --- truncation -----------------------------------------------------------------

def brute_force_truncation(n_mean, target):
    mass = 0.0
    n = 0
    while True:
        mass += eigenvalue(n_mean, n)
        if mass >= target:
            return n
        n += 1


def test_truncation_pure():
    assert truncation_index(0.0, 0.999) == 0


def test_truncation_geometric_examples():
    assert truncation_index(1.0, 0.999) == 9
    assert truncation_index(1.0, 0.999) == brute_force_truncation(1.0, 0.999)
    assert truncation_index(N_MIXED, 0.99) == 7
    assert truncation_index(N_MIXED, 0.99) == brute_force_truncation(N_MIXED, 0.99)


@settings(max_examples=50)
@given(n_mean=st.floats(0.01, 50.0), target=st.floats(0.5, 0.999999))
def test_truncation_matches_brute_force(n_mean, target):
    assert truncation_index(n_mean, target) == brute_force_truncation(n_mean, target)


def test_truncation_rejects_bad_target():
    with pytest.raises(ValueError):
        truncation_index(1.0, 1.0)
    with pytest.raises(ValueError):
        truncation_index(1.0, 0.0)


def test_captured_mass_matches_direct_sum():
    for n_mean, n_max in [(0.4, 3), (1.0, 9), (12.0, 40)]:
        direct = sum(eigenvalue(n_mean, n) for n in range(n_max + 1))
        assert captured_mass(n_mean, n_max) == pytest.approx(direct, rel=1e-12)


def test_spectral_summary_fields():
    summary = spectral_summary(MIXED)
    assert summary.mean_excitation == pytest.approx(N_MIXED, rel=1e-13)
    assert summary.p0 == pytest.approx(1.0 / (N_MIXED + 1.0), rel=1e-13)
    assert summary.captured_mass == pytest.approx(
        captured_mass(N_MIXED, summary.truncation_index), rel=1e-13
    )
    assert summary.captured_mass >= 1.0 - 1e-9


def test_spectral_summary_caps_macroscopic_ladders():
    state = GaussianDensityMatrix(2e-23, -2.8e-38, 3.9e-76)
    summary = spectral_summary(state)
    assert summary.truncation_index == 10**6
    assert summary.captured_mass < 1e-12
    assert summary.mean_excitation > 1e25


# --- eigenstates ----------------------------------------------------------------

def test_ground_state_density_is_gaussian():
    spec = eigenstate_spec(MIXED, 0)
    sigma_sq = 1.0 / (8.0 * math.sqrt(MIXED.a_coeff * MIXED.c_coeff))
    xs = np.linspace(-10, 10, 4001)
    h = xs[1] - xs[0]
    density = np.abs(eigenstate_amplitude(spec, xs)) ** 2
    pdf = np.exp(-(xs**2) / (2 * sigma_sq)) / math.sqrt(2 * math.pi * sigma_sq)
    assert np.max(np.abs(density - pdf)) < 1e-10


@pytest.mark.parametrize("a, c", [(1.3e160, 1.3e160), (2e-23, 6e-306)])
def test_eigenstate_width_survives_a_product_outside_the_normal_range(a, c):
    # A*C overflows, or underflows below the normal doubles, while each root
    # is representable; the width must not come out infinite or zero
    spec = eigenstate_spec(GaussianDensityMatrix(a, 0.0, c), 0)
    assert spec.width_parameter == 2 * math.sqrt(a) * math.sqrt(c)


def test_odd_eigenstate_vanishes_at_origin():
    spec = eigenstate_spec(MIXED, 1)
    assert abs(eigenstate_amplitude(spec, 0.0)) == 0.0


def test_eigenstate_gram_matrix():
    xs = np.linspace(-14, 14, 6001)
    h = xs[1] - xs[0]
    amps = [eigenstate_amplitude(eigenstate_spec(MIXED, n), xs) for n in range(3)]
    for m in range(3):
        for n in range(3):
            overlap = quad_overlap(amps[m], amps[n], h)
            assert abs(overlap - (1.0 if m == n else 0.0)) < 1e-8


def test_eigenstate_density_independent_of_phase_coefficient():
    xs = np.linspace(-6, 6, 501)
    densities = []
    for b in (0.0, 0.5, -0.5):
        state = GaussianDensityMatrix(0.75, b, 0.0625)
        densities.append(np.abs(eigenstate_amplitude(eigenstate_spec(state, 2), xs)) ** 2)
    assert np.allclose(densities[0], densities[1], atol=1e-14)
    assert np.allclose(densities[0], densities[2], atol=1e-14)


def test_eigenstate_recurrence_stable_to_large_n():
    spec = eigenstate_spec(GaussianDensityMatrix(0.6, 0.0, 0.4), 2000)
    xs = np.linspace(-80, 80, 20001)
    amp = eigenstate_amplitude(spec, xs)
    assert np.all(np.isfinite(amp.real))
    norm = float(np.sum(np.abs(amp) ** 2) * (xs[1] - xs[0]))
    assert norm == pytest.approx(1.0, rel=1e-6)


# --- eigenstate variances -------------------------------------------------------

def test_eigenstate_variance_hand_value_and_quadrature():
    # <x^2> in the n-th eigenstate is (2n+1)/(8 sqrt(A C))
    want = 7.0 / (8.0 * math.sqrt(0.75 * 0.0625))
    assert want == pytest.approx(4.0415, rel=1e-4)
    xs = np.linspace(-16, 16, 8001)
    h = xs[1] - xs[0]
    amp = eigenstate_amplitude(eigenstate_spec(MIXED, 3), xs)
    quad = float(np.sum(xs**2 * np.abs(amp) ** 2) * h)
    assert want == pytest.approx(quad, rel=1e-8)


def test_weighted_variance_equals_cubic_variance():
    cubic = CubicSolution(lam=1.0, a2=0.5, a1=0.0, a0=0.5, ratio0=1.0)
    state = evolve(cubic, 1.0)
    # the eigenvalue-weighted variance (2N+1)/(8 sqrt(AC)) is 1/(8C)
    weighted = 1.0 / (8.0 * state.c_coeff)
    assert weighted == pytest.approx(2.0, rel=1e-12)
    assert weighted == pytest.approx(cubic.x_value(1.0), rel=1e-12)


# --- purity consistency ---------------------------------------------------------

@settings(max_examples=60)
@given(state=valid_states(max_ratio=100.0))
def test_ladder_purity_matches_closed_form(state):
    n_mean = mean_excitation(state)
    assert purity(state) == pytest.approx(1.0 / (2.0 * n_mean + 1.0), rel=1e-10)


def test_ladder_purity_sum():
    total = sum(eigenvalue(N_MIXED, n) ** 2 for n in range(400))
    assert total == pytest.approx(1.0 / (2.0 * N_MIXED + 1.0), rel=1e-10)
