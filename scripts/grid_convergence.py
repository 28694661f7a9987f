"""Step-size convergence study of the grid integrator against the closed form.

Integrates one O(1) decoherence problem at a fixed ladder of step counts
(1, 2, 4, 8, 16) and prints the closed-form disagreement with the observed
order.  The disagreement falls 32x per halving (order 5.0 at the default
96-point grid: 2.7e-4 at one step, 2.6e-10 at sixteen).

Usage: python scripts/grid_convergence.py [n_points]
"""

import math
import sys

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
print(f"{'steps':>8} {'disagreement':>14} {'order':>7}")
previous = None
for steps in (1, 2, 4, 8, 16):
    evolved = integrate_master_equation(grid, lam, tau_end, n_steps=steps)
    fit = extract_gaussian_coefficients(evolved)
    err = max(
        abs(fit.a_coeff - exact.a_coeff) / exact.a_coeff,
        abs(fit.b_coeff - exact.b_coeff) / abs(exact.b_coeff),
        abs(fit.c_coeff - exact.c_coeff) / exact.c_coeff,
    )
    order = "" if previous is None else f"{math.log2(previous / err):7.2f}"
    print(f"{steps:>8} {err:>14.3e} {order:>7}")
    previous = err
