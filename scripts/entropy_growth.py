"""Tabulate the decohered baseball's entropy and mean excitation against
flight time, showing the N ~ t^(3/2) growth and the measured d S / d ln t
coefficient of 3/2.

Usage: python scripts/entropy_growth.py
"""

import math

from decogauss.evolution import evolve
from decogauss.model import tau_from_time
from decogauss.scenarios import baseball_scenario, evolve_scenario
from decogauss.spectral import mean_excitation, von_neumann_entropy
from decogauss.units import PLANCK_LENGTH

scenario = baseball_scenario()
evolution = evolve_scenario(scenario)
area = PLANCK_LENGTH**2  # m^2 per squared Planck length

t_flight = scenario.evolution_time_s
print(f"{'t / t_flight':>12} {'N':>13} {'S (nats)':>9} {'dS/dln t':>9}")
previous = None
for factor in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
    tau = tau_from_time(factor * t_flight, scenario.particle) / area
    n_mean = mean_excitation(evolve(evolution.cubic, tau))
    entropy = von_neumann_entropy(n_mean)
    slope = "" if previous is None else f"{(entropy - previous[1]) / math.log(factor / previous[0]):9.4f}"
    print(f"{factor:>12.2f} {n_mean:>13.4e} {entropy:>9.3f} {slope:>9}")
    previous = (factor, entropy)
