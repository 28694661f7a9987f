"""Tabulate the decohered baseball's entropy and mean excitation against
flight time, showing the N ~ t^(3/2) growth and the measured d S / d ln t
coefficient of 3/2.

Usage: python scripts/entropy_growth.py
"""

import dataclasses
import math

from decogauss.scenarios import baseball_scenario, run

scenario = baseball_scenario()
t_flight = scenario.evolution_time_s
factors = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
report = run(dataclasses.replace(scenario, sample_times_s=tuple(f * t_flight for f in factors)))

print(f"{'t / t_flight':>12} {'N':>13} {'S (nats)':>9} {'dS/dln t':>9}")
previous = None
for factor, row in zip(factors, report.trajectory):
    slope = "" if previous is None else f"{(row.entropy - previous[1]) / math.log(factor / previous[0]):9.4f}"
    print(f"{factor:>12.2f} {row.n_mean:>13.4e} {row.entropy:>9.3f} {slope:>9}")
    previous = (factor, row.entropy)
