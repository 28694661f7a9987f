"""Set the paper's two answers side by side for the 100 mph baseball.

Decoherence raises the entropy S of the full state from 0 to about 61 nats,
whatever is observed.  What an observation shows is the measure tr(A rho) of
a window, here centred at 0 with alpha = 0: this tabulates it with and
without decoherence over a scan of the window's sharpness gamma, and their
ratio.  Only a window sharper than gamma ~ B^2/(4A) ~ 4e16 /m^2 (about
1e-8 m wide) tells the two states apart.

Usage: python scripts/observation_contrast.py
"""

import dataclasses

from decogauss.scenarios import ObservationFamilySpec, baseball_scenario, run

GAMMAS = (1e-5, 1e10, 1e15, 1e16, 1e17, 1e18, 1e20)


def report(disable_decoherence, gamma):
    scenario = dataclasses.replace(
        baseball_scenario(),
        disable_decoherence=disable_decoherence,
        observation=ObservationFamilySpec((0.0,), 0.0, gamma),
    )
    return run(scenario, samples=1)


def entropy(result):
    return next(row.value for row in result.scalars if row.name == "entropy_nats")


print(f"S = {entropy(report(False, GAMMAS[0])):.3f} nats with decoherence, "
      f"{entropy(report(True, GAMMAS[0])):.3f} without")
print(f"{'gamma (1/m^2)':>13} {'decohered':>15} {'unitary':>15} {'ratio':>12}")
for gamma in GAMMAS:
    decohered, unitary = (report(flag, gamma).profile[0].measure for flag in (False, True))
    print(f"{gamma:>13.0e} {decohered:>15.8e} {unitary:>15.8e} {decohered / unitary:>12.8g}")
