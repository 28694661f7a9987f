"""Seeded scenario configs over the whole range the report handles.

The ranges are those of the benchmark's report sweep: mass 1e-18..10 kg,
initial dx 1e-35..1e-6 m, t 1e-3..1e4 s, air or a generic environment, and
0..32 observation windows; one scenario in six has a 256..512-sample
trajectory.  Every fifth scenario is named "baseball", which with [air]
attaches the published references and their deviations to rows computed far
from the preset, and the discrepancy ledger.
"""

from __future__ import annotations

import math
import random


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return 10.0 ** rng.uniform(math.log10(low), math.log10(high))


def random_config(rng: random.Random, name: str, centres: int) -> str:
    """Config text for one scenario with `centres` observation windows."""
    mass = _log_uniform(rng, 1e-18, 10.0)
    density = _log_uniform(rng, 500.0, 2e4)
    radius = (3.0 * mass / (4.0 * math.pi * density)) ** (1.0 / 3.0)
    lines = [
        "[scenario]",
        f"name = {name}",
        f"initial_dx_m = {_log_uniform(rng, 1e-35, 1e-6)!r}",
        f"evolution_time_s = {_log_uniform(rng, 1e-3, 1e4)!r}",
    ]
    if rng.random() < 1.0 / 3.0:
        lines.append(f"speed_m_s = {rng.uniform(0.1, 100.0)!r}")
    lines += ["", "[particle]", f"mass_kg = {mass!r}", f"radius_m = {radius!r}", ""]
    if rng.random() < 0.5:
        lines += [
            "[air]",
            f"molecular_mass_kg = {4.80965e-26 * rng.uniform(0.5, 2.0)!r}",
            f"mass_density_kg_m3 = {_log_uniform(rng, 1e-6, 10.0)!r}",
            f"temperature_K = {rng.uniform(2.0, 400.0)!r}",
        ]
    else:
        lines += [
            "[environment]",
            f"number_density_per_m3 = {_log_uniform(rng, 1.0, 1e26)!r}",
            f"cross_section_m2 = {_log_uniform(rng, 1e-30, 1e-2)!r}",
            f"relative_velocity_m_s = {_log_uniform(rng, 1.0, 1e3)!r}",
            f"rms_wavenumber_per_m = {_log_uniform(rng, 1.0, 1e12)!r}",
        ]
    if centres:
        width = _log_uniform(rng, 1e-9, 1e3)
        xs = [width * (-4.0 + 8.0 * k / max(1, centres - 1)) for k in range(centres)]
        lines += [
            "",
            "[observation]",
            "centers_m = " + ", ".join(repr(x) for x in xs),
            f"alpha_per_m2 = {rng.uniform(0.0, 1.0) / width**2!r}",
            f"gamma_per_m2 = {1.0 / width**2!r}",
        ]
    return "\n".join(lines) + "\n"


def sweep(seed: int, count: int):
    """Yield (config text, samples) for `count` scenarios of stream `seed`."""
    rng = random.Random(f"sweep:{seed}")
    for index in range(count):
        name = "baseball" if index % 5 == 0 else f"sweep-{seed}-{index}"
        samples = rng.randint(256, 512) if index % 6 == 3 else 8
        yield random_config(rng, name, rng.randint(0, 32)), samples
