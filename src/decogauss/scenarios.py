"""Scenario ingestion, the built-in baseball preset, and report generation.

A scenario is ingested in SI, converted once to dimensionless Planck form,
evolved there, and converted back only for report rows: this module is the
one SI-Planck boundary, and the library computes in the unit it is handed.
Reports are bit-deterministic: fixed row order, 9 significant digits for
values, 3 for deviations.  For the baseball preset every published
comparison value is attached to its row and the three known discrepancies
of the published description (composite rate formula off by 2*pi,
averaged-A exponent, entropy growth coefficient) are recorded in the
report's discrepancy ledger.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, fields
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import add
from types import SimpleNamespace
from typing import NamedTuple, Optional

from .averaging import phase_average
from .evolution import (
    CubicSolution,
    GaussianDensityMatrix,
    cubic_from_initial,
    evolve,
    minimum_uncertainty_initial,
    momentum_variance,
    position_variance,
    purity,
)
from .model import (
    AirModel,
    FreeParticle,
    ScatteringEnvironment,
    air_environment,
    big_lambda,
    lambda_coefficient,
    lambda_composite_crosscheck,
    tau_from_time,
    _require_finite,
    _require_nonnegative,
    _require_positive,
)
from .observation import measure_profile
from .spectral import eigenstate_spec, eigenvalue, mean_excitation, von_neumann_entropy
from .units import H, HBAR, PLANCK_LENGTH, SPEED_OF_LIGHT, STANDARD_GRAVITY

__all__ = [
    "Scenario",
    "ObservationFamilySpec",
    "Report",
    "ScenarioEvolution",
    "ScalarRow",
    "TrajectoryRow",
    "DiscrepancyEntry",
    "ProfileRow",
    "ConfigError",
    "flight_time",
    "baseball_scenario",
    "evolve_scenario",
    "run",
    "profile_rows",
    "load_scenario",
    "emit",
    "tolerance_failures",
]

OUNCE_KG = 0.028349523125
JULIAN_YEAR_S = 31557600.0
# m^2 per l_Pl^2, the one scale between SI and Planck units
_AREA = PLANCK_LENGTH**2


class ConfigError(Exception):
    """Exit code 2: a config that cannot be read or parsed, a missing,
    unknown or doubly supplied key, or an unwritable --output."""


@dataclass(frozen=True)
class ObservationFamilySpec:
    centers_m: tuple[float, ...]
    alpha_per_m2: float
    gamma_per_m2: float

    def __post_init__(self):
        if not (self.centers_m and all(math.isfinite(c) for c in self.centers_m)):
            raise ValueError(f"centers_m must be nonempty and finite, got {self.centers_m!r}")
        _require_nonnegative("alpha_per_m2", self.alpha_per_m2)
        _require_positive("gamma_per_m2", self.gamma_per_m2)


@dataclass(frozen=True)
class Scenario:
    particle: FreeParticle
    initial_dx_m: float
    evolution_time_s: float
    air: Optional[AirModel] = None
    environment: Optional[ScatteringEnvironment] = None
    speed_m_s: Optional[float] = None
    sample_times_s: Optional[tuple[float, ...]] = None
    observation: Optional[ObservationFamilySpec] = None
    disable_decoherence: bool = False
    name: str = ""

    def __post_init__(self):
        if (self.air is None) == (self.environment is None):
            raise ValueError("exactly one of air or environment must be present")
        _require_positive("evolution_time_s", self.evolution_time_s)
        _require_positive("initial_dx_m", self.initial_dx_m)
        if self.speed_m_s is not None:
            _require_positive("speed_m_s", self.speed_m_s)
        if self.sample_times_s is not None and not (
            self.sample_times_s and all(math.isfinite(t) and t >= 0.0 for t in self.sample_times_s)
        ):
            raise ValueError(f"sample_times_s must be nonempty, finite and nonnegative, got {self.sample_times_s!r}")
        if self.air is not None and self.particle.radius is None:
            raise ValueError("air needs particle.radius to derive a cross section")
        # the text and CSV reports write the name on one line, and the config reader strips it
        if self.name != self.name.strip() or len(self.name.splitlines()) > 1:
            raise ValueError(f"name must be one line without outer whitespace, got {self.name!r}")


@dataclass(frozen=True)
class ScalarRow:
    name: str
    value: float
    unit: str
    reference: Optional[float] = None
    deviation: Optional[float] = None  # (value - reference) / reference


# the two all-numeric row types are named tuples: every field is an emitted
# column, in column order
class TrajectoryRow(NamedTuple):
    t_s: float
    tau: float
    dx2: float
    dp2: float
    a_coeff: float
    b_coeff: float
    c_coeff: float
    n_mean: float
    entropy: float


@dataclass(frozen=True)
class DiscrepancyEntry:
    description: str
    stated: str
    computed: float


class ProfileRow(NamedTuple):
    center: float
    measure: float


@dataclass(frozen=True)
class Report:
    scenario_name: str
    scalars: tuple[ScalarRow, ...]
    trajectory: tuple[TrajectoryRow, ...]
    discrepancies: tuple[DiscrepancyEntry, ...]
    profile: tuple[ProfileRow, ...]


def flight_time(speed: float) -> float:
    """Level-ground flight time of a 45-degree launch: sqrt(2)*v/g."""
    _require_positive("speed_m_s", speed)
    return math.sqrt(2.0) * speed / STANDARD_GRAVITY


def baseball_scenario() -> Scenario:
    """The 100 mph baseball: Planck momentum, minimum-uncertainty start at
    half a Planck length, sea-level standard air, 45-degree flight time."""
    speed = 44.704
    return Scenario(
        particle=FreeParticle(mass=0.1459553, radius=0.0369),
        initial_dx_m=PLANCK_LENGTH / 2.0,
        evolution_time_s=flight_time(speed),
        air=AirModel(molecular_mass=4.80965e-26, mass_density=1.2250, temperature=288.15),
        speed_m_s=speed,
        name="baseball",
    )


# published comparison values for the baseball preset: name -> (reference,
# strict tolerance mode, strict tolerance).  The order-of-magnitude entries
# are checked at factor 2; digit-quoted ones at their published precision.
_BASEBALL_REFERENCES = {
    "momentum_kg_m_s": (6.524785, "rel", 1e-4),
    "flight_time_s": (6.44675, "abs", 1e-5),
    "mass_ounces": (5.148421, "rel", 1e-3),
    "air_speed_m_s": (498.144, "rel", 1e-4),
    "cross_section_m2": (4.28e-3, "rel", 3e-3),
    "tau_m2": (5e-33, "factor", 2.0),
    "tau_planck": (2e37, "factor", 2.0),
    "lambda_per_m4": (3e79, "factor", 2.0),
    "lambda_planck": (2e-60, "factor", 2.0),
    "coeff_A_planck": (2e-23, "factor", 2.0),
    "coeff_B_planck": (-3e-38, "factor", 2.0),
    "coeff_C_planck": (4e-76, "factor", 2.0),
    "position_spread_m": (288.0, "rel", 1e-2),
    "momentum_variance_shift": (1e-22, "factor", 2.0),
    "mean_excitation": (1.12538e26, "rel", 5e-3),
    "entropy_nats": (61.0, "abs", 0.5),
    "p0": (1e-26, "factor", 2.0),
    "ground_state_variance_m2": (4e-22, "factor", 2.0),
    "oscillator_period_years": (2.0e5, "rel", 0.15),
    "averaging_time_s": (5e-36, "factor", 2.0),
    "averaged_C_per_m2": (1.50501e-6, "rel", 5e-3),
    "averaged_A_significand": (7.62419, "rel", 5e-3),
}


def _significand(value: float) -> float:
    exponent = math.floor(math.log10(abs(value)))
    return value / 10.0**exponent


def _excitation(state: GaussianDensityMatrix) -> tuple[float, float]:
    """Mean excitation N and entropy S in nats, the one route every row takes."""
    n_mean = mean_excitation(state)
    return n_mean, von_neumann_entropy(n_mean)


@dataclass(frozen=True)
class ScenarioEvolution:
    """A scenario evolved to its final time.

    ``cubic`` and ``state`` are in Planck lengths (``PLANCK_LENGTH``), so
    ``cubic.lam`` is lambda in 1/l_Pl^4; ``state_si`` is the same state in
    meters, converted once here for every row that reports it in SI.
    """

    scenario: Scenario
    environment: ScatteringEnvironment
    localization_rate: float  # 1/(m^2*s)
    lam_si: float             # 1/m^4
    cubic: CubicSolution
    tau_si: float             # m^2
    tau_planck: float         # l_Pl^2
    state: GaussianDensityMatrix     # 1/l_Pl^2
    state_si: GaussianDensityMatrix  # 1/m^2


class _naming:
    """A with block that re-raises its ValueError as "key = value[, ...]:
    message", reading the values only then: a key "section.key", or each set
    key of a bare "section", from a Scenario, or a namespace of the values a
    config set shaped like one, through _KEYS, in table order."""

    def __init__(self, source, *names: str):
        self.source, self.names = source, names

    def __enter__(self):
        return None

    def __exit__(self, kind, exc, traceback):
        if kind is None or not issubclass(kind, ValueError):
            return False
        source, names = self.source, self.names
        pairs = []
        for section, key, field, _ in _KEYS:
            if section in names or f"{section}.{key}" in names:
                value = getattr(source if section == "scenario" else getattr(source, section), field, None)
                if value is not None:
                    pairs.append(f"{section}.{key} = {value!r}")
        raise ValueError(", ".join(pairs) + f": {exc}") from None


def evolve_scenario(scenario: Scenario) -> ScenarioEvolution:
    """Environment -> localization rate -> lam -> cubic -> state at the
    evolution time, converted once from SI into Planck units and once back.
    Each stage's ValueError names the config keys the stage reads."""
    particle = scenario.particle
    env_keys = ("environment",) if scenario.air is None else ("particle.radius_m", "air")
    with _naming(scenario, *env_keys):
        env = scenario.environment if scenario.air is None else air_environment(scenario.air, particle)
    with _naming(scenario, *env_keys, "particle.mass_kg"):
        loc_rate = big_lambda(env)
        lam_si = 0.0 if scenario.disable_decoherence else lambda_coefficient(loc_rate, particle)
        _require_finite("lambda", lam_si)
    lam_planck = lam_si * _AREA * _AREA
    dx_planck = scenario.initial_dx_m / PLANCK_LENGTH
    # a width far from the Planck scale overflows or underflows 1/(8 dx^2)
    with _naming(scenario, "scenario.initial_dx_m"):
        cubic = cubic_from_initial(minimum_uncertainty_initial(dx_planck * dx_planck), lam_planck)
    # X(tau) ~ tau^2/(4 dx^2), tau = hbar*t/m, leaves the range, or the state does on its way to SI
    with _naming(scenario, "scenario.initial_dx_m", "scenario.evolution_time_s", "particle.mass_kg"):
        tau_si = tau_from_time(scenario.evolution_time_s, particle)
        tau_planck = tau_si / _AREA
        state = evolve(cubic, tau_planck)
        state_si = GaussianDensityMatrix(state.a_coeff / _AREA, state.b_coeff / _AREA, state.c_coeff / _AREA)
    if tau_planck == 0.0:  # evolution_time_s is positive, so hbar*t/m underflowed
        with _naming(scenario, "scenario.evolution_time_s", "particle.mass_kg"):
            raise ValueError("rescaled time hbar*t/m underflows to 0")
    return ScenarioEvolution(scenario, env, loc_rate, lam_si, cubic, tau_si, tau_planck, state, state_si)


def run(scenario: Scenario, samples: int = 8) -> Report:
    """Full pipeline: ``evolve_scenario``, then the scalar rows, the
    trajectory table, the discrepancy ledger and the observation profile."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    evolution = evolve_scenario(scenario)
    # the published values describe the preset's air, so an [environment]
    # scenario named baseball is compared with nothing
    baseball = scenario.name == "baseball" and scenario.air is not None
    scalars = _scalar_rows(evolution, baseball)
    if scenario.sample_times_s is not None:
        times = scenario.sample_times_s
    else:
        times = [scenario.evolution_time_s * k / samples for k in range(samples + 1)]
    with _naming(scenario, "scenario.initial_dx_m", "scenario.evolution_time_s", "particle.mass_kg",
                 "scenario.sample_times_s"):
        trajectory = _trajectory_rows(evolution, times)
    discrepancies = _discrepancy_ledger({row.name: row.value for row in scalars}) if baseball else ()
    return Report(
        scenario_name=scenario.name,
        scalars=scalars,
        trajectory=trajectory,
        discrepancies=discrepancies,
        profile=profile_rows(evolution),
    )


def _scalar_rows(evolution: ScenarioEvolution, baseball: bool) -> tuple[ScalarRow, ...]:
    """The report's scalar rows; with ``baseball`` each row the preset
    publishes carries its reference and deviation."""
    scenario, state, cubic = evolution.scenario, evolution.state, evolution.cubic
    particle, env, loc_rate = scenario.particle, evolution.environment, evolution.localization_rate
    lam_si, lam_planck = evolution.lam_si, cubic.lam
    tau_si, tau_planck = evolution.tau_si, evolution.tau_planck
    l_pl = PLANCK_LENGTH
    t_end = scenario.evolution_time_s
    # Planck-native route, apart from the area scaling: time over l_Pl/c,
    # mass over hbar/(c*l_Pl), both anchored on the same planck_length so
    # the routes differ only in rounding order
    t_native = t_end * SPEED_OF_LIGHT / l_pl
    m_native = particle.mass * SPEED_OF_LIGHT * l_pl / HBAR
    tau_consistency = abs(tau_planck - t_native / m_native) / tau_planck

    averaged = phase_average(evolution.state_si)
    n_mean, entropy = _excitation(state)
    x_planck = position_variance(cubic, tau_planck)
    dp2_planck = momentum_variance(cubic, tau_planck)

    rows: list[ScalarRow] = []

    def add(name: str, value: float, unit: str) -> None:
        reference = deviation = None
        if baseball and name in _BASEBALL_REFERENCES:
            reference = _BASEBALL_REFERENCES[name][0]
            deviation = (value - reference) / reference
        rows.append(ScalarRow(name, value, unit, reference, deviation))

    add("mass_kg", particle.mass, "kg")
    add("mass_ounces", particle.mass / OUNCE_KG, "oz")
    if particle.radius is not None:
        add("radius_m", particle.radius, "m")
    if scenario.speed_m_s is not None:
        add("speed_m_s", scenario.speed_m_s, "m/s")
        add("momentum_kg_m_s", particle.mass * scenario.speed_m_s, "kg*m/s")
        add("flight_time_s", flight_time(scenario.speed_m_s), "s")
    add("evolution_time_s", t_end, "s")
    add("initial_dx_m", scenario.initial_dx_m, "m")
    if scenario.air is not None:
        add("air_speed_m_s", env.mean_relative_velocity, "m/s")
        add("cross_section_m2", env.cross_section, "m^2")
        add("number_density_per_m3", env.number_density, "1/m^3")
    add("localization_rate_per_m2_s", loc_rate, "1/(m^2*s)")
    add("tau_m2", tau_si, "m^2")
    add("tau_planck", tau_planck, "l_Pl^2")
    add("tau_consistency_rel", tau_consistency, "1")
    add("lambda_per_m4", lam_si, "1/m^4")
    add("lambda_planck", lam_planck, "1/l_Pl^4")
    if scenario.air is not None:
        add(
            "lambda_composite_per_m4",
            lambda_composite_crosscheck(scenario.air, particle),
            "1/m^4",
        )
    add("coeff_A_planck", state.a_coeff, "1/l_Pl^2")
    add("coeff_B_planck", state.b_coeff, "1/l_Pl^2")
    add("coeff_C_planck", state.c_coeff, "1/l_Pl^2")
    add("position_spread_m", math.sqrt(x_planck) * l_pl, "m")
    add(
        "weighted_variance_consistency_rel",
        abs(1.0 / (8.0 * state.c_coeff) - x_planck) / x_planck,
        "1",
    )
    add("momentum_variance_shift", 3.0 * lam_planck * tau_planck, "1")
    add("momentum_spread_kg_m_s", HBAR * math.sqrt(dp2_planck) / l_pl, "kg*m/s")
    add("mean_excitation", n_mean, "1")
    add("entropy_nats", entropy, "nat")
    add("p0", eigenvalue(n_mean, 0), "1")
    add("purity", purity(state), "1")
    add(
        "ground_state_variance_m2",
        _AREA / (4.0 * eigenstate_spec(state, 0).width_parameter),
        "m^2",
    )
    if lam_si > 0.0:
        period_s = (
            2.0
            * math.pi
            * particle.mass
            * math.sqrt(tau_si / lam_si)
            / (HBAR * l_pl)
        )
        add("oscillator_period_years", period_s / JULIAN_YEAR_S, "yr")
    if scenario.speed_m_s is not None:
        kinetic_energy = 0.5 * particle.mass * (scenario.speed_m_s * scenario.speed_m_s)
        if kinetic_energy == 0.0:
            with _naming(scenario, "scenario.speed_m_s", "particle.mass_kg"):
                raise ValueError("kinetic energy m*v^2/2 underflows to 0")
        averaging_time = H / kinetic_energy
        add("averaging_time_s", averaging_time, "s")
        add("averaging_time_over_flight_time", averaging_time / t_end, "1")
    add("averaged_A_per_m2", averaged.a_coeff, "1/m^2")
    add("averaged_A_significand", _significand(averaged.a_coeff), "1")
    add("averaged_C_per_m2", averaged.c_coeff, "1/m^2")
    if lam_si > 0.0:
        with _naming(scenario, "scenario.initial_dx_m", "scenario.evolution_time_s", "particle.mass_kg"):
            growth = _excitation(evolve(cubic, tau_planck * math.e))[1] - entropy
        add("entropy_growth_coefficient", growth, "1")
    return tuple(rows)


def _discrepancy_ledger(value: dict[str, float]) -> tuple[DiscrepancyEntry, ...]:
    """The baseball preset's known discrepancies, each computed value read
    from the report's scalar rows."""
    return (
        DiscrepancyEntry(
            description="composite rate formula disagrees with the defining chain",
            stated="lambda = m*sigma*m_a*rho_a*v_a^3/(3*h^3)",
            # the ratio, which is 2*pi
            computed=value["lambda_per_m4"] / value["lambda_composite_per_m4"],
        ),
        DiscrepancyEntry(
            description="published averaged A carries no power of ten",
            stated="averaged A ~ 7.62419 1/m^2 at the flight time",
            computed=value["averaged_A_per_m2"],
        ),
        DiscrepancyEntry(
            description="published entropy growth coefficient is 2/3; the exact entropy grows with 3/2",
            stated="S ~ 61 + (2/3) ln(t/t_flight)",
            computed=value.get("entropy_growth_coefficient"),
        ),
    )


def _trajectory_rows(evolution: ScenarioEvolution, times) -> tuple[TrajectoryRow, ...]:
    """One SI row per sample time; one scale for the whole table rather
    than a converted state per row."""
    particle, cubic = evolution.scenario.particle, evolution.cubic
    rows = []
    for t in times:
        tau_si = tau_from_time(t, particle)
        tau_t = tau_si / _AREA
        state_t = evolve(cubic, tau_t)
        rows.append(
            TrajectoryRow(
                t,
                tau_si,
                position_variance(cubic, tau_t) * _AREA,
                momentum_variance(cubic, tau_t) / _AREA,
                state_t.a_coeff / _AREA,
                state_t.b_coeff / _AREA,
                state_t.c_coeff / _AREA,
                *_excitation(state_t),
            )
        )
    return tuple(rows)


def profile_rows(evolution: ScenarioEvolution) -> tuple[ProfileRow, ...]:
    """tr(A_k rho) at the evolution time for the scenario's observation
    windows; empty when it configures none."""
    obs = evolution.scenario.observation
    if obs is None:
        return ()
    rows = measure_profile(obs.centers_m, obs.alpha_per_m2, obs.gamma_per_m2, evolution.state_si)
    return tuple(ProfileRow(*pair) for pair in rows)


def _within(row: ScalarRow, profile: str) -> bool:
    if row.reference is None:
        return True
    ratio = row.value / row.reference
    if profile == "paper":
        return 0.5 <= ratio <= 2.0
    # only the baseball preset's rows carry a reference
    _, mode, tolerance = _BASEBALL_REFERENCES[row.name]
    if mode == "rel":
        return abs(row.deviation) <= tolerance
    if mode == "abs":
        return abs(row.value - row.reference) <= tolerance
    return 1.0 / tolerance <= ratio <= tolerance


def tolerance_failures(report: Report, profile: str = "paper") -> list[str]:
    """Names of scalar rows whose value misses its reference under the given
    tolerance profile ("strict" = published precision, "paper" = factor 2)."""
    if profile not in ("strict", "paper"):
        raise ValueError(f"profile must be 'strict' or 'paper', got {profile!r}")
    return [row.name for row in report.scalars if not _within(row, profile)]


# ---------------------------------------------------------------------------
# config ingestion

def _number(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"is not a number: {raw!r}") from None


def _numbers(raw: str) -> tuple[float, ...]:
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("is an empty list")
    return tuple(_number(tok) for tok in tokens)


def _flag(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"is not a boolean: {raw!r}")


# One row per config key: (section, key, keyword argument of the section's
# dataclass, parser raising ValueError), in the order of README's key table;
# of several missing keys the first row's is reported.  A key is required when
# its dataclass field has no default.  [scenario] has no dataclass of its own:
# its keys feed Scenario and initial_dx_planck_lengths is converted, so the
# cross-key rules in load_scenario decide what it requires.
_KEYS = (
    ("scenario", "name", "name", str),
    ("scenario", "initial_dx_m", "initial_dx_m", _number),
    ("scenario", "initial_dx_planck_lengths", "initial_dx_planck_lengths", _number),
    ("scenario", "evolution_time_s", "evolution_time_s", _number),
    ("scenario", "speed_m_s", "speed_m_s", _number),
    ("scenario", "sample_times_s", "sample_times_s", _numbers),
    ("scenario", "disable_decoherence", "disable_decoherence", _flag),
    ("particle", "mass_kg", "mass", _number),
    ("particle", "radius_m", "radius", _number),
    ("air", "molecular_mass_kg", "molecular_mass", _number),
    ("air", "mass_density_kg_m3", "mass_density", _number),
    ("air", "temperature_K", "temperature", _number),
    ("environment", "number_density_per_m3", "number_density", _number),
    ("environment", "cross_section_m2", "cross_section", _number),
    ("environment", "relative_velocity_m_s", "mean_relative_velocity", _number),
    ("environment", "rms_wavenumber_per_m", "rms_wavenumber", _number),
    ("observation", "centers_m", "centers_m", _numbers),
    ("observation", "alpha_per_m2", "alpha_per_m2", _number),
    ("observation", "gamma_per_m2", "gamma_per_m2", _number),
)

# section -> dataclass; each but [scenario] is also the Scenario attribute
# that holds it
_SECTIONS = {
    "scenario": None,
    "particle": FreeParticle,
    "air": AirModel,
    "environment": ScatteringEnvironment,
    "observation": ObservationFamilySpec,
}


# configparser's section header: "[a] x" is section "a", "[ a ]" is " a "
_HEADER = re.compile(r"\[(.+)\]")


def _parse_config(text: str) -> dict[str, dict[str, str]]:
    """{section: {key: value}}, read as configparser reads it with
    interpolation off, "=" the only delimiter, key case kept, no default
    section and strict duplicates.  Lines end at "\n" only.  A line whose
    first non-blank character is "#" or ";" is a comment; a key line splits
    at its first "="; a line indented deeper than its key line continues
    that value, joined with "\n", blank lines inside it kept.  Any other
    line raises ConfigError naming it."""
    sections: dict[str, dict[str, list[str]]] = {}
    keys = key = None
    key_indent = 0
    for number, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if stripped.startswith(("#", ";")):
            continue
        if not stripped:
            if key is not None:
                keys[key].append("")
            continue
        indent = len(line) - len(line.lstrip())
        if key is not None and indent > key_indent:
            keys[key].append(stripped)
            continue
        header = _HEADER.match(stripped)
        if header:
            if header.group(1) in sections:
                raise ConfigError(f"line {number} repeats a section: {line!r}")
            keys = sections[header.group(1)] = {}
            key = None
            continue
        if keys is None:
            raise ConfigError(f"line {number} comes before any [section] header: {line!r}")
        key, equals, value = stripped.partition("=")
        key = key.rstrip()
        if not (equals and key):
            raise ConfigError(f"line {number} is neither a [section] header nor a key = value line: {line!r}")
        if key in keys:
            raise ConfigError(f"line {number} repeats a key: {line!r}")
        keys[key] = [value.lstrip()]
        key_indent = indent
    return {
        section: {key: "\n".join(lines).rstrip() for key, lines in values.items()}
        for section, values in sections.items()
    }


def _read_section(sections: dict[str, dict[str, str]], section: str) -> dict:
    """The section's keys parsed into keyword arguments, in table order; an
    absent section has no keys, so its required ones are reported missing."""
    values = sections.get(section, {})
    cls = _SECTIONS[section]
    required = {field.name for field in fields(cls) if field.default is MISSING} if cls else ()
    kwargs = {}
    for row_section, key, name, parse in _KEYS:
        if row_section != section:
            continue
        if key not in values:
            if name in required:
                raise ConfigError(f"missing required config key: {section}.{key}")
            continue
        try:
            kwargs[name] = parse(values[key])
        except ValueError as exc:
            raise ConfigError(f"value of {section}.{key} {exc}") from None
    return kwargs


def _build(sections: dict[str, dict[str, str]], section: str):
    """The section's dataclass; a value it rejects names the section's set keys."""
    kwargs = _read_section(sections, section)
    with _naming(SimpleNamespace(**{section: SimpleNamespace(**kwargs)}), section):
        return _SECTIONS[section](**kwargs)


def load_scenario(config_text: str) -> Scenario:
    """Parse and validate flat key-value config text with [section] headers.

    Keys carry their units in their names.  Text that does not parse, a
    value that does not convert, an unknown, missing or doubly supplied key
    raise ConfigError naming it; a value its constructor rejects raises
    ValueError naming its section's keys and their values.
    """
    sections = _parse_config(config_text)
    known = {(section, key) for section, key, _, _ in _KEYS}
    unknown = [
        f"{section}.{key}"
        for section, keys in sections.items()
        for key in keys
        if (section, key) not in known
    ]
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))

    given = _read_section(sections, "scenario")
    settings = dict(given)
    particle = _build(sections, "particle")
    has_air = "air" in sections
    if has_air == ("environment" in sections):
        if has_air:
            raise ConfigError("config supplies both an [air] and an [environment] block")
        raise ConfigError("missing required config key: air or environment section")
    for section in ("air", "environment", "observation"):
        if section in sections:
            settings[section] = _build(sections, section)
    if has_air and particle.radius is None:
        raise ConfigError("missing required config key: particle.radius_m")

    written = SimpleNamespace(**given)
    dx_planck = settings.pop("initial_dx_planck_lengths", None)
    if dx_planck is not None:
        if "initial_dx_m" in settings:
            raise ConfigError("config supplies both initial_dx_m and initial_dx_planck_lengths")
        # checked before Scenario sees it in meters, so the message names this key
        dx_m = dx_planck * PLANCK_LENGTH
        if not (math.isfinite(dx_m) and dx_m > 0.0):
            raw = sections["scenario"]["initial_dx_planck_lengths"]
            with _naming(written, "scenario.initial_dx_planck_lengths"):
                raise ValueError(
                    f"initial_dx_planck_lengths must give a positive, finite length in meters, got {raw}"
                )
        settings["initial_dx_m"] = dx_m
    elif "initial_dx_m" not in settings:
        raise ConfigError("missing required config key: scenario.initial_dx_m")
    if "evolution_time_s" not in settings:
        if "speed_m_s" not in settings:
            raise ConfigError("missing required config key: scenario.evolution_time_s")
        with _naming(written, "scenario.speed_m_s"):
            settings["evolution_time_s"] = flight_time(settings["speed_m_s"])
    with _naming(written, "scenario"):
        return Scenario(particle=particle, **settings)


# ---------------------------------------------------------------------------
# emission
#
# One walk over a report readies every cell for its format, and each emitter
# spells a section by one % call over its rows, every row taking the same
# template.  A format gives each column a piece: one conversion, with the
# separator and padding before it, so a row's template is its pieces joined.

# each section's columns, with their kinds: "id" (a name or a unit), "text"
# (prose, quoted in CSV), "num" (a number), or "opt" (a number that may be
# absent, which the walk spells, as "" when it is absent).  The column names
# are the CSV headers and the JSON keys.
_COLUMNS = {
    "scalars": {"name": "id", "value": "num", "unit": "id", "reference": "opt", "deviation": "opt"},
    "trajectory": dict.fromkeys(("t_s", "tau", "dx2", "dp2", "A", "B", "C", "N", "S"), "num"),
    "discrepancies": {"description": "text", "stated": "text", "computed": "opt"},
    "profile": {"x_k": "num", "measure": "num"},
}
# a format's cell spelling: (how a str cell is readied, the conversion of an
# "opt" column's number, and of a deviation's)
_PLAIN = (str, "%.8e", "%.2e")  # text and CSV
_JSON = (encode_basestring_ascii, "%.9g", "%.3g")


def _sections(report: Report, spelling=_PLAIN):
    """The one walk over a report: (section, cells) for each section, in
    emission order.  The cells are the rows' cells in turn, in _COLUMNS
    order, each ready for its format's template: a str readied by the
    format's ``spelling``, a number with -0.0 made 0.0, or in an "opt" column
    a number spelled by the format's conversion, or "" for an absent one."""
    text, num, dev = spelling
    cells = []
    for row in report.scalars:
        reference, deviation = row.reference, row.deviation
        cells += (
            text(row.name),
            row.value + 0.0,
            text(row.unit),
            "" if reference is None else num % (reference + 0.0),
            "" if deviation is None else dev % (deviation + 0.0),
        )
    yield "scalars", tuple(cells)
    yield "trajectory", tuple(map(add, chain.from_iterable(report.trajectory), repeat(0.0)))
    cells = []
    for entry in report.discrepancies:
        computed = entry.computed
        cells += (text(entry.description), text(entry.stated), "" if computed is None else num % (computed + 0.0))
    yield "discrepancies", tuple(cells)
    yield "profile", tuple(map(add, chain.from_iterable(report.profile), repeat(0.0)))


def _spell(cells: tuple, pieces, sep: str) -> str:
    """The rows of ``cells`` joined by ``sep``, spelled by one % call:
    ``pieces[i]`` writes cell i of every row."""
    return sep.join(["".join(pieces)] * (len(cells) // len(pieces))) % cells


# JSON spells a number between two NULs, which no escaped str holds, so the
# numbers float repr spells otherwise can be found and respelled.  At these
# exponents format and float repr spell the same number differently: repr
# writes [1e-4, 1e16) in fixed notation, and a subnormal, or a rounding past
# the largest double, has other digits
_JSON_CONVERSION = {"id": "%s", "text": "%s", "num": "\0%.9g\0", "opt": "\0%s\0"}
_RESPELL = frozenset(f"e{exponent:+03d}" for exponent in (*range(-324, -306), *range(-4, 16), 308))
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "": "null"}
# the last five characters of each number cell that keeps its spelling: a
# digit and a two-digit exponent, or a three-digit exponent, not in _RESPELL
_JSON_KEPT = frozenset(
    tail
    for exponent in range(-324, 309)
    if (suffix := f"e{exponent:+03d}") not in _RESPELL
    for tail in ([digit + suffix for digit in "0123456789"] if len(suffix) == 4 else [suffix])
)
_JSON_PIECES = {
    section: [
        ("," if i else "    {")
        + f'\n      "{column}": {_JSON_CONVERSION[kind]}'
        + ("\n    }" if i == len(columns) - 1 else "")
        for i, (column, kind) in enumerate(columns.items())
    ]
    for section, columns in _COLUMNS.items()
}


def _json_number(cell: str) -> str:
    """json.dumps(float(cell)) for a %.9g or %.3g cell whose spelling is not
    float repr's: an exponent in _RESPELL, an integer or a constant; "" (a
    None cell) is null."""
    if "e" in cell:
        cell = repr(float(cell))
    elif cell not in _JSON_CONSTANTS:
        return cell + ".0"  # an integer in fixed notation
    return _JSON_CONSTANTS.get(cell, cell)


def _emit_json(report: Report) -> bytes:
    """The bytes of json.dumps(payload, indent=2) + "\n", where payload maps
    "scenario" to the name and each section to a list of {column: cell}."""
    parts = ['{\n  "scenario": ' + encode_basestring_ascii(report.scenario_name)]
    for section, cells in _sections(report, _JSON):
        if not cells:
            parts.append(f',\n  "{section}": []')
            continue
        cells = _spell(cells, _JSON_PIECES[section], ",\n").split("\0")
        # a cell without an exponent is kept when it holds "."
        cells[1::2] = [
            cell if cell[-5:] in _JSON_KEPT or ("." in cell and "e" not in cell) else _json_number(cell)
            for cell in cells[1::2]
        ]
        parts.append(f',\n  "{section}": [\n' + "".join(cells) + "\n  ]")
    return ("".join(parts) + "\n}\n").encode()


_CSV_CONVERSION = {"id": "%s", "text": '"%s"', "num": "%.8e", "opt": "%s"}
_CSV_PIECES = {
    section: [("," if i else "") + _CSV_CONVERSION[kind] for i, kind in enumerate(columns.values())]
    for section, columns in _COLUMNS.items()
}


def _emit_csv(report: Report) -> bytes:
    lines = [f"# scenario: {report.scenario_name}"]
    for section, cells in _sections(report):
        lines += [f"# section: {section}", ",".join(_COLUMNS[section])]
        if cells:
            lines.append(_spell(cells, _CSV_PIECES[section], "\n"))
    return ("\n".join(lines) + "\n").encode()


_TEXT_TITLES = {"trajectory": "trajectory (SI):", "profile": "observation profile:"}


def _emit_text(report: Report) -> bytes:
    lines = [f"scenario: {report.scenario_name or '(unnamed)'}"]
    for section, cells in _sections(report):
        if not cells:
            continue
        lines.append("")
        if section == "scalars":
            name_w = max(map(len, cells[::5]))
            lines.append(f"{'quantity':<{name_w}}  {'value':>15}  {'unit':<10} {'reference':>15}  {'deviation':>9}")
            lines.append(_spell(cells, (f"%-{name_w}s", "  %15.8e", "  %-10s", " %15s", "  %9s"), "\n"))
        elif section == "discrepancies":
            lines.append("known discrepancies of the published description:")
            lines.append(_spell(cells, ("- %s", "\n    stated:   %s", "\n    computed: %s"), "\n"))
        else:
            columns = _COLUMNS[section]
            lines += [_TEXT_TITLES[section], "  ".join(f"{column:>15}" for column in columns)]
            lines.append(_spell(cells, ("%15.8e", *["  %15.8e"] * (len(columns) - 1)), "\n"))
    return ("\n".join(lines) + "\n").encode()


def emit(report: Report, fmt: str = "text") -> bytes:
    """Deterministic serialization: same report, same bytes."""
    emitter = {"json": _emit_json, "csv": _emit_csv, "text": _emit_text}.get(fmt)
    if emitter is None:
        raise ValueError(f"format must be csv, json or text, got {fmt!r}")
    return emitter(report)
