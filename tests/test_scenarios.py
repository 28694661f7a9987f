import configparser
import dataclasses
import hashlib
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from _config import dump_scenario
from _sweep import random_config, sweep
from conftest import SUBPROCESS_ENV
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from decogauss import scenarios
from decogauss.model import AirModel, FreeParticle, ScatteringEnvironment
from decogauss.scenarios import (
    _KEYS,
    _fmt,
    _json_num,
    _sections,
    ConfigError,
    ObservationFamilySpec,
    ProfileRow,
    Scenario,
    baseball_scenario,
    emit,
    evolve_scenario,
    flight_time,
    load_scenario,
    run,
    tolerance_failures,
)
from decogauss.spectral import spectral_summary
from decogauss.units import PLANCK_LENGTH

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


@pytest.fixture(scope="module")
def baseball_report():
    return run(baseball_scenario(), samples=4)


def scalar(report, name):
    for row in report.scalars:
        if row.name == name:
            return row
    raise KeyError(name)


# --- preset ----------------------------------------------------------------------

def test_baseball_has_planck_momentum():
    scenario = baseball_scenario()
    momentum = scenario.particle.mass * scenario.speed_m_s
    assert momentum == pytest.approx(6.524785, rel=1e-4)


def test_baseball_flight_time():
    scenario = baseball_scenario()
    assert scenario.evolution_time_s == pytest.approx(6.44675, abs=1e-5)
    assert flight_time(44.704) == pytest.approx(6.44675, abs=1e-5)


def test_baseball_mass_in_ounces():
    assert baseball_scenario().particle.mass / 0.028349523125 == pytest.approx(
        5.148421, rel=1e-3
    )


def test_flight_time_rejects_nonpositive_speed():
    with pytest.raises(ValueError):
        flight_time(0.0)


# --- run -------------------------------------------------------------------------

def test_baseball_entropy(baseball_report):
    assert scalar(baseball_report, "entropy_nats").value == pytest.approx(61.0, abs=0.5)


def test_baseball_oscillator_period(baseball_report):
    assert scalar(baseball_report, "oscillator_period_years").value == pytest.approx(
        2.0e5, rel=0.15
    )


def test_baseball_averaging_time_much_shorter_than_flight(baseball_report):
    assert scalar(baseball_report, "averaging_time_over_flight_time").value < 1e-30


def test_baseball_discrepancy_ledger(baseball_report):
    entries = baseball_report.discrepancies
    assert len(entries) == 3
    assert entries[0].computed == pytest.approx(2.0 * math.pi, rel=1e-9)
    assert entries[1].computed == pytest.approx(7.62419e46, rel=1e-3)
    assert entries[2].computed == pytest.approx(1.5, abs=1e-6)


def test_baseball_within_both_tolerance_profiles(baseball_report):
    assert tolerance_failures(baseball_report, "strict") == []
    assert tolerance_failures(baseball_report, "paper") == []


def test_every_reference_row_carries_deviation(baseball_report):
    for row in baseball_report.scalars:
        assert (row.reference is None) == (row.deviation is None)
    with_refs = [row for row in baseball_report.scalars if row.reference is not None]
    assert len(with_refs) >= 20


def test_trajectory_monotone_spreading(baseball_report):
    spreads = [row.dx2 for row in baseball_report.trajectory]
    assert all(a < b for a, b in zip(spreads, spreads[1:]))
    assert len(baseball_report.trajectory) == 5  # samples + initial point


def test_zero_decoherence_variant_stays_pure():
    scenario = baseball_scenario()
    free = Scenario(
        particle=scenario.particle,
        initial_dx_m=scenario.initial_dx_m,
        evolution_time_s=scenario.evolution_time_s,
        air=scenario.air,
        speed_m_s=scenario.speed_m_s,
        disable_decoherence=True,
        name="baseball-free",
    )
    report = run(free, samples=5)
    assert all(row.entropy == 0.0 for row in report.trajectory)
    assert all(row.n_mean == 0.0 for row in report.trajectory)
    assert scalar(report, "purity").value == 1.0


def test_run_with_raw_environment():
    scenario = Scenario(
        particle=baseball_scenario().particle,
        initial_dx_m=PLANCK_LENGTH / 2.0,
        evolution_time_s=2.0,
        environment=ScatteringEnvironment(1e25, 4e-3, 500.0, 2e11),
        name="custom",
    )
    report = run(scenario, samples=2)
    assert report.discrepancies == ()
    assert scalar(report, "entropy_nats").value > 0.0
    assert all(row.reference is None for row in report.scalars)


def test_baseball_named_environment_scenario_has_no_ledger():
    """The ledger compares against the composite air formula, so a scenario
    named baseball but given a raw [environment] runs without one."""
    scenario = Scenario(
        particle=baseball_scenario().particle,
        initial_dx_m=PLANCK_LENGTH / 2.0,
        evolution_time_s=2.0,
        environment=ScatteringEnvironment(1e25, 4e-3, 500.0, 2e11),
        name="baseball",
    )
    report = run(scenario, samples=2)
    assert report.discrepancies == ()
    assert all(row.name != "lambda_composite_per_m4" for row in report.scalars)


def test_observation_profile_in_report():
    base = baseball_scenario()
    scenario = Scenario(
        particle=base.particle,
        initial_dx_m=base.initial_dx_m,
        evolution_time_s=base.evolution_time_s,
        air=base.air,
        speed_m_s=base.speed_m_s,
        observation=ObservationFamilySpec(
            centers_m=(-200.0, -100.0, 0.0, 100.0, 200.0),
            alpha_per_m2=1.0,
            gamma_per_m2=1e-5,
        ),
        name="baseball",
    )
    report = run(scenario, samples=2)
    values = [row.measure for row in report.profile]
    assert len(values) == 5
    assert values == values[::-1]  # symmetric state, symmetric centers
    assert values[2] >= max(values[0], values[1])


@pytest.mark.parametrize("disable_decoherence, calls", [(False, 11), (True, 10)])
def test_report_evolves_the_final_state_once(disable_decoherence, calls, monkeypatch):
    """One evolve for the final state, one per trajectory row (8 samples
    give 9), and, where lambda > 0, one at tau*e for the entropy growth."""
    evolve, counted = scenarios.evolve, []

    def counting(cubic, tau):
        counted.append(tau)
        return evolve(cubic, tau)

    monkeypatch.setattr(scenarios, "evolve", counting)
    run(dataclasses.replace(baseball_scenario(), disable_decoherence=disable_decoherence))
    assert len(counted) == calls


def test_report_spectrum_rows_are_the_spectral_summary():
    """The report and `decogauss spectrum` read N, S and p0 off the same
    state the same way."""
    for scenario in [baseball_scenario(), *(load_scenario(text) for text, _ in sweep(0, 30))]:
        summary = spectral_summary(evolve_scenario(scenario).state)
        report = run(scenario, samples=1)
        rows = [scalar(report, name).value for name in ("mean_excitation", "entropy_nats", "p0")]
        assert rows == [summary.mean_excitation, summary.entropy_nats, summary.p0], scenario.name


# --- config ingestion --------------------------------------------------------------

def test_dump_load_round_trip():
    scenario = baseball_scenario()
    assert load_scenario(dump_scenario(scenario)) == scenario


def test_dump_load_round_trip_with_extras():
    base = baseball_scenario()
    scenario = Scenario(
        particle=base.particle,
        initial_dx_m=base.initial_dx_m,
        evolution_time_s=base.evolution_time_s,
        air=base.air,
        sample_times_s=(0.5, 1.0, 2.0),
        observation=ObservationFamilySpec((0.0, 1.0), 0.5, 2.0),
        disable_decoherence=True,
        name="variant",
    )
    assert load_scenario(dump_scenario(scenario)) == scenario


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def constructed_scenarios(draw):
    """Scenarios with every optional field drawn; what the constructors
    reject is discarded, so the property covers all that they accept."""
    try:
        particle = FreeParticle(draw(POSITIVE), draw(st.none() | POSITIVE))
        if draw(st.booleans()):
            medium = {"air": AirModel(draw(POSITIVE), draw(POSITIVE), draw(POSITIVE))}
        else:
            medium = {"environment": ScatteringEnvironment(*(draw(POSITIVE) for _ in range(4)))}
        observation = None
        if draw(st.booleans()):
            observation = ObservationFamilySpec(
                tuple(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))),
                draw(st.floats(min_value=0.0, allow_infinity=False)),
                draw(POSITIVE),
            )
        sample_times = draw(st.none() | st.lists(st.floats(0.0, allow_infinity=False), max_size=4))
        return Scenario(
            particle=particle,
            initial_dx_m=draw(POSITIVE),
            evolution_time_s=draw(POSITIVE),
            speed_m_s=draw(st.none() | POSITIVE),
            sample_times_s=None if sample_times is None else tuple(sample_times),
            observation=observation,
            disable_decoherence=draw(st.booleans()),
            name=draw(st.text(max_size=12)),
            **medium,
        )
    except ValueError:
        reject()


@settings(max_examples=200, deadline=None)
@given(scenario=constructed_scenarios())
def test_dump_load_round_trip_property(scenario):
    assert load_scenario(dump_scenario(scenario)) == scenario


@pytest.mark.parametrize(
    "field, value",
    [
        ("name", " padded "),
        ("name", "two\nlines"),
        ("sample_times_s", ()),
        ("speed_m_s", -5.0),
        ("speed_m_s", math.nan),
        ("particle", FreeParticle(0.1459553)),  # [air] needs a radius
    ],
)
def test_constructor_rejects_what_a_config_cannot_carry(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(baseball_scenario(), **{field: value})


@pytest.mark.parametrize(
    "centers, alpha, gamma, field",
    [((), 1.0, 1.0, "centers_m"), ((0.0,), math.nan, 1.0, "alpha_per_m2"),
     ((0.0,), 1.0, 0.0, "gamma_per_m2")],
)
def test_observation_spec_rejects_bad_values(centers, alpha, gamma, field):
    with pytest.raises(ValueError, match=field):
        ObservationFamilySpec(centers, alpha, gamma)


@pytest.mark.parametrize("time_line", ["evolution_time_s = 6.446748185397342\n", ""])
@pytest.mark.parametrize("bad", ["-5.0", "nan", "0.0"])
def test_bad_speed_rejected_by_name(bad, time_line):
    """With or without evolution_time_s, which is otherwise derived from it."""
    text = dump_scenario(baseball_scenario()).replace(
        "evolution_time_s = 6.446748185397342\n", time_line
    ).replace("speed_m_s = 44.704", f"speed_m_s = {bad}")
    with pytest.raises(ValueError, match="speed_m_s"):
        load_scenario(text)


def readme_config_section():
    text = README.read_text()
    return text[text.index("## Scenario config"):text.index("## Report schema")]


def test_readme_config_example_loads():
    block = readme_config_section().split("```ini\n", 1)[1].split("```", 1)[0]
    scenario = load_scenario(block)
    assert dataclasses.replace(scenario, observation=None) == baseball_scenario()
    assert scenario.observation == ObservationFamilySpec((-200.0, 0.0, 200.0), 1.0, 1e-5)


def test_readme_key_table_lists_every_key():
    rows = [line.split("|") for line in readme_config_section().splitlines()]
    listed = [(row[1].strip(), row[2].strip()) for row in rows if len(row) == 6][2:]
    assert listed == [(section, key) for section, key, _, _ in _KEYS]


def test_missing_mass_key():
    text = dump_scenario(baseball_scenario()).replace("mass_kg = 0.1459553\n", "")
    with pytest.raises(ConfigError) as info:
        load_scenario(text)
    assert str(info.value) == "missing required config key: particle.mass_kg"


def test_missing_environment_key_does_not_depend_on_hash_seed():
    text = (
        "[scenario]\ninitial_dx_m = 1e-14\nevolution_time_s = 1.0\n"
        "[particle]\nmass_kg = 0.1\n"
        "[environment]\ncross_section_m2 = 4e-3\nrelative_velocity_m_s = 500.0\n"
    )
    code = (
        "import sys\n"
        "from decogauss.scenarios import ConfigError, load_scenario\n"
        "try:\n    load_scenario(sys.stdin.read())\n"
        "except ConfigError as exc:\n    print(exc)\n"
    )
    for seed in ("0", "1", "2", "3", "4", "5"):
        result = subprocess.run(
            [sys.executable, "-c", code],
            input=text,
            capture_output=True,
            text=True,
            env={**SUBPROCESS_ENV, "PYTHONHASHSEED": seed},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "missing required config key: environment.number_density_per_m3\n", (
            f"PYTHONHASHSEED={seed}"
        )


def test_both_air_and_environment_is_ambiguous():
    text = dump_scenario(baseball_scenario()) + (
        "\n[environment]\n"
        "number_density_per_m3 = 1e25\ncross_section_m2 = 4e-3\n"
        "relative_velocity_m_s = 500.0\nrms_wavenumber_per_m = 2e11\n"
    )
    with pytest.raises(ConfigError, match=r"^config supplies both an \[air\] and an \[environment\] block$"):
        load_scenario(text)


def test_unknown_keys_listed_by_name():
    text = dump_scenario(baseball_scenario()) + "\n[particle2]\nspin = 1\n"
    with pytest.raises(ConfigError) as info:
        load_scenario(text)
    assert str(info.value) == "unknown config keys: particle2.spin"
    text2 = dump_scenario(baseball_scenario()).replace(
        "mass_kg =", "mass_pounds =\nmass_kg ="
    )
    with pytest.raises(ConfigError) as info2:
        load_scenario(text2)
    # the replacement also hits molecular_mass_kg under [air]
    assert str(info2.value) == (
        "unknown config keys: air.mass_kg, air.molecular_mass_pounds, particle.mass_pounds"
    )


def test_default_section_keys_are_reported_under_default():
    text = "[DEFAULT]\nname = x\n\n" + dump_scenario(baseball_scenario())
    with pytest.raises(ConfigError) as info:
        load_scenario(text)
    assert str(info.value) == "unknown config keys: DEFAULT.name"


def test_parse_error_on_garbage():
    with pytest.raises(ConfigError, match=r"^line 1 comes before any \[section\] header: 'this is not a config'$"):
        load_scenario("this is not a config\n")
    with pytest.raises(ConfigError, match=r"^value of particle\.mass_kg is not a number: 'not_a_number'$"):
        load_scenario("[particle]\nmass_kg = not_a_number\n[air]\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[particle]\nmass_kg = 1\n= 2\n", "line 3 is neither a [section] header nor a key = value line: '= 2'"),
        ("[particle]\n\nmass_kg 1\n", "line 3 is neither a [section] header nor a key = value line: 'mass_kg 1'"),
        ("[particle]\nmass_kg = 1\n[air]\n [particle] \n", "line 4 repeats a section: ' [particle] '"),
        ("[particle]\nmass_kg = 1\n  more\nmass_kg=2\n", "line 4 repeats a key: 'mass_kg=2'"),
    ],
    ids=["empty_key", "no_equals", "repeated_section", "repeated_key"],
)
def test_unreadable_line_named_by_number(text, message):
    with pytest.raises(ConfigError) as excinfo:
        load_scenario(text)
    assert str(excinfo.value) == message


def configparser_sections(text):
    """The reference reading: configparser with load_scenario's grammar."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",), default_section="")
    parser.optionxform = str
    parser.read_string(text)
    return {section: dict(parser[section]) for section in parser.sections()}


# line pieces on which a hand-written reader can part from configparser:
# "\r", "\x0b" and "\x85" are whitespace to str.strip but end no line
CONFIG_LINES = st.builds(
    lambda indent, body, end: indent + body + end,
    st.sampled_from(["", " ", "  ", "\t", "\x0b"]),
    st.sampled_from([
        "[a]", "[ a ]", "[a] x", "[a]]", "[]", "[b]", "[DEFAULT]",
        "k = v", "k=v", "m = a=b", "= v", "k =", "K = w",
        "", "# c", "; c", "word", "a\rb", "k = a\x0bb", "k\r= v", "[a\x0b]",
    ]),
    st.sampled_from(["", " ", "\r", "\x0b", "\x85"]),
)


@settings(max_examples=500, deadline=None)
@given(header=st.booleans(), lines=st.lists(CONFIG_LINES, max_size=12))
def test_config_reader_matches_configparser(header, lines):
    text = "\n".join(["[a]"] * header + lines)
    try:
        expected = configparser_sections(text)
    except configparser.Error:
        with pytest.raises(ConfigError):
            scenarios._parse_config(text)
    else:
        assert scenarios._parse_config(text) == expected


def test_non_numeric_value_rejected():
    text = dump_scenario(baseball_scenario()).replace(
        "mass_kg = 0.1459553", "mass_kg = heavy"
    )
    with pytest.raises(ConfigError, match=r"^value of particle\.mass_kg is not a number: 'heavy'$"):
        load_scenario(text)


def test_disable_decoherence_false_parses():
    text = dump_scenario(baseball_scenario()).replace("[scenario]\n", "[scenario]\ndisable_decoherence = false\n")
    assert load_scenario(text) == baseball_scenario()


@pytest.mark.parametrize("raw", ["", " , "])
def test_empty_centers_list_rejected(raw):
    text = dump_scenario(baseball_scenario()) + (
        f"\n[observation]\ncenters_m ={raw}\nalpha_per_m2 = 1.0\ngamma_per_m2 = 1e-5\n"
    )
    with pytest.raises(ConfigError, match=r"^value of observation\.centers_m is an empty list$"):
        load_scenario(text)


def test_run_rejects_zero_samples():
    with pytest.raises(ValueError, match=r"^samples must be at least 1, got 0$"):
        run(baseball_scenario(), samples=0)


def test_initial_dx_planck_lengths_key():
    text = dump_scenario(baseball_scenario()).replace(
        "initial_dx_m = 8.081275e-36", "initial_dx_planck_lengths = 0.5"
    )
    scenario = load_scenario(text)
    assert scenario.initial_dx_m == pytest.approx(PLANCK_LENGTH / 2.0, rel=1e-12)


# 1e-300 Planck lengths is positive but underflows to 0 m
@pytest.mark.parametrize("bad", ["-1", "nan", "1e400", "0", "1e-300"])
def test_bad_initial_dx_planck_lengths_named_as_written(bad):
    text = dump_scenario(baseball_scenario()).replace(
        "initial_dx_m = 8.081275e-36", f"initial_dx_planck_lengths = {bad}"
    )
    with pytest.raises(ValueError, match=rf"^initial_dx_planck_lengths .*, got {bad}$"):
        load_scenario(text)


def test_both_dx_keys_ambiguous():
    text = dump_scenario(baseball_scenario()).replace(
        "initial_dx_m = 8.081275e-36",
        "initial_dx_m = 8.081275e-36\ninitial_dx_planck_lengths = 0.5",
    )
    with pytest.raises(ConfigError, match=r"^config supplies both initial_dx_m and initial_dx_planck_lengths$"):
        load_scenario(text)


def test_flight_time_derived_when_time_absent():
    text = dump_scenario(baseball_scenario()).replace(
        "evolution_time_s = 6.446748185397342\n", ""
    )
    scenario = load_scenario(text)
    assert scenario.evolution_time_s == pytest.approx(flight_time(44.704), rel=1e-12)


@pytest.mark.parametrize("bad", ["-1.0", "nan", "1e400"])
def test_sample_times_must_be_finite_and_nonnegative(bad):
    text = dump_scenario(baseball_scenario()).replace(
        "\n\n[particle]", f"\nsample_times_s = 0.0, {bad}\n\n[particle]"
    )
    with pytest.raises(ValueError, match="sample_times_s"):
        load_scenario(text)


def test_invariant_violation_is_value_error():
    text = dump_scenario(baseball_scenario()).replace(
        "mass_kg = 0.1459553", "mass_kg = -1.0"
    )
    with pytest.raises(ValueError):
        load_scenario(text)


@pytest.mark.parametrize(
    "old, new, message",
    [
        (
            "mass_kg = 1e-14\nradius_m = 1e-6",
            "mass_kg = -2.0",
            "particle.mass_kg = -2.0: mass must be positive and finite, got -2.0",
        ),
        (
            "sample_times_s = 0.0, 0.25, 1.0, 2.0",
            "sample_times_s = 0.0, -1.0",
            "scenario.name = 'dust-grain', scenario.initial_dx_m = 1e-09, scenario.evolution_time_s = 2.0,"
            " scenario.sample_times_s = (0.0, -1.0):"
            " sample_times_s must be nonempty, finite and nonnegative, got (0.0, -1.0)",
        ),
    ],
    ids=["particle", "scenario"],
)
def test_rejected_value_names_its_section_keys(old, new, message):
    text = (GOLDEN / "environment.ini").read_text()
    assert old in text
    with pytest.raises(ValueError) as excinfo:
        load_scenario(text.replace(old, new))
    assert str(excinfo.value) == message


# --- emission -----------------------------------------------------------------------

def test_emit_deterministic(baseball_report):
    for fmt in ("csv", "json", "text"):
        assert emit(baseball_report, fmt) == emit(baseball_report, fmt)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_baseball_report_matches_golden_bytes(fmt):
    assert emit(run(baseball_scenario()), fmt) == (GOLDEN / f"baseball.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_environment_report_matches_golden_bytes(fmt):
    """An [environment] scenario with sample_times_s and a 3-centre
    [observation] block: every section but the discrepancies is filled."""
    scenario = load_scenario((GOLDEN / "environment.ini").read_text())
    assert emit(run(scenario), fmt) == (GOLDEN / f"environment.{fmt}").read_bytes()


def test_csv_trajectory_schema(baseball_report):
    lines = emit(baseball_report, "csv").decode().splitlines()
    assert "t_s,tau,dx2,dp2,A,B,C,N,S" in lines
    index = lines.index("# section: trajectory")
    assert lines[index + 1] == "t_s,tau,dx2,dp2,A,B,C,N,S"
    first_row = lines[index + 2].split(",")
    assert len(first_row) == 9


def test_json_round_trips_at_nine_digits(baseball_report):
    data = emit(baseball_report, "json")
    parsed = json.loads(data)
    assert (json.dumps(parsed, indent=2) + "\n").encode() == data
    entropy = next(r for r in parsed["scalars"] if r["name"] == "entropy_nats")
    assert entropy["value"] == pytest.approx(60.9853331, rel=1e-8)


def _parsed(cell):
    return float(cell) if cell else None


def _json_dumps_reference(report):
    """The JSON report as json.dumps writes it from the text walk's cells,
    each number cell parsed back into a float."""
    payload = {"scenario": report.scenario_name}
    for section, columns, rows in _sections(report):
        payload[section] = [
            {
                column: cell if column in ("name", "unit", "description", "stated") else _parsed(cell)
                for column, cell in zip(columns, row)
            }
            for row in rows
        ]
    return (json.dumps(payload, indent=2) + "\n").encode()


_EDGES = (1e-5, 1e-4, 1e3, 1e9, 1e16)  # where .9g, .3g or repr switch notation
_SPELLED = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2e-308,
    1.7976931348623157e308, 9.995e307, 999.5, 9995.0,
    *(edge * k for edge in _EDGES for k in (0.999, 1.0, 1.001)),
    *(math.nextafter(edge, toward) for edge in _EDGES for toward in (0.0, math.inf)),
]


def _assert_spelled_as_json_dumps(value):
    assert _json_num(value) == json.dumps(_parsed(_fmt(value)))
    assert _json_num(value, ".3g") == json.dumps(_parsed(_fmt(value, ".2e")))


@pytest.mark.parametrize("value", [sign * v for v in _SPELLED for sign in (1.0, -1.0)])
def test_json_number_spelling_at_the_edges(value):
    _assert_spelled_as_json_dumps(value)


@settings(max_examples=500, deadline=None)
@given(st.none() | st.floats())
def test_json_number_spelling_property(value):
    _assert_spelled_as_json_dumps(value)


_AWKWARD = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600 ab') | st.characters(), max_size=16)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    centres=st.integers(0, 32),
    samples=st.sampled_from([1, 8, 256, 512]),
    name=st.sampled_from(["baseball"]) | _AWKWARD,
    extra_profile=st.lists(st.tuples(st.floats(), st.floats()), max_size=3),
    keep=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_json_emit_is_json_dumps_indent_2(seed, centres, samples, name, extra_profile, keep):
    """Random scenarios, renamed, with any floats appended to the profile
    and any sections emptied, emit the bytes json.dumps(indent=2) writes."""
    config = random_config(random.Random(seed), "baseball" if name == "baseball" else "sweep", centres)
    report = run(load_scenario(config), samples=samples)
    report = dataclasses.replace(
        report, scenario_name=name, profile=report.profile + tuple(ProfileRow(*p) for p in extra_profile)
    )
    sections = ("scalars", "trajectory", "discrepancies", "profile")
    report = dataclasses.replace(report, **{section: () for section, kept in zip(sections, keep) if not kept})
    data = emit(report, "json")
    assert data == _json_dumps_reference(report)
    assert data == (json.dumps(json.loads(data), indent=2) + "\n").encode()


# sha256 over the text, CSV and JSON bytes of every report of sweep(0, 150),
# captured while the JSON report was still written by json.dumps
_SWEEP_SHA256 = "05200f932156dd15add4d5c60a31cd04bad8993593ce66b7e5a1af55576e7c82"


def test_seeded_reports_keep_their_bytes():
    digest = hashlib.sha256()
    for text, samples in sweep(0, 150):
        report = run(load_scenario(text), samples=samples)
        for fmt in ("text", "csv", "json"):
            digest.update(emit(report, fmt))
    assert digest.hexdigest() == _SWEEP_SHA256


def test_emit_rejects_unknown_format(baseball_report):
    with pytest.raises(ValueError):
        emit(baseball_report, "yaml")


def test_scenario_requires_exactly_one_environment():
    base = baseball_scenario()
    with pytest.raises(ValueError):
        Scenario(
            particle=base.particle,
            initial_dx_m=base.initial_dx_m,
            evolution_time_s=1.0,
        )
    with pytest.raises(ValueError):
        Scenario(
            particle=base.particle,
            initial_dx_m=base.initial_dx_m,
            evolution_time_s=1.0,
            air=base.air,
            environment=ScatteringEnvironment(1e25, 4e-3, 500.0, 2e11),
        )
