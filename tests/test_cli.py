import contextlib
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _config import dump_scenario
from conftest import SUBPROCESS_ENV
from decogauss import oracle
from decogauss.cli import main
from decogauss.scenarios import _KEYS, baseball_scenario
from decogauss.units import PLANCK_LENGTH

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "decogauss", *args],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        **kwargs,
    )


def test_baseball_json_report(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("baseball", "--format", "json", "--output", str(out), "--samples", "3")
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    entropy = next(r for r in payload["scalars"] if r["name"] == "entropy_nats")
    assert abs(entropy["value"] - 61.0) < 0.5
    assert len(payload["trajectory"]) == 4
    assert len(payload["discrepancies"]) == 3


def test_baseball_strict_profile_passes():
    result = run_cli("baseball", "--tolerance-profile", "strict", "--samples", "2")
    assert result.returncode == 0, result.stderr


def test_run_with_config(tmp_path):
    config = tmp_path / "scenario.ini"
    config.write_text(dump_scenario(baseball_scenario()))
    out = tmp_path / "report.csv"
    result = run_cli(
        "run", "--config", str(config), "--format", "csv", "--output", str(out),
        "--samples", "2",
    )
    assert result.returncode == 0, result.stderr
    assert "t_s,tau,dx2,dp2,A,B,C,N,S" in out.read_text().splitlines()


def test_bad_config_exits_2(tmp_path):
    config = tmp_path / "broken.ini"
    config.write_text("[particle]\nradius_m = 0.01\n")
    result = run_cli("run", "--config", str(config))
    assert result.returncode == 2
    assert "mass_kg" in result.stderr


def test_non_boolean_flag_exits_2_naming_the_key(tmp_path, capsys):
    config = tmp_path / "flag.ini"
    config.write_text(
        dump_scenario(baseball_scenario()).replace("[scenario]\n", "[scenario]\ndisable_decoherence = maybe\n")
    )
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "config error: value of scenario.disable_decoherence is not a boolean: 'maybe'\n"
    )


def test_missing_config_file_exits_2(tmp_path):
    result = run_cli("run", "--config", str(tmp_path / "nope.ini"))
    assert result.returncode == 2


@pytest.mark.parametrize("target", ["missing_directory", "directory"])
@pytest.mark.parametrize(
    "argv",
    [["baseball"], ["spectrum", "--A=0.75", "--B=-0.5", "--C=0.0625"]],
    ids=["report", "spectrum"],
)
def test_unwritable_output_exits_2_naming_the_path(argv, target, tmp_path, capsys):
    # both escaped as a FileNotFoundError or IsADirectoryError traceback
    output = tmp_path / "missing" / "r.txt" if target == "missing_directory" else tmp_path
    assert main([*argv, "--output", str(output)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output {output}: ")
    assert err.count("\n") == 1


def test_invalid_scenario_value_exits_3(tmp_path):
    config = tmp_path / "invalid.ini"
    config.write_text(
        dump_scenario(baseball_scenario()).replace("mass_kg = 0.1459553", "mass_kg = -2.0")
    )
    result = run_cli("run", "--config", str(config))
    assert result.returncode == 3


def test_spectrum_subcommand():
    result = run_cli(
        "spectrum", "--A", "0.75", "--B", "-0.5", "--C", "0.0625", "--format", "json"
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert abs(payload["mean_excitation"] - 1.2320508) < 1e-6
    assert abs(payload["entropy_nats"] - 1.5350555) < 1e-6


def test_measure_subcommand(tmp_path):
    config = tmp_path / "obs.ini"
    config.write_text(
        dump_scenario(baseball_scenario())
        + "\n[observation]\ncenters_m = -100.0, 0.0, 100.0\n"
        "alpha_per_m2 = 1.0\ngamma_per_m2 = 1e-5\n"
    )
    result = run_cli("measure", "--config", str(config), "--format", "json")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    values = [row["measure"] for row in payload["profile"]]
    assert len(values) == 3
    assert values[0] == values[2]


def profile_row_count(text, fmt):
    if fmt == "json":
        return len(json.loads(text)["profile"])
    lines = text.splitlines()
    header = "x_k,measure" if fmt == "csv" else f"{'x_k':>15}  {'measure':>15}"
    return len(lines) - lines.index(header) - 1


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_measure_every_format(fmt):
    result = run_cli("measure", "--config", str(GOLDEN / "environment.ini"), "--format", fmt)
    assert result.returncode == 0, result.stderr
    assert profile_row_count(result.stdout, fmt) == 3


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_measure_matches_golden_bytes(fmt, tmp_path):
    out = tmp_path / f"profile.{fmt}"
    code = main(["measure", "--config", str(GOLDEN / "environment.ini"), "--format", fmt,
                 "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"environment_measure.{fmt}").read_bytes()


def test_invalid_sample_time_exits_3(tmp_path):
    config = tmp_path / "times.ini"
    config.write_text(
        dump_scenario(baseball_scenario()).replace(
            "\n\n[particle]", "\nsample_times_s = 0.0, -1.0\n\n[particle]"
        )
    )
    result = run_cli("run", "--config", str(config))
    assert result.returncode == 3
    assert "sample_times_s" in result.stderr


@pytest.mark.parametrize("command", ["run", "measure"])
def test_bad_speed_exits_3_naming_the_key(command, tmp_path, capsys):
    config = tmp_path / "speed.ini"
    config.write_text(
        dump_scenario(baseball_scenario()).replace("speed_m_s = 44.704", "speed_m_s = -5.0")
        + "\n[observation]\ncenters_m = 0.0\nalpha_per_m2 = 1.0\ngamma_per_m2 = 1e-5\n"
    )
    assert main([command, "--config", str(config)]) == 3
    assert "speed_m_s" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["in_process", "cli"])
@pytest.mark.parametrize("command", ["run", "measure"])
@pytest.mark.parametrize(
    "dx, line",
    [
        ("1e200", "scenario.initial_dx_m = 1e+200: dx0_squared must be positive and finite, got inf"),
        (
            "1e-156",
            "scenario.initial_dx_m = 1e-156, scenario.evolution_time_s = 6.446748185397342,"
            " particle.mass_kg = 0.1459553: a_coeff must be finite, got nan",
        ),
    ],
    ids=["1e200", "1e-156"],
)
def test_unrepresentable_initial_dx_exits_3_naming_the_key(dx, line, command, via, tmp_path, capsys):
    """1e200 m overflowed into a traceback and 1e-156 m was blamed on
    a_coeff, a field the config does not have."""
    config = tmp_path / "dx.ini"
    config.write_text(
        dump_scenario(baseball_scenario()).replace("initial_dx_m = 8.081275e-36", f"initial_dx_m = {dx}")
        + "\n[observation]\ncenters_m = 0.0\nalpha_per_m2 = 1.0\ngamma_per_m2 = 1e-5\n"
    )
    if via == "cli":
        result = run_cli(command, "--config", str(config))
        code, err = result.returncode, result.stderr
    else:
        code, err = main([command, "--config", str(config)]), capsys.readouterr().err
    assert (code, err) == (3, f"validation error: {line}\n")


@pytest.mark.parametrize(
    "dx, time",
    [("1e-150", "6.446748185397342"), ("5e-116", "1e-210")],
    ids=["underflow", "overflow"],
)
def test_unrepresentable_coefficient_product_still_reports(dx, time, tmp_path):
    """A and C can be representable while A*C is not.  At 1e-150 m the
    evolved A ~ 2e-23 and C ~ 6e-306 gave a division by zero and exit 1; at
    5e-116 m and 1e-210 s, A = C ~ 1.3e160 gave a ground-state variance 0."""
    config = tmp_path / "tiny.ini"
    config.write_text(
        dump_scenario(baseball_scenario())
        .replace("name = baseball", "name = tiny")
        .replace("initial_dx_m = 8.081275e-36", f"initial_dx_m = {dx}")
        .replace("evolution_time_s = 6.446748185397342", f"evolution_time_s = {time}")
    )
    result = run_cli("run", "--config", str(config), "--format", "json", "--samples", "1")
    assert result.returncode == 0, result.stderr
    rows = {row["name"]: row["value"] for row in json.loads(result.stdout)["scalars"]}
    l_pl = PLANCK_LENGTH
    root = math.sqrt(rows["coeff_A_planck"]) * math.sqrt(rows["coeff_C_planck"])
    assert math.isclose(rows["ground_state_variance_m2"], l_pl * l_pl / (8.0 * root), rel_tol=2e-8)


def test_underflowing_rescaled_time_exits_3_naming_both_keys(tmp_path):
    """hbar*t/m underflows to 0 at t = 1e-200 s and m = 1e200 kg, and the
    tau consistency row divided by it."""
    config = tmp_path / "heavy.ini"
    config.write_text(
        dump_scenario(baseball_scenario())
        .replace("name = baseball", "name = heavy")
        .replace("evolution_time_s = 6.446748185397342", "evolution_time_s = 1e-200")
        .replace("mass_kg = 0.1459553", "mass_kg = 1e200")
    )
    result = run_cli("run", "--config", str(config))
    assert result.returncode == 3
    assert result.stderr == (
        "validation error: scenario.evolution_time_s = 1e-200, particle.mass_kg = 1e+200:"
        " rescaled time hbar*t/m underflows to 0\n"
    )


def test_overflowing_evolved_state_exits_3_naming_all_three_keys(tmp_path, capsys):
    """At 1e-200 kg the rescaled time hbar*t/m overflows the evolved state,
    and the message blamed initial_dx_m alone."""
    config = tmp_path / "light.ini"
    config.write_text(
        dump_scenario(baseball_scenario()).replace("mass_kg = 0.1459553", "mass_kg = 1e-200")
    )
    assert main(["run", "--config", str(config)]) == 3
    assert capsys.readouterr().err == (
        "validation error: scenario.initial_dx_m = 8.081275e-36, scenario.evolution_time_s = 6.446748185397342,"
        " particle.mass_kg = 1e-200: a_coeff must be finite, got nan\n"
    )


@pytest.mark.parametrize(
    "old, new, line",
    [
        (
            "mass_kg = 0.1459553",
            "mass_kg = 1e270",
            "particle.mass_kg = 1e+270, particle.radius_m = 0.0369, air.molecular_mass_kg = 4.80965e-26,"
            " air.mass_density_kg_m3 = 1.225, air.temperature_K = 288.15: lambda must be finite, got inf",
        ),
        (
            "\n\n[particle]",
            "\nsample_times_s = 0.0, 1e300\n\n[particle]",
            "scenario.initial_dx_m = 8.081275e-36, scenario.evolution_time_s = 6.446748185397342,"
            " scenario.sample_times_s = (0.0, 1e+300), particle.mass_kg = 0.1459553:"
            " tau must be nonnegative and finite, got inf",
        ),
    ],
    ids=["lambda", "trajectory"],
)
def test_later_stages_exit_3_naming_their_keys(old, new, line, tmp_path, capsys):
    """An overflowing lambda was blamed on the cubic, and a sample time
    past the range named nothing."""
    config = tmp_path / "stage.ini"
    config.write_text(dump_scenario(baseball_scenario()).replace(old, new))
    assert main(["run", "--config", str(config)]) == 3
    assert capsys.readouterr().err == f"validation error: {line}\n"


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda exponent: 10.0**exponent)


@st.composite
def extreme_configs(draw):
    """Config text with every number log-uniform over a range its
    constructor accepts, and windows at -w, 0 and w."""
    def number(key, low=1e-300, high=1e300):
        return f"{key} = {draw(_log_uniform(low, high))!r}"

    lines = [
        "[scenario]",
        number("initial_dx_m", 1e-200, 1e150),
        number("evolution_time_s", 1e-200, 1e200),
        number("speed_m_s"),
        "[particle]",
        number("mass_kg", 1e-250, 1e250),
    ]
    if draw(st.booleans()):
        lines += [number("radius_m"), "[air]"]
        lines += [number(key) for key in ("molecular_mass_kg", "mass_density_kg_m3", "temperature_K")]
    else:
        lines.append("[environment]")
        lines += [
            number(key)
            for key in (
                "number_density_per_m3",
                "cross_section_m2",
                "relative_velocity_m_s",
                "rms_wavenumber_per_m",
            )
        ]
    width = draw(_log_uniform(1e-300, 1e300))
    lines += [
        "[observation]",
        f"centers_m = {-width!r}, 0.0, {width!r}",
        number("alpha_per_m2"),
        number("gamma_per_m2"),
    ]
    return "\n".join(lines) + "\n"


NAMES_A_KEY = re.compile("|".join(re.escape(f"{section}.{key} = ") for section, key, _, _ in _KEYS))


def main_with_stderr(argv):
    """main's exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(text=extreme_configs())
def test_every_loadable_config_reports_or_exits_3(text, tmp_path_factory):
    folder = tmp_path_factory.mktemp("extreme")
    config = folder / "scenario.ini"
    config.write_text(text)
    for command in ("run", "measure"):
        report = folder / "report.txt"
        code, err = main_with_stderr([command, "--config", str(config), "--output", str(report)])
        assert code in (0, 3)
        if code == 3:
            assert err and all(NAMES_A_KEY.search(line) for line in err.splitlines()), err
        elif command == "measure":
            lines = report.read_text().splitlines()
            rows = lines[lines.index(f"{'x_k':>15}  {'measure':>15}") + 1 :]
            assert all(math.isfinite(float(row.split()[1])) for row in rows), rows


# B^2 / (4 (A + alpha)) + C + gamma passes 1e308 per m^2: Q left the doubles,
# and both windows printed nan
Q_OVERFLOW = """[scenario]
initial_dx_m = 3e-155
evolution_time_s = 1e-30
disable_decoherence = true

[particle]
mass_kg = 1e250

[environment]
number_density_per_m3 = 1.0
cross_section_m2 = 1e-30
relative_velocity_m_s = 1.0
rms_wavenumber_per_m = 1.0

[observation]
centers_m = 0.0, 1e-155
alpha_per_m2 = 0.0
gamma_per_m2 = 1e308
"""


def test_measure_reports_the_value_where_q_overflows(tmp_path):
    config = tmp_path / "overflow.ini"
    config.write_text(Q_OVERFLOW)
    report = tmp_path / "profile.csv"
    assert main(["measure", "--config", str(config), "--format", "csv", "--output", str(report)]) == 0
    # a 60-digit evaluation gives 1.293993278 and 1.264247632
    assert report.read_text().splitlines()[-2:] == ["0.00000000e+00,1.29399328e+00", "1.00000000e-155,1.26424763e+00"]


@settings(max_examples=300, deadline=None)
@given(coefficients=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3))
def test_spectrum_reports_or_exits_3_naming_its_flags(coefficients, tmp_path_factory):
    output = tmp_path_factory.mktemp("spectrum") / "summary.txt"
    flags = [f"--{flag}={value!r}" for flag, value in zip("ABC", coefficients)]
    code, err = main_with_stderr(["spectrum", *flags, "--output", str(output)])
    assert code in (0, 3)
    if code == 3:
        assert err.startswith("validation error: --A = ") and err.count("\n") == 1, err


EXTREME = dump_scenario(baseball_scenario()).replace("name = baseball", "name = extreme") + (
    "\n[observation]\ncenters_m = 0.0\nalpha_per_m2 = 1.0\ngamma_per_m2 = 1e-5\n"
)

# One config per float power, or division by a product, that escaped as an
# OverflowError or ZeroDivisionError traceback: (config text, replaced
# values, validation error of run, of measure), where None means exit 0.
POWER_CASES = {
    "wavenumber_squared": (
        (GOLDEN / "environment.ini").read_text(),
        {"rms_wavenumber_per_m": "1e160"},
        *[
            "particle.mass_kg = 1e-14, environment.number_density_per_m3 = 2.5e+25,"
            " environment.cross_section_m2 = 3e-12, environment.relative_velocity_m_s = 500.0,"
            " environment.rms_wavenumber_per_m = 1e+160: localization rate must be nonnegative and finite, got inf"
        ] * 2,
    ),
    "air_wavenumber_squared": (
        EXTREME,
        {"molecular_mass_kg": "1e300"},
        *[
            "particle.mass_kg = 0.1459553, particle.radius_m = 0.0369, air.molecular_mass_kg = 1e+300,"
            " air.mass_density_kg_m3 = 1.225, air.temperature_K = 288.15:"
            " localization rate must be nonnegative and finite, got nan"
        ] * 2,
    ),
    "radius_squared": (
        EXTREME,
        {"radius_m": "1e200"},
        *[
            "particle.radius_m = 1e+200, air.molecular_mass_kg = 4.80965e-26, air.mass_density_kg_m3 = 1.225,"
            " air.temperature_K = 288.15: cross_section must be positive and finite, got inf"
        ] * 2,
    ),
    "center_squared": (EXTREME, {"centers_m": "1e200"}, None, None),
    "speed_squared": (EXTREME, {"speed_m_s": "1e200"}, None, None),
    "air_speed_cubed": (
        EXTREME,
        {"temperature_K": "1e200", "molecular_mass_kg": "1e-50", "radius_m": "1e-150"},
        None,
        None,
    ),
    "kinetic_energy_underflow": (
        EXTREME,
        {"speed_m_s": "1e-200"},
        "scenario.speed_m_s = 1e-200, particle.mass_kg = 0.1459553: kinetic energy m*v^2/2 underflows to 0",
        None,
    ),
    "measure_denominator_underflow": (
        EXTREME.replace("\n\n[particle]", "\ndisable_decoherence = true\n\n[particle]"),
        {"initial_dx_m": "1e110", "alpha_per_m2": "0.0", "gamma_per_m2": "1e-300"},
        None,
        None,
    ),
}


@pytest.mark.parametrize("command", ["run", "measure"])
@pytest.mark.parametrize("case", POWER_CASES)
def test_extreme_power_or_product_reports_or_exits_3(case, command, tmp_path, capsys):
    text, values, run_error, measure_error = POWER_CASES[case]
    for key, value in values.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.MULTILINE)
        assert count == 1, key
    config = tmp_path / "power.ini"
    config.write_text(text)
    error = run_error if command == "run" else measure_error
    code = main([command, "--config", str(config), "--output", str(tmp_path / "report.txt")])
    assert (code, capsys.readouterr().err) == ((0, "") if error is None else (3, f"validation error: {error}\n"))


def test_spectrum_overflow_says_finite_and_nonnegative(capsys):
    assert main(["spectrum", "--A=1e308", "--B=1e308", "--C=1e-308"]) == 3
    assert capsys.readouterr().err == (
        "validation error: --A = 1e+308, --B = 1e+308, --C = 1e-308:"
        " mean excitation must be nonnegative and finite, got inf\n"
    )


@pytest.mark.parametrize("bad", ["-1", "nan", "1e400", "0", "1e-300"])
def test_bad_initial_dx_planck_lengths_exits_3_naming_the_key(bad, tmp_path, capsys):
    config = tmp_path / "dx.ini"
    config.write_text(
        dump_scenario(baseball_scenario()).replace(
            "initial_dx_m = 8.081275e-36", f"initial_dx_planck_lengths = {bad}"
        )
    )
    assert main(["run", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert f"initial_dx_planck_lengths must give a positive, finite length in meters, got {bad}\n" in err
    assert "initial_dx_m " not in err


def test_measure_requires_observation_section(tmp_path):
    config = tmp_path / "plain.ini"
    config.write_text(dump_scenario(baseball_scenario()))
    result = run_cli("measure", "--config", str(config))
    assert result.returncode == 2
    assert result.stderr == "config error: missing required config key: observation section\n"


def test_oracle_check_passes():
    result = run_cli("oracle-check", "--samples", "1")
    assert result.returncode == 0, result.stderr
    assert "worst disagreement" in result.stdout


def test_oracle_check_prints_its_seeded_sets(capsys):
    """The four seeded parameter sets of --samples 4, each agreeing with the
    closed form far inside the 1e-3 tolerance, then the worst of them."""
    assert main(["oracle-check", "--samples", "4"]) == 0
    *sets, worst = capsys.readouterr().out.splitlines()
    expected = [
        "dx0^2=0.773 lam=1.004 tau=0.188",
        "dx0^2=0.789 lam=0.612 tau=0.192",
        "dx0^2=0.982 lam=1.085 tau=0.180",
        "dx0^2=0.814 lam=0.786 tau=0.211",
    ]
    assert len(sets) == len(expected)
    for k, (line, parameters) in enumerate(zip(sets, expected), start=1):
        match = re.fullmatch(rf"set {k}: {re.escape(parameters)} max rel err=(\S+) ok", line)
        assert match, line
        assert float(match[1]) < 1e-11
    assert worst.startswith("worst disagreement: ")


def test_oracle_check_integration_failure_exits_3(monkeypatch, capsys):
    def drifted(*args, **kwargs):
        raise ValueError("Hermiticity drifted to nan")

    monkeypatch.setattr(oracle, "integrate_master_equation", drifted)
    assert main(["oracle-check", "--samples", "1"]) == 3
    assert capsys.readouterr().err == "validation error: Hermiticity drifted to nan\n"


def test_oracle_check_other_runtime_errors_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("not an integration failure")

    monkeypatch.setattr(oracle, "integrate_master_equation", broken)
    with pytest.raises(RuntimeError, match="not an integration failure"):
        main(["oracle-check", "--samples", "1"])


def test_oracle_check_rejects_zero_samples():
    result = run_cli("oracle-check", "--samples", "0")
    assert result.returncode == 3
    assert "--samples" in result.stderr


@pytest.mark.parametrize(
    "argv", [["baseball"], ["run", "--config", str(GOLDEN / "environment.ini")]], ids=["baseball", "run"]
)
def test_report_commands_name_the_samples_flag(argv, capsys):
    assert main([*argv, "--samples", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation error: --samples must be at least 1, got 0\n"


def test_spectrum_rejects_csv_format():
    result = run_cli("spectrum", "--A", "0.75", "--B", "-0.5", "--C", "0.0625", "--format", "csv")
    assert result.returncode == 2


def test_unknown_subcommand_exits_2():
    result = run_cli("frobnicate")
    assert result.returncode == 2


# The closed-form subcommands run on `math` alone; only oracle-check and the
# array methods import numpy.  These run in fresh processes, where numpy is
# not already loaded by the test session.

BLOCK_NUMPY = """
import sys


class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockNumpy())
from decogauss.cli import main

sys.exit(main(sys.argv[1:]))
"""


def run_cli_without_numpy(*args):
    return subprocess.run(
        [sys.executable, "-c", BLOCK_NUMPY, *args], capture_output=True, env=SUBPROCESS_ENV
    )


def test_import_loads_no_numpy():
    """Nor does reading a config load configparser."""
    code = (
        "import pathlib, sys, decogauss, decogauss.cli; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.'))); "
        f"decogauss.scenarios.load_scenario(pathlib.Path({ENVIRONMENT!r}).read_text()); "
        "print('configparser' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\nFalse\n"


ENVIRONMENT = str(GOLDEN / "environment.ini")
GOLDEN_COMMANDS = {
    **{f"baseball.{fmt}": ("baseball", "--format", fmt, "--samples", "8")
       for fmt in ("text", "csv", "json")},
    **{f"environment.{fmt}": ("run", "--config", ENVIRONMENT, "--format", fmt, "--samples", "8")
       for fmt in ("text", "csv", "json")},
    **{f"environment_measure.{fmt}": ("measure", "--config", ENVIRONMENT, "--format", fmt)
       for fmt in ("csv", "json")},
}


@pytest.mark.parametrize("golden", GOLDEN_COMMANDS)
def test_closed_form_subcommands_run_without_numpy(golden):
    result = run_cli_without_numpy(*GOLDEN_COMMANDS[golden])
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / golden).read_bytes()


def test_spectrum_runs_without_numpy():
    result = run_cli_without_numpy(
        "spectrum", "--A", "0.75", "--B", "-0.5", "--C", "0.0625", "--format", "json"
    )
    assert result.returncode == 0, result.stderr.decode()
    assert json.loads(result.stdout)["truncation_index"] >= 1


def test_oracle_check_is_blocked_without_numpy():
    # the numpy blocker is live: the one subcommand that needs arrays fails
    result = run_cli_without_numpy("oracle-check", "--samples", "1")
    assert result.returncode != 0
    assert b"numpy is blocked" in result.stderr
