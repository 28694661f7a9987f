"""Correctness checks on emitted reports, independent of the package.

A report is parsed back from its bytes (text, CSV or JSON) into one common
shape, then held to invariants that follow from the physics:

- 4 dx2 dp2 >= 1 and A >= C > 0 on every trajectory row;
- N = (sqrt(A/C) - 1)/2 and S = (N+1) ln(N+1) - N ln N on every row;
- S nondecreasing in t when lambda > 0, to the resolution of N;
- the final A, C and dx2 agree, to the emitted 9 digits, with an exact
  rational evaluation of the variance cubic built from the report's own
  lambda_planck, tau_planck and initial dx.

Only the standard library is used, so no check shares code with the
program it checks.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

# The CODATA Planck length the package uses (units._codata).
PLANCK_LENGTH = Fraction("1.616255e-35")
TRAJECTORY_COLUMNS = ("t_s", "tau", "dx2", "dp2", "A", "B", "C", "N", "S")
BASEBALL_REFERENCE = Path(__file__).with_name("baseball_reference.json")


class CheckFailure(Exception):
    """An operation's output is wrong; the operation counts as failed."""


def require(condition, message):
    if not condition:
        raise CheckFailure(message)


def _number(token):
    return None if token == "" else float(token)


# ---------------------------------------------------------------------------
# parsing: every format becomes
#   {"scenario": str,
#    "scalars": {name: {"value", "unit", "reference", "deviation"}},
#    "trajectory": [{column: value}], "discrepancies": [computed],
#    "profile": [(x_k, measure)]}


def _parse_json(data):
    payload = json.loads(data.decode())
    return {
        "scenario": payload["scenario"],
        "scalars": {
            row["name"]: {
                "value": row["value"],
                "unit": row["unit"],
                "reference": row["reference"],
                "deviation": row["deviation"],
            }
            for row in payload["scalars"]
        },
        "trajectory": [
            {column: row[column] for column in TRAJECTORY_COLUMNS}
            for row in payload["trajectory"]
        ],
        "discrepancies": [entry["computed"] for entry in payload["discrepancies"]],
        "profile": [(row["x_k"], row["measure"]) for row in payload["profile"]],
    }


def _parse_csv(data):
    lines = data.decode().split("\n")
    require(lines[-1] == "", "CSV output does not end with a newline")
    require(lines[0].startswith("# scenario: "), "CSV output lacks the scenario line")
    parsed = {
        "scenario": lines[0][len("# scenario: "):],
        "scalars": {},
        "trajectory": [],
        "discrepancies": [],
        "profile": [],
    }
    section = None
    header = True
    for fields in csv.reader(lines[1:-1]):
        if len(fields) == 1 and fields[0].startswith("# section: "):
            section = fields[0][len("# section: "):]
            header = True
            continue
        if header:
            header = False
            continue
        if section == "scalars":
            name, value, unit, reference, deviation = fields
            parsed["scalars"][name] = {
                "value": float(value),
                "unit": unit,
                "reference": _number(reference),
                "deviation": _number(deviation),
            }
        elif section == "trajectory":
            require(len(fields) == len(TRAJECTORY_COLUMNS), "CSV trajectory row width")
            parsed["trajectory"].append(dict(zip(TRAJECTORY_COLUMNS, map(float, fields))))
        elif section == "discrepancies":
            parsed["discrepancies"].append(_number(fields[2]))
        elif section == "profile":
            parsed["profile"].append((float(fields[0]), float(fields[1])))
        else:
            raise CheckFailure(f"CSV row outside a known section: {fields!r}")
    return parsed


def _parse_text(data):
    lines = data.decode().split("\n")
    require(lines[-1] == "", "text output does not end with a newline")
    require(lines[0].startswith("scenario: "), "text output lacks the scenario line")
    require(lines[2].split()[:3] == ["quantity", "value", "unit"], "text scalar header")
    parsed = {
        "scenario": lines[0][len("scenario: "):],
        "scalars": {},
        "trajectory": [],
        "discrepancies": [],
        "profile": [],
    }
    index = 3
    while lines[index]:
        tokens = lines[index].split()
        require(len(tokens) in (3, 5), f"text scalar row: {lines[index]!r}")
        reference, deviation = (tokens[3], tokens[4]) if len(tokens) == 5 else ("", "")
        parsed["scalars"][tokens[0]] = {
            "value": float(tokens[1]),
            "unit": tokens[2],
            "reference": _number(reference),
            "deviation": _number(deviation),
        }
        index += 1
    require(lines[index + 1] == "trajectory (SI):", "text trajectory heading")
    require(tuple(lines[index + 2].split()) == TRAJECTORY_COLUMNS, "text trajectory header")
    index += 3
    while index < len(lines) - 1 and lines[index]:
        values = [float(token) for token in lines[index].split()]
        require(len(values) == len(TRAJECTORY_COLUMNS), "text trajectory row width")
        parsed["trajectory"].append(dict(zip(TRAJECTORY_COLUMNS, values)))
        index += 1
    while index < len(lines) - 1:
        line = lines[index]
        if line.startswith("    computed: "):
            parsed["discrepancies"].append(_number(line[len("    computed: "):]))
        elif line == "observation profile:":
            index += 2  # skip the column header
            while index < len(lines) - 1:
                x_k, value = lines[index].split()
                parsed["profile"].append((float(x_k), float(value)))
                index += 1
            break
        index += 1
    return parsed


PARSERS = {"json": _parse_json, "csv": _parse_csv, "text": _parse_text}


def parse_report(data, fmt):
    """Parse emitted bytes; any malformation is a CheckFailure."""
    try:
        return PARSERS[fmt](data)
    except CheckFailure:
        raise
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailure(f"{fmt} output does not parse: {exc!r}") from exc


# ---------------------------------------------------------------------------
# invariants


def digit_unit(value, digits=9):
    """One unit in the last of `digits` significant digits of `value`."""
    if value == 0.0:
        return 10.0 ** (-300)
    return 10.0 ** (math.floor(math.log10(abs(value))) - digits + 1)


def _entropy(n_mean):
    if n_mean <= 0.0:
        return 0.0
    return math.log1p(n_mean) + n_mean * math.log1p(1.0 / n_mean)


def _excitation(ratio):
    return max(0.0, 0.5 * (math.sqrt(ratio) - 1.0))


def _cubic_values(lam, tau, dx_m):
    """Exact (A, C, X) in Planck units of a minimum-uncertainty start of
    width dx_m: X = lam tau^3 + a2 tau^2 + a0 with a0 = (dx/l_Pl)^2,
    a2 = 1/(4 a0), A = (2 X X'' - X'^2)/(8X), C = 1/(8X)."""
    a0 = (dx_m / PLANCK_LENGTH) ** 2
    a2 = 1 / (4 * a0)
    x = ((lam * tau + a2) * tau) * tau + a0
    x1 = (3 * lam * tau + 2 * a2) * tau
    x2 = 6 * lam * tau + 2 * a2
    eight_x = 8 * x
    return (2 * x * x2 - x1 * x1) / eight_x, 1 / eight_x, x


def _within_exact(name, emitted, values):
    """`emitted` (9 digits) lies within one unit in its 9th digit of the
    range `values` the exact function spans over the emitted inputs'
    rounding intervals."""
    low, high = float(min(values)), float(max(values))
    unit = digit_unit(emitted)
    require(
        low - unit <= emitted <= high + unit,
        f"{name} = {emitted!r} disagrees with the exact cubic [{low!r}, {high!r}]",
    )


def check_exact_cubic(report):
    """Final A, C, dx2 against Fraction arithmetic.  Each emitted input is
    known only to 9 digits, so the exact function is evaluated at the
    corners of the inputs' rounding box (it is monotone across a box this
    small) and the outputs must fall inside the range it spans."""
    scalars = report["scalars"]
    inputs = []
    for name in ("lambda_planck", "tau_planck", "initial_dx_m"):
        value = scalars[name]["value"]
        half = Fraction(digit_unit(value)) / 2
        inputs.append((Fraction(value) - half, Fraction(value) + half))
    corners = [
        _cubic_values(lam, tau, dx)
        for lam in inputs[0]
        for tau in inputs[1]
        for dx in inputs[2]
    ]
    l_sq = PLANCK_LENGTH**2
    final = report["trajectory"][-1]
    _within_exact("coeff_A_planck", scalars["coeff_A_planck"]["value"], [c[0] for c in corners])
    _within_exact("coeff_C_planck", scalars["coeff_C_planck"]["value"], [c[1] for c in corners])
    _within_exact("final A", final["A"], [c[0] / l_sq for c in corners])
    _within_exact("final C", final["C"], [c[1] / l_sq for c in corners])
    _within_exact("final dx2", final["dx2"], [c[2] * l_sq for c in corners])


def _check_n_and_s(where, a_coeff, c_coeff, n_mean, entropy):
    n_exact = _excitation(a_coeff / c_coeff)
    slack = 2e-8 * (n_exact + 1.0)
    require(
        abs(n_mean - n_exact) <= slack + digit_unit(n_mean),
        f"{where}: N = {n_mean!r} inconsistent with A/C (expect {n_exact!r})",
    )
    low = _entropy(max(0.0, n_exact - slack))
    high = _entropy(n_exact + slack)
    require(
        low - digit_unit(low) <= entropy <= high + digit_unit(high),
        f"{where}: S = {entropy!r} inconsistent with N (expect [{low!r}, {high!r}])",
    )


def check_report(report, profile_size):
    """Physical invariants of one parsed report."""
    scalars = report["scalars"]
    trajectory = report["trajectory"]
    require(trajectory, "report has no trajectory rows")
    require(len(report["profile"]) == profile_size,
            f"profile has {len(report['profile'])} rows, expected {profile_size}")
    for x_k, value in report["profile"]:
        require(math.isfinite(value) and value >= 0.0, f"profile measure {value!r} at {x_k!r}")
    for index, row in enumerate(trajectory):
        where = f"trajectory row {index}"
        require(row["C"] > 0.0, f"{where}: C = {row['C']!r} is not positive")
        require(row["A"] >= row["C"], f"{where}: A = {row['A']!r} < C = {row['C']!r}")
        require(
            4.0 * row["dx2"] * row["dp2"] >= 1.0 - 4e-8,
            f"{where}: 4 dx2 dp2 = {4.0 * row['dx2'] * row['dp2']!r} < 1",
        )
        _check_n_and_s(where, row["A"], row["C"], row["N"], row["S"])
    _check_n_and_s(
        "scalars",
        scalars["coeff_A_planck"]["value"],
        scalars["coeff_C_planck"]["value"],
        scalars["mean_excitation"]["value"],
        scalars["entropy_nats"]["value"],
    )
    if scalars["lambda_planck"]["value"] > 0.0:
        for index in range(1, len(trajectory)):
            before, after = trajectory[index - 1], trajectory[index]
            # N = (sqrt(A/C) - 1)/2 is resolved in double precision only to
            # a few ulp of N + 1 (A/C is a ratio near 1 for nearly pure
            # states), so S may fall by what that resolution allows
            resolution = 4.0 * 2.0**-52 * (before["N"] + 1.0) + digit_unit(before["N"])
            floor = _entropy(max(0.0, before["N"] - resolution))
            require(
                after["S"] >= min(before["S"], floor) - digit_unit(before["S"]),
                f"entropy falls from {before['S']!r} to {after['S']!r} at row {index}",
            )
    check_exact_cubic(report)


# ---------------------------------------------------------------------------
# the baseball reference table


def flatten(report):
    """Named values, 9-digit ones mapped to 9 and deviations to 3 digits.
    Trajectory and discrepancy rows are named by position."""
    named = {}
    for name, row in report["scalars"].items():
        named[f"scalar.{name}.value"] = (row["value"], 9)
        if row["reference"] is not None:
            named[f"scalar.{name}.reference"] = (row["reference"], 9)
            named[f"scalar.{name}.deviation"] = (row["deviation"], 3)
    for index, row in enumerate(report["trajectory"]):
        for column in TRAJECTORY_COLUMNS:
            named[f"trajectory.{index}.{column}"] = (row[column], 9)
    for index, computed in enumerate(report["discrepancies"]):
        if computed is not None:
            named[f"discrepancy.{index}.computed"] = (computed, 9)
    return named


def load_baseball_reference():
    return json.loads(BASEBALL_REFERENCE.read_text())


def check_baseball(report, reference):
    """Every reference value is present and within one unit in its last
    digit; rows the reference does not name are ignored."""
    named = flatten(report)
    for name, (want, digits) in reference.items():
        require(name in named, f"baseball report lacks {name}")
        got = named[name][0]
        require(
            abs(got - want) <= digit_unit(want, digits) * 1.0000001,
            f"baseball {name} = {got!r}, reference {want!r}",
        )
