"""Command-line interface.

Subcommands: run (scenario config -> report), baseball (preset shortcut),
oracle-check (grid validation at O(1) parameters), measure (observation
profile), spectrum (spectral summary for explicit A, B, C).

Exit codes: 0 success, 2 config error or unwritable --output (a
scenarios.ConfigError), 3 validation failure (a ValueError), 4 oracle
disagreement above tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import scenarios
from .evolution import (
    GaussianDensityMatrix,
    cubic_from_initial,
    evolve,
    minimum_uncertainty_initial,
    momentum_variance,
    purity,
)
from .spectral import spectral_summary

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_ORACLE = 4


def _write_output(data: bytes, output: str | None) -> None:
    if output is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        try:
            Path(output).write_bytes(data)
        except OSError as exc:
            raise scenarios.ConfigError(f"cannot write output {output}: {exc.strerror}") from exc


def _load_config(path: str) -> scenarios.Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise scenarios.ConfigError(f"cannot read config {path}: {exc}") from exc
    return scenarios.load_scenario(text)


def _samples(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    return args.samples


def _cmd_report(scenario: scenarios.Scenario, args) -> int:
    report = scenarios.run(scenario, samples=_samples(args))
    _write_output(scenarios.emit(report, args.format), args.output)
    failures = scenarios.tolerance_failures(report, args.tolerance_profile)
    if failures:
        print(
            f"validation failure under profile {args.tolerance_profile!r}: "
            + ", ".join(failures),
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_run(args) -> int:
    return _cmd_report(_load_config(args.config), args)


def _cmd_baseball(args) -> int:
    return _cmd_report(scenarios.baseball_scenario(), args)


def _cmd_measure(args) -> int:
    scenario = _load_config(args.config)
    if scenario.observation is None:
        raise scenarios.ConfigError("missing required config key: observation section")
    profile = scenarios.profile_rows(scenarios.evolve_scenario(scenario))
    report = scenarios.Report(scenario.name, scalars=(), trajectory=(), discrepancies=(), profile=profile)
    _write_output(scenarios.emit(report, args.format), args.output)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    with scenarios._naming(args, "--A", "--B", "--C"):
        state = GaussianDensityMatrix(args.A, args.B, args.C)
        summary = spectral_summary(state)
    payload = {
        "mean_excitation": summary.mean_excitation,
        "entropy_nats": summary.entropy_nats,
        "p0": summary.p0,
        "purity": purity(state),
        "truncation_index": summary.truncation_index,
        "captured_mass": summary.captured_mass,
    }
    if args.format == "json":
        data = (json.dumps(payload, indent=2) + "\n").encode()
    else:
        data = (
            "".join(f"{key} = {value!r}\n" for key, value in payload.items())
        ).encode()
    _write_output(data, args.output)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    """Closed form versus grid integration at seeded O(1) parameter sets."""
    import numpy as np

    from . import oracle

    samples = _samples(args)
    rng = np.random.default_rng(20210830)
    tolerance = 1e-3
    worst = 0.0
    for index in range(samples):
        dx0_sq = float(rng.uniform(0.3, 1.0))
        lam = float(rng.uniform(0.3, 1.2))
        tau_end = float(rng.uniform(0.15, 0.25))
        cubic = cubic_from_initial(minimum_uncertainty_initial(dx0_sq), lam)
        span = 8.0 * math.sqrt(max(cubic.x_value(t) for t in (0.0, tau_end)))
        grid = oracle.discretize(evolve(cubic, 0.0), -span, span, 192)
        evolved = oracle.integrate_master_equation(grid, lam, tau_end)
        fit = oracle.extract_gaussian_coefficients(evolved)
        exact = evolve(cubic, tau_end)
        errs = [
            abs(fit.a_coeff - exact.a_coeff) / abs(exact.a_coeff),
            abs(fit.b_coeff - exact.b_coeff) / max(abs(exact.b_coeff), 1e-12),
            abs(fit.c_coeff - exact.c_coeff) / abs(exact.c_coeff),
            abs(evolved.momentum_variance() - momentum_variance(cubic, tau_end))
            / momentum_variance(cubic, tau_end),
        ]
        err = max(errs)
        worst = max(worst, err)
        status = "ok" if err <= tolerance else "DISAGREES"
        print(
            f"set {index + 1}: dx0^2={dx0_sq:.3f} lam={lam:.3f} tau={tau_end:.3f} "
            f"max rel err={err:.2e} {status}"
        )
    print(f"worst disagreement: {worst:.2e} (tolerance {tolerance:.0e})")
    return EXIT_OK if worst <= tolerance else EXIT_ORACLE


def _add_output(parser: argparse.ArgumentParser, formats=("csv", "json", "text")) -> None:
    parser.add_argument("--format", choices=formats, default="text")
    parser.add_argument("--output", default=None, help="output path (default stdout)")


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    _add_output(parser)
    parser.add_argument("--samples", type=int, default=8)
    parser.add_argument(
        "--tolerance-profile",
        choices=("strict", "paper"),
        default="paper",
        help="reference-value tolerance set used for the validation exit code",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decogauss",
        description="Collisional decoherence of a free Gaussian density matrix",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a scenario config and emit the report")
    p_run.add_argument("--config", required=True)
    _add_report_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_base = sub.add_parser("baseball", help="run the built-in baseball preset")
    _add_report_flags(p_base)
    p_base.set_defaults(func=_cmd_baseball)

    p_oracle = sub.add_parser(
        "oracle-check", help="grid-PDE validation suite at O(1) parameters"
    )
    p_oracle.add_argument("--samples", type=int, default=2, help="number of parameter sets")
    p_oracle.set_defaults(func=_cmd_oracle_check)

    p_measure = sub.add_parser(
        "measure", help="observation-operator profile for a scenario"
    )
    p_measure.add_argument("--config", required=True)
    _add_output(p_measure)
    p_measure.set_defaults(func=_cmd_measure)

    p_spectrum = sub.add_parser(
        "spectrum", help="spectral summary for explicit A, B, C coefficients"
    )
    p_spectrum.add_argument("--A", type=float, required=True)
    p_spectrum.add_argument("--B", type=float, required=True)
    p_spectrum.add_argument("--C", type=float, required=True)
    _add_output(p_spectrum, formats=("json", "text"))
    p_spectrum.set_defaults(func=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except scenarios.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
