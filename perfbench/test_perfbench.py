"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest perfbench -q

The negative controls feed each check a wrong answer and require that the
operation is counted as failed, so that no check can pass silently.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from worker import execute  # noqa: E402
from workloads import FORMATS, GridSpectrum, OracleCheck, ReportSweep  # noqa: E402

from decogauss import oracle, scenarios  # noqa: E402

NUMBER = rb"[-+]?\d[\d.]*(?:e[-+]?\d+)?"


def _perturb_coeff_a(data):
    """Raise the emitted coeff_A_planck by one part in a million."""
    def bump(match):
        value = float(match.group(2)) * (1.0 + 1e-6)
        return match.group(1) + f"{value:.8e}".encode()

    perturbed, count = re.subn(rb"(coeff_A_planck\D*?)(" + NUMBER + rb")", bump, data, count=1)
    assert count == 1
    return perturbed


def _first(ops, kind, **args):
    return next(op for op in ops if op.kind == kind
                and all(op.args[key] == value for key, value in args.items()))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("kind", ("baseball", "scenario"))
def test_perturbed_emitted_value_fails(fmt, kind):
    workload = ReportSweep(seed=7)
    ops = [op for index in range(3) for op in workload.block(index)]
    op = _first(ops, kind, fmt=fmt)
    assert execute(workload, op)[0]

    operate = workload.operate

    def perturbed(op):
        data, failures = operate(op)
        return _perturb_coeff_a(data), failures

    workload.operate = perturbed
    ok, _, error, _ = execute(workload, op)
    assert not ok
    assert "does not parse" not in error


def test_wrong_lambda_fails(monkeypatch):
    workload = OracleCheck(seed=7)
    op = _first(workload.block(0), "pure", n=128)
    assert execute(workload, op)[0]

    integrate = oracle.integrate_master_equation
    monkeypatch.setattr(oracle, "integrate_master_equation",
                        lambda grid, lam, tau_end: integrate(grid, 1.5 * lam, tau_end))
    ok, _, error, _ = execute(workload, op)
    assert not ok
    assert "disagreement" in error


def test_non_hermitian_kernel_fails(monkeypatch):
    workload = GridSpectrum(seed=7)
    op = _first(workload.block(0), "state", n=256)
    assert execute(workload, op)[0]

    discretize = oracle.discretize

    def skewed(*args):
        grid = discretize(*args)
        grid.values[0, 1] += 1e-6
        return grid

    monkeypatch.setattr(oracle, "discretize", skewed)
    ok, _, error, _ = execute(workload, op)
    assert not ok
    assert "not Hermitian" in error


def test_parsers_agree_across_formats():
    workload = ReportSweep(seed=3)
    for op in workload.block(0)[:8]:
        report = scenarios.run(scenarios.load_scenario(op.args["text"]), samples=op.args["samples"])
        named = [checks.flatten(checks.parse_report(scenarios.emit(report, fmt), fmt))
                 for fmt in FORMATS]
        assert named[0] == named[1] == named[2]


def _traced(workload, seed=5):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "10", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _counts(metrics):
    return {name: value for name, value in metrics.items()
            if name.endswith(".calls") or name in tracing.COUNTS}


@pytest.mark.parametrize("workload", ("report_sweep", "oracle_check", "grid_spectrum", "cli_cold"))
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload), _traced(workload)
    assert _counts(first) == _counts(second)
    assert set(first) == {f"{layer}.{kind}" for layer in tracing.LAYERS
                          for kind in ("calls", "self_s")} | set(tracing.COUNTS) | {
        "oracle.integrate.peak_mb", "oracle.max_rel_err", "spectrum.max_eig_rel_err",
        "spectrum.max_overlap_deficit", "op.total_s", "trace.overhead_pct"}
    if workload == "oracle_check":
        assert first["oracle.integrate.self_s"] >= 0.9 * first["op.total_s"]
    if workload == "grid_spectrum":
        assert first["oracle.integrate.calls"] == 0
        assert first["oracle.eigendecompose.calls"] > 0


def test_refuses_to_run_without_the_package_source():
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "report_sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""
