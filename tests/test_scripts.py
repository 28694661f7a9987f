import os
import subprocess
import sys
from pathlib import Path

import pytest

from decogauss.scenarios import baseball_scenario, emit, run

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        env=env,
        check=False,
    )


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_baseball_report_script(fmt):
    result = run_script("baseball_report.py", fmt)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == emit(run(baseball_scenario(), samples=8), fmt)


def test_entropy_growth_script_slope_is_three_halves():
    result = run_script("entropy_growth.py")
    assert result.returncode == 0, result.stderr.decode()
    rows = result.stdout.decode().splitlines()[1:]
    slopes = [float(row.split()[3]) for row in rows if len(row.split()) == 4]
    assert len(slopes) == len(rows) - 1
    for slope in slopes:
        assert abs(slope - 1.5) <= 1e-3


def test_grid_convergence_script():
    result = run_script("grid_convergence.py")
    assert result.returncode == 0, result.stderr.decode()
