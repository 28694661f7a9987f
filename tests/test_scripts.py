import subprocess
import sys
from pathlib import Path

from conftest import SUBPROCESS_ENV

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        env=SUBPROCESS_ENV,
        check=False,
    )


def test_entropy_growth_script_slope_is_three_halves():
    result = run_script("entropy_growth.py")
    assert result.returncode == 0, result.stderr.decode()
    rows = result.stdout.decode().splitlines()[1:]
    slopes = [float(row.split()[3]) for row in rows if len(row.split()) == 4]
    assert len(slopes) == len(rows) - 1
    for slope in slopes:
        assert abs(slope - 1.5) <= 1e-3
