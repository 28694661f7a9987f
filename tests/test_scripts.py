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


def test_observation_contrast_script_separates_the_two_regimes():
    """Decoherence takes S from 0 to 61 nats, but a window centred at 0
    tells the two states apart only once it is sharper than about 4e16 /m^2."""
    result = run_script("observation_contrast.py")
    assert result.returncode == 0, result.stderr.decode()
    lines = result.stdout.decode().splitlines()
    assert lines[0] == "S = 60.985 nats with decoherence, 0.000 without"
    ratios = {float(gamma): float(ratio) for gamma, _, _, ratio in (line.split() for line in lines[2:])}
    assert sorted(ratios) == [1e-5, 1e10, 1e15, 1e16, 1e17, 1e18, 1e20]
    for gamma, ratio in ratios.items():
        if gamma <= 1e10:
            assert abs(ratio - 1.0) <= 1e-6, gamma
        elif gamma >= 1e18:
            assert ratio < 0.2, gamma
    assert ratios[1e17] < 0.6
