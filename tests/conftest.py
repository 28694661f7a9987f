import contextlib
import os
import warnings
from pathlib import Path

import hypothesis.strategies as st

from decogauss.evolution import GaussianDensityMatrix

# A failing property test makes hypothesis import this module to print its
# patch hint; where libcst is installed, that import raises a
# DeprecationWarning, which pyproject.toml's filterwarnings turns into an
# INTERNALERROR ending the whole run.  Imported here once with the warning
# ignored, it is cached by the time a test fails.
with contextlib.suppress(ImportError), warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# the environment of every test subprocess: src/ leads PYTHONPATH, so a child
# imports this checkout's package whether or not one is installed
SRC = str(Path(__file__).resolve().parent.parent / "src")
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


@st.composite
def valid_states(draw, max_ratio=1e4, max_b=50.0):
    """Positive Gaussian density matrices: C > 0, A = ratio*C with ratio >= 1,
    B unconstrained."""
    c = draw(st.floats(1e-2, 1e2))
    ratio = draw(st.floats(1.0, max_ratio))
    b = draw(st.floats(-max_b, max_b))
    return GaussianDensityMatrix(c * ratio, b, c)


def o1_states():
    """States with O(1) coefficients, suitable for quadrature cross-checks."""
    return valid_states(max_ratio=20.0, max_b=2.0)
