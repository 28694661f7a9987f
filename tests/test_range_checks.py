"""Every float range check goes through model's three helpers, so a refusal
reads "<name> must be <rule>, got <value>" in one of three forms, and no
rule misstates an inf or a nan."""

import ast
import math
import re
from pathlib import Path

import pytest

from decogauss import model

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "decogauss").glob("*.py"))
HELPERS = {
    "_require_finite": "finite",
    "_require_nonnegative": "nonnegative and finite",
    "_require_positive": "positive and finite",
}
# integer index and count checks, which are not float range checks
INTEGER_MESSAGES = {"n must be nonnegative", "index must be nonnegative", "n_max must be nonnegative"}
RANGE_MESSAGE = re.compile(r"must be (finite|positive|nonnegative)")


def spelled(part):
    """An f-string part as written: text, or {expression!conversion}."""
    if isinstance(part, ast.Constant):
        return part.value
    conversion = "" if part.conversion < 0 else "!" + chr(part.conversion)
    return "{" + ast.unparse(part.value) + conversion + "}"


def message_texts(node, where="<module>"):
    """(innermost enclosing function, text) of every string literal."""
    if isinstance(node, ast.FunctionDef):
        where = node.name
    if isinstance(node, ast.JoinedStr):
        yield where, "".join(map(spelled, node.values))
        return
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield where, node.value
    for child in ast.iter_child_nodes(node):
        yield from message_texts(child, where)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_hand_written_float_range_message(path):
    for where, text in message_texts(ast.parse(path.read_text())):
        if RANGE_MESSAGE.search(text) and text not in INTEGER_MESSAGES:
            assert path.name == "model.py" and where in HELPERS, f"{path.name}, {where}: {text!r}"
            assert text == f"{{name}} must be {HELPERS[where]}, got {{value!r}}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_exports_a_helper(path):
    # the benchmark's tracer wraps every callable in model.__all__
    exported = {
        name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(target, "id", None) for target in node.targets] == ["__all__"]
        for name in ast.literal_eval(node.value)
    }
    assert not set(HELPERS) & exported


@pytest.mark.parametrize(
    "helper, value",
    [(helper, value) for helper in HELPERS for value in (math.inf, -math.inf, math.nan)]
    + [("_require_nonnegative", -1.0), ("_require_positive", 0.0), ("_require_positive", -1.0)],
)
def test_helper_refusal_names_its_rule(helper, value):
    message = f"x must be {HELPERS[helper]}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        getattr(model, helper)("x", value)
