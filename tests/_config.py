"""Config text from a Scenario, the inverse of load_scenario."""

from __future__ import annotations

from dataclasses import fields

from decogauss.scenarios import _KEYS, _SECTIONS, Scenario


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(item) for item in value)
    return value if isinstance(value, str) else repr(value)


def dump_scenario(scenario: Scenario) -> str:
    """Serialize a scenario to config text, one line per table row whose
    field differs from its default; load_scenario(dump_scenario(s)) == s
    (floats via repr)."""
    blocks = []
    for section in _SECTIONS:
        obj = scenario if section == "scenario" else getattr(scenario, section)
        if obj is None:
            continue
        defaults = {field.name: field.default for field in fields(obj)}
        lines = [f"[{section}]"]
        for row_section, key, name, _ in _KEYS:
            if row_section == section and name in defaults:
                value = getattr(obj, name)
                if value != defaults[name]:
                    lines.append(f"{key} = {_format(value)}")
        blocks.append("".join(line + "\n" for line in lines))
    return "\n".join(blocks)
