"""Write baseball_reference.json from the current commit's baseball report.

Usage, from the root of a checkout: PYTHONPATH=src python3 perfbench/capture_baseball.py

The committed table was captured at the commit that introduced the
benchmark.  Every named value must read the same in text, CSV and JSON
before the table is written; re-capture only when a change to the report's
values is intended.
"""

import json

from decogauss import scenarios

import checks

report = scenarios.run(scenarios.baseball_scenario())
tables = [
    checks.flatten(checks.parse_report(scenarios.emit(report, fmt), fmt))
    for fmt in ("text", "csv", "json")
]
if not tables[0] == tables[1] == tables[2]:
    raise SystemExit("the three formats disagree; no table written")
checks.BASEBALL_REFERENCE.write_text(json.dumps(tables[0], indent=1, sort_keys=True) + "\n")
print(f"{len(tables[0])} values written to {checks.BASEBALL_REFERENCE}")
