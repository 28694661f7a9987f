"""Run one `decogauss` command under the tracer, in a fresh process.

Usage: python3 perfbench/traced_cli.py <decogauss arguments>

Behaves like `python -m decogauss <arguments>` (same stdout, stderr and
exit code) and times the stages a CLI user pays: import numpy, import
decogauss, cli.build_parser, cli.main and the layers below it.  The span
summary is the last stderr line, after the prefix `perfbench-trace `.
"""

import json
import sys

from tracer import Tracer, instrument

tracer = Tracer()
tracer.active = True
with tracer.span("import.numpy"):
    import numpy  # noqa: F401
with tracer.span("import.decogauss"):
    import decogauss.cli
instrument(tracer)
try:
    code = decogauss.cli.main(sys.argv[1:])
finally:
    tracer.active = False
    sys.stdout.flush()
    print("perfbench-trace " + json.dumps(tracer.summary()), file=sys.stderr)
sys.exit(code)
