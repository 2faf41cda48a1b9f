"""``python -m gmqd`` with spans around gmqd's layers, for the traced cli-cold phase.

    python3 perfbench/traced_cli.py compute --b 0.2 --c 0.1 ...

Expects ``src/`` on PYTHONPATH.  Runs ``gmqd.cli.main`` on the arguments
exactly as ``python -m gmqd`` would, then writes the per-layer span sums as
one line on stderr, after the marker ``perfbench-trace ``.
"""

import json
import sys

import gmqd.cli
from gmqd.verify import TOL_ORACLE_UNDERSHOOT
from spans import Tracer
from workloads import TRACE_MARK, trace_targets


def main() -> int:
    tracer = Tracer()
    layers, searches = trace_targets()
    with tracer.installed(layers, searches):
        code = gmqd.cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(tracer.totals(TOL_ORACLE_UNDERSHOOT)), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
