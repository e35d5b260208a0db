"""``python -m segreode.cli`` under the tracer, for the traced ``cli`` run.

Runs ``segreode.cli.main`` on the given arguments with every layer
wrapped, then writes the aggregates and spans to the file named by
PERFBENCH_TRACE, labelling spans with PERFBENCH_JOB.  The exit code is
the CLI's own.
"""

import json
import os
import sys

from tracer import Tracer


def run(argv):
    import segreode.cli

    tracer = Tracer()
    tracer.job = os.environ.get("PERFBENCH_JOB")
    tracer.install()
    try:
        return segreode.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_TRACE"], "w") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
