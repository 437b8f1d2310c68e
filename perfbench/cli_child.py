"""Run one `gkm` verb with tracing on, for the traced `cli` workload.

    python3 perfbench/cli_child.py SPANS.json [gkm arguments...]

Times `import gkmcalc.cli`, installs the tracer, runs `cli.main` and writes
this process's spans to SPANS.json. Output and exit code are those of the
verb.
"""

import json
import sys

from spans import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.active = True
    with tracer.span("cli.import"):
        from gkmcalc import cli
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
