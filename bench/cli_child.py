"""Traced ``graviphoton`` process: ``python3 bench/cli_child.py SPANS_JSON COMMAND CONFIG``.

Behaves like ``python -m graviphoton.cli COMMAND CONFIG`` except that it times
``import graviphoton``, installs the span tracer before the command runs, and
writes the spans to SPANS_JSON at exit.
"""

import json
import sys
import time

from spans import Tracer


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import graviphoton.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = graviphoton.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.records()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
