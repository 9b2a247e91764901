"""Run one CLI call with the layer trace installed.

Usage (from the root of a checkout):

    python3 perfbench/traced_cli.py OUT.json [CLI ARGS...]

Times the import of ``spin7ac.cli`` (``cli.import_s``), installs the trace,
runs ``spin7ac.cli.main`` on the arguments, writes the trace aggregates to
OUT.json and its spans to OUT.json.spans, and exits with the CLI's code.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import spin7ac.cli as cli

    imported = time.perf_counter() - start
    import layertrace

    tracer = layertrace.Tracer()
    tracer.count("cli.import_s", imported)
    layertrace.install(tracer)
    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.raw(), handle)
        tracer.write_spans(out_path + ".spans")


if __name__ == "__main__":
    sys.exit(main())
