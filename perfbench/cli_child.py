"""Run ``coxmon.cli.main(argv)`` in-process in a fresh, traced interpreter.

    python3 perfbench/cli_child.py <summary dir> <coxmon arguments...>

Used by the traced cli-cold run.  Writes the tracer summary, the time of
``main`` and the cache state at start to ``<summary dir>/<pid>.summary.json``
and the spans next to it, then exits with ``main``'s exit code.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def run() -> int:
    out_dir, argv = sys.argv[1], sys.argv[2:]
    import coxmon.cli

    cold = tracing.cache_info()
    tracer = tracing.Tracer(max_spans=20_000)  # one file per CLI process
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = coxmon.cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 3
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    summary = tracer.summary()
    base = os.path.join(out_dir, str(os.getpid()))
    tracer.write_spans(base + ".spans.json")
    with open(base + ".summary.json", "w") as f:
        json.dump({"argv": argv, "main_s": main_s, "cold_cache": cold,
                   "trace": summary}, f)
    return code


if __name__ == "__main__":
    sys.exit(run())
