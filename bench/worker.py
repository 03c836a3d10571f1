"""One pass of a workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED PASS_DIR [--trace]

Imports `ringgeom` from the checkout's `src`, then calls
`ringgeom.cli.main` once per operation of the workload, timing each
call from entry until the report is written.  Writes `worker.json` to
PASS_DIR: per-operation exit code, seconds and error, the peak RSS of
this process, and with --trace the per-layer metrics (spans go to
`spans.json`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import ringgeom                   # noqa: E402
import ringgeom.cli               # noqa: E402
from workloads import WORKLOADS   # noqa: E402


def run_op(argv):
    """Calls the CLI entry point; returns (exit code, seconds, error)."""
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = ringgeom.cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception:                       # reported as a failed operation
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    text = err.getvalue()
    error = None
    if code != 0 or "Traceback" in text:
        error = "exit %r: %s" % (code, text.strip()[-2000:])
    return code, seconds, error


def main(argv):
    workload, seed, pass_dir = argv[0], int(argv[1]), argv[2]
    tracer = None
    if "--trace" in argv[3:]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(ringgeom)
    ops = []
    for k, op in enumerate(WORKLOADS[workload]):
        if tracer:
            tracer.op = k
        argv = op.argv(pass_dir, seed)
        code, seconds, error = run_op(argv)
        ops.append({"argv": argv, "exit": code, "seconds": seconds,
                    "error": error})
    result = {"ops": ops, "peak_rss_mb":
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        result["trace"] = tracer.metrics()
        with open(os.path.join(pass_dir, "spans.json"), "w") as fh:
            json.dump(tracer.span_records(), fh)
    with open(os.path.join(pass_dir, "worker.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
