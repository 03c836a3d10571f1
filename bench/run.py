"""Benchmark of the ringgeom verifier.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each pass starts a fresh interpreter
(bench/worker.py) that runs the workload's commands one at a time
through `ringgeom.cli.main`; the next pass starts when the previous one
has ended and its outputs have been checked.  Passes repeat until
starting another would overrun S seconds (at least one pass).  The seed
goes to every command as --seed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json (medians over
the passes); --trace 1 runs one untraced and one traced pass and prints
the per-layer metrics of the traced one.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Raw
reports, dumps and spans stay in bench/runs/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, checks_passed   # noqa: E402

PASS_TIMEOUT_S = 150
SETUP_CMD = [sys.executable, "-c", "import ringgeom.cli"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def warm_import(env):
    """One untimed import, which writes the bytecode cache."""
    subprocess.run(SETUP_CMD, env=env, check=True, cwd=ROOT)


def time_setup(env, samples):
    """Wall times of fresh interpreters that import ringgeom.cli."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(SETUP_CMD, env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def one_pass(workload, seed, pass_dir, env, trace=False):
    """Runs and checks one pass; returns its figures and problems."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    os.makedirs(pass_dir)
    ops = WORKLOADS[workload]
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), pass_dir] + (["--trace"] if trace else [])
    with open(os.path.join(pass_dir, "worker.log"), "w") as log:
        try:
            subprocess.run(cmd, env=env, cwd=ROOT, stdout=log,
                           stderr=subprocess.STDOUT, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
    try:
        with open(os.path.join(pass_dir, "worker.json")) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        return {"attempted": len(ops), "failed": len(ops), "wrong": False,
                "problems": ["worker ended without a result; see %s"
                             % os.path.join(pass_dir, "worker.log")],
                "trace": None, "verdict_s": None, "peak_rss_mb": None,
                "checks_passed": None}
    problems, failed, wrong = [], 0, False
    for op, rec in zip(ops, result["ops"]):
        if rec["error"]:
            failed += 1
            problems.append("%s: %s" % (" ".join(rec["argv"]), rec["error"]))
            continue
        try:
            bad = op.check(pass_dir)
        except (OSError, ValueError, KeyError, TypeError) as e:
            bad = ["output unreadable: %r" % e]
        if bad:
            failed += 1
            wrong = True
            problems += ["%s: %s" % (" ".join(rec["argv"]), b) for b in bad]
    passed = checks_passed(ops, pass_dir)
    return {"attempted": len(ops), "failed": failed, "wrong": wrong,
            "problems": problems, "trace": result.get("trace"),
            "verdict_s": sum(r["seconds"] for r in result["ops"]),
            "peak_rss_mb": result["peak_rss_mb"], "checks_passed": passed}


def median_of(passes, key, median=statistics.median):
    values = [p[key] for p in passes if p[key] is not None]
    return median(values) if values else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ringgeom", "cli.py")):
        sys.stderr.write("bench: no ringgeom sources under %s\n" % SRC)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    env = _env()
    run_dir = os.path.join(HERE, "runs", args.workload)
    pass_dir = os.path.join(run_dir, "pass")
    os.makedirs(run_dir, exist_ok=True)

    if args.trace:
        passes = [one_pass(args.workload, args.seed, pass_dir, env)]
        passes.append(one_pass(args.workload, args.seed, pass_dir, env,
                               trace=True))
        traced, plain = passes[1], passes[0]
        figures = dict(traced["trace"] or {})
        if traced["trace"]:
            shutil.move(os.path.join(pass_dir, "spans.json"),
                        os.path.join(run_dir, "spans.json"))
        if traced["verdict_s"] is not None and plain["verdict_s"] is not None:
            figures["trace.overhead_s"] = (traced["verdict_s"]
                                           - plain["verdict_s"])
        wanted = spec["per_layer"]
    else:
        warm_import(env)
        setup = time_setup(env, 3)
        deadline = time.monotonic() + args.seconds
        passes = []
        while True:
            t0 = time.monotonic()
            passes.append(one_pass(args.workload, args.seed, pass_dir, env))
            setup += time_setup(env, 2)
            if time.monotonic() + (time.monotonic() - t0) > deadline:
                break
        figures = {"setup_s": statistics.median(setup)}
        for key in ("verdict_s", "peak_rss_mb"):
            figures[key] = median_of(passes, key)
        figures["checks_passed"] = median_of(passes, "checks_passed",
                                             statistics.median_low)
        wanted = spec["end_to_end"]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [q for p in passes for q in p["problems"]]
    for q in problems[:20]:
        sys.stderr.write("bench: %s\n" % q)
    out = {"correct": not any(p["wrong"] for p in passes),
           "attempted": attempted, "failed": failed,
           "metrics": {m["name"]: {"value": figures.get(m["name"]),
                                   "unit": m["unit"]} for m in wanted}}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"seed": args.seed, "trace": args.trace, "result": out,
                   "passes": passes}, fh, indent=1)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
