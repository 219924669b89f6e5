"""Benchmark runner for srgddg.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 25 --trace 0

Run from the repository root.  The runner builds the seeded inputs
(outside any timing), measures set-up time over several fresh
interpreters, runs the workload in one more fresh interpreter for
``--seconds`` seconds, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
they are the per-layer ones from a traced round, and the spans go to
``perfbench/.cache``.  ``--workload all`` runs every workload in turn.

Every time reported is in seconds at a fixed reference speed of the
host, not wall seconds: the wall time of each call is scaled by the
host's speed sampled inside the process during that call (pace.py), so
that a shared host's changes of speed do not show as changes of the
program.  The wall times go to standard error.

Exit codes: 0 when the run completed (a wrong output shows as
``correct: false``), 2 when the package source is missing, 3 when the
workload process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, ".cache")
WORKLOADS = ["decompose", "census", "spectrum", "construct"]

SETUP_SAMPLES = 11     # fresh interpreters timed for setup_s, median of all but the first
WORKER_TIMEOUT = 150   # seconds; the whole run must end within 180


class BenchError(Exception):
    pass


def _worker_cmd(workload: str, seed: int, seconds: float, trace: int, ready_only: bool):
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--cache", CACHE]
    return cmd + (["--ready-only"] if ready_only else [])


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _start(cmd) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ready line; (process, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError("workload process did not start")
    return proc, ready


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process exceeded {WORKER_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    sys.path[:0] = [p for p in (SRC, ROOT) if p not in sys.path]
    from perfbench import inputs

    inputs.workload_files(CACHE, seed, workload)
    setup = []
    if not trace:
        # the first interpreter may still compile bytecode: not counted
        for i in range(SETUP_SAMPLES):
            proc, ready = _start(_worker_cmd(workload, seed, seconds, trace, True))
            factor = json.loads(_finish(proc))["factor"]
            if i:
                setup.append(ready * factor)
    proc, _ = _start(_worker_cmd(workload, seed, seconds, trace, False))
    lines = _finish(proc).splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
    return result


def _report(result: dict, units: dict[str, str]) -> dict:
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }


def metric_units(trace: int) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "srgddg", "__init__.py")):
        print(f"perfbench: no srgddg package under {SRC}", file=sys.stderr)
        return 2
    try:
        units = metric_units(args.trace)
        names = WORKLOADS if args.workload == "all" else [args.workload]
        reports = {}
        for name in names:
            reports[name] = _report(run_workload(name, args.seed, args.seconds, args.trace), units)
            if args.workload == "all":
                print(json.dumps({"workload": name, **reports[name]}), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{w}.{k}": v for w, r in reports.items() for k, v in r["metrics"].items()},
        }
    else:
        final = reports[args.workload]
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
