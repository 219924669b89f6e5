"""Workload process: one fresh interpreter per timed or traced run.

Run as ``python3 -m perfbench.worker`` from the repository root with
``src`` on PYTHONPATH (perfbench/run.py does this).  The process prints
``ready`` once it could make its first timed call, then, unless
``--ready-only`` is given, runs the workload and prints one JSON line.
With ``--ready-only`` it prints instead the host-speed factor right after
start-up (see pace.py), by which perfbench/run.py scales the start-up time.
Every time the workload reports is scaled the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from . import inputs, workloads
from .pace import Pace, ready_factor
from .tracer import Tracer


def run_round(steps, outputs: dict, pace: Pace) -> dict[str, tuple[float, bytes, float]]:
    """Run each step once; returns {label: (seconds at the reference speed,
    fingerprint, wall seconds)} and keeps the first output seen for every
    distinct fingerprint."""
    rec = {}
    for st in steps:
        t0 = time.perf_counter()
        out = st.run()
        t1 = time.perf_counter()
        fp = workloads.fingerprint(out)
        outputs.setdefault((st.label, fp), out)
        rec[st.label] = ((t1 - t0) * pace.factor(t0, t1), fp, t1 - t0)
    return rec


def score(steps, rounds, outputs) -> tuple[int, int, list[float], list[float]]:
    """Verify every distinct output once, outside the timed phase.

    Returns (attempted, failed, items_per_s per round, first_s per round).
    """
    by_label = {st.label: st for st in steps}
    verdicts = {key: by_label[key[0]].check(out) for key, out in outputs.items()}
    for key, rows in verdicts.items():
        for _, ok, note in rows:
            if not ok:
                print(f"perfbench: {key[0]}: {note}", file=sys.stderr)
    attempted = failed = 0
    rates, firsts = [], []
    for rec in rounds:
        ok_items = 0
        busy = 0.0
        for label, (dt, fp, _) in rec.items():
            rows = verdicts[(label, fp)]
            attempted += sum(n for n, _, _ in rows)
            failed += sum(n for n, ok, _ in rows if not ok)
            if by_label[label].items:
                ok_items += sum(n for n, ok, _ in rows if ok)
                busy += dt
        if busy:
            rates.append(ok_items / busy)
        if "first" in rec:
            firsts.append(rec["first"][0])
    return attempted, failed, rates, firsts


def timed(steps, seconds: float) -> dict:
    """Rounds until about ``seconds`` have passed; medians over rounds of
    times at the reference speed."""
    rounds: list[dict] = []
    outputs: dict = {}
    start = time.perf_counter()
    with Pace() as pace:
        while True:
            t0 = time.perf_counter()
            rounds.append(run_round(steps, outputs, pace))
            now = time.perf_counter()
            # start another round only if it should end within the time allowed
            if now - start + (now - t0) > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, rates, firsts = score(steps, rounds, outputs)
    for st in steps:
        for i, kind in ((0, "reference"), (2, "wall")):
            times = " ".join(f"{rec[st.label][i]:.3f}" for rec in rounds)
            print(f"perfbench: {st.label} {kind} seconds: {times}", file=sys.stderr)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "items_per_s": statistics.median(rates) if rates else 0.0,
            "first_s": statistics.median(firsts),
            "peak_rss_mb": peak_rss_mb,
        },
    }


def traced(steps, spans_path: str) -> dict:
    """One untraced and one traced round of the traced steps; the layer
    metrics come from the traced round only."""
    steps = [st for st in steps if st.traced]
    outputs: dict = {}
    tracer = Tracer()
    with Pace() as pace:
        plain = run_round(steps, outputs, pace)
        tracer.install()
        try:
            spanned = run_round(steps, outputs, pace)
        finally:
            tracer.uninstall()
    attempted, failed, _, _ = score(steps, [plain, spanned], outputs)
    metrics = tracer.layer_metrics()
    plain_s = sum(rec[0] for rec in plain.values())
    metrics["trace.overhead_frac"] = sum(rec[0] for rec in spanned.values()) / plain_s - 1
    tracer.dump(spans_path)
    print(f"perfbench: {len(tracer.spans)} spans written to {spans_path}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cache", required=True)
    ap.add_argument("--ready-only", action="store_true")
    args = ap.parse_args(argv)
    files = inputs.seed_paths(args.cache, args.seed, args.workload)
    steps = workloads.steps(args.workload, files, args.seed)
    print("ready", flush=True)
    if args.ready_only:
        print(json.dumps({"factor": ready_factor()}), flush=True)
        return 0
    if args.trace:
        spans = os.path.join(args.cache, f"trace-{args.workload}-seed{args.seed}.json")
        result = traced(steps, spans)
    else:
        result = timed(steps, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
