"""Steadiness check: run every workload repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads served --sets 2
    python3 perfbench/steady.py --runs 3 --trace 1

Runs alternate between workloads (served, discover, ingest, served, ...)
so that a slow spell of the host touches every workload alike.  Every
run lasts ``run_seconds`` of ``BENCHMARK.json``; run ``i`` of every set
uses seed ``i`` (1, 2, ...).  For each workload and
metric it prints the median, the quartiles (``statistics.quantiles``,
``n=4``) and the spread, the distance between the quartiles as a share of
the median.  It flags:

* an end-to-end metric whose spread exceeds its bound in
  ``BENCHMARK.json``;
* with ``--sets 2`` or more, a metric whose median in a later set is
  worse than in the first set by more than its bound;
* a count (``stored_bytes_per_doc_byte``, the failed share, and with
  ``--trace 1`` every per-layer metric not in ms) that differs between
  two runs of one workload with the same seed.  With one set, the first
  seed is run once more to test this.

Every run's final JSON line is kept in ``.perfbench-out/steady-*.json``.
Exits 1 if anything is flagged.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["stamp"] = json.loads(lines[-2])["stamp"] if len(lines) > 1 else {}
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run workloads repeatedly and report spread")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", help="comma-separated; default all")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    spec = {m["name"]: m for m in metrics}

    results = {name: [[] for _ in range(args.sets)] for name in names}
    for s in range(args.sets):
        for i in range(args.runs):
            for name in names:
                seed = i + 1
                result = run_once(name, seed, seconds, args.trace)
                results[name][s].append((seed, result))
                print(f"set {s + 1} run {i + 1} {name} seed {seed}: "
                      f"failed {result['failed']}/{result['attempted']}", flush=True)
    if args.sets == 1:
        for name in names:
            seed = 1
            results[name].append([(seed, run_once(name, seed, seconds, args.trace))])

    flags = []
    for name in names:
        print(f"\n== {name} ==")
        print(f"{'metric':40s} {'unit':6s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'bound':>6s}")
        first = results[name][0]
        for metric, m in spec.items():
            values = [r["metrics"][metric]["value"] for _seed, r in first]
            median, q1, q3, rel = spread(values)
            bound = m.get("bound")
            mark = ""
            if bound is not None and rel > bound:
                mark = "  SPREAD > BOUND"
                flags.append(f"{name} {metric}: spread {rel:.3f} > bound {bound}")
            print(f"{metric:40s} {m['unit']:6s} {median:11.4f} {q1:11.4f} {q3:11.4f} "
                  f"{rel:7.3f} {bound if bound is not None else '-':>6}{mark}")
            for later in results[name][1:args.sets]:
                other = statistics.median(r["metrics"][metric]["value"] for _s, r in later)
                worse = (other - median) / median if median else 0.0
                if m["better"] == "higher":
                    worse = -worse
                print(f"{'':40s} later set median {other:.4f} ({worse:+.3f} worse)")
                if bound is not None and worse > bound:
                    flags.append(f"{name} {metric}: later set worse by {worse:.3f} > {bound}")
        by_seed = {}
        for run_set in results[name]:
            for seed, r in run_set:
                counts = {"failed_share": r["failed"] / r["attempted"]}
                for metric, value in r["metrics"].items():
                    if value["unit"] not in ("ms", "s", "1/s", "MB") and metric != "bench.trace_overhead_ratio":
                        counts[metric] = value["value"]
                by_seed.setdefault(seed, []).append(counts)
        for seed, runs in sorted(by_seed.items()):
            for counts in runs[1:]:
                for metric, value in counts.items():
                    if value != runs[0][metric]:
                        flags.append(f"{name} {metric}: seed {seed} gave "
                                     f"{runs[0][metric]!r} and {value!r}")
    out = os.path.join(os.getcwd(), ".perfbench-out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump({name: [[{"seed": seed, **r} for seed, r in s] for s in sets]
                   for name, sets in results.items()}, f)
    print(f"\nruns kept in {path}")
    for flag in flags:
        print(f"FLAG {flag}")
    print("steady" if not flags else f"{len(flags)} flag(s)")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
