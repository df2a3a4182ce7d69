"""Run one workload of the catalog benchmark and print its metrics.

    python3 perfbench/run.py --workload served --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the catalog is imported from
``src/``.  The run builds the starting catalog several times (``setup_s``
is the median), runs one warm-up round, then a fixed number of whole
rounds of operations (``--seconds`` times the workload's rounds per
second at the reference host speed, so every operation of a seed sees
the same catalog state however fast the host is), then checks every
recorded output.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is the run stamp (commit, Python, cores, seed,
operations and failures per kind, raw timings).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones and writes the spans to
``.perfbench-out/``.  Exits 1 if any output check fails.

Timings are given at a reference host speed (see :class:`HostClock`).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(os.getcwd(), ".perfbench-out")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Traced mode alternates traced and untraced blocks of this many rounds.
TRACE_BLOCK = 2


class HostClock:
    """Scales wall time to a reference host speed.

    On a shared host the same Python code runs up to 1.8 times slower in
    spells lasting seconds to minutes, the same for every workload.  The
    clock times a fixed pure-Python probe (thread CPU time, so the
    program's own threads cannot slow it) at most every ``EVERY``
    seconds, between operations, and ``scale`` is ``REFERENCE`` over the
    median of the last three probes.  A timing multiplied by ``scale``
    reads as it would on a host where the probe takes 1 ms.  The probe
    uses no code of the program, so a change to the program moves the
    scaled timings as much as the raw ones.
    """

    EVERY = 0.05
    REFERENCE = 0.001

    def __init__(self) -> None:
        self.last = -math.inf
        self.recent: list = []
        self.scale = 1.0
        self.probes = 0

    def probe(self) -> None:
        # Small objects made, indexed and sorted: allocation and memory
        # traffic like the program's own, which a slow spell slows more
        # than it slows plain arithmetic.  The collector is off, so the
        # program's heap (which a collection would walk) cannot slow it.
        gc.disable()
        start = time.thread_time()
        table = {}
        for i in range(750):
            key = "k%d" % i
            table[key] = [i, key, i * 7 % 13]
        ordered = sorted(table.items(), key=lambda item: item[1][2])
        index: dict = {}
        for i in range(1000):
            row = (i, "name%d" % (i % 97), i * 0.5)
            index.setdefault(row[1], []).append(row)
        took = time.thread_time() - start
        del table, ordered, index
        gc.enable()
        self.recent = (self.recent + [took])[-3:]
        self.scale = self.REFERENCE / statistics.median(self.recent)
        self.probes += 1
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= self.EVERY


class Stopwatch:
    """Time spent on a stretch of work, raw and at the reference host
    speed, less the host probes taken between its steps."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.raw = 0.0
        self.scaled = 0.0
        self.mark = 0.0

    def start(self) -> None:
        self.mark = time.perf_counter()

    def lap(self) -> None:
        """Count the time since the last lap; probe the host if due."""
        now = time.perf_counter()
        self.raw += now - self.mark
        self.scaled += (now - self.mark) * self.clock.scale
        if self.clock.due():
            self.clock.probe()
            now = time.perf_counter()
        self.mark = now


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no catalog source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # One core for the whole run: the served client and server threads
    # hand off on it instead of waking each other across cores, which on
    # a shared 2-core host moved served latencies by a third run to run.
    # Threads started later inherit the mask.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import tracing
    import workloads

    if args.workload not in workloads.CONFIGS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.CONFIGS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    work = workloads.make(args.workload, args.seed, workdir)
    clock = HostClock()
    try:
        setups = []
        for i in range(SETUPS):
            clock.probe()
            watch = Stopwatch(clock)
            instance = work.setup(watch)
            setups.append((watch.raw, watch.scaled))
            if i < SETUPS - 1:
                work.discard(instance)
        work.adopt(instance)
        run = Measurement(work, clock, tracing, args)
        run.measure()
        errors = run.errors + work.check() + work.reopen_check()
    finally:
        work.close()

    timed = {kind: run.scaled[kind] for kind in workloads.KINDS}
    every = [x for kind in workloads.KINDS for x in timed[kind]]
    if args.trace:
        metrics = run.layer_metrics()
        if run.trace_path:
            run.recorder.write(run.trace_path)
    else:
        metrics = {
            "setup_s": (statistics.median(s for _raw, s in setups), "s"),
            "ops_per_s": (run.ops_per_s(False), "1/s"),
            "query_p50_ms": (statistics.median(timed["query"]) * 1e3, "ms"),
            "fetch_p50_ms": (statistics.median(timed["fetch"]) * 1e3, "ms"),
            "search_p50_ms": (statistics.median(timed["search"]) * 1e3, "ms"),
            "ingest_p50_ms": (statistics.median(timed["ingest"]) * 1e3, "ms"),
            "latency_p95_ms": (percentile(every, 0.95) * 1e3, "ms"),
            "stored_bytes_per_doc_byte": (run.stored_ratio, "B/B"),
            "peak_rss_mb": (run.peak_rss_mb, "MB"),
        }
    raw = {kind: run.raw[kind] for kind in workloads.KINDS}
    stamp = {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": run.rounds,
        "round_size": work.config.round_size,
        "ops": run.ops,
        "samples": {kind: len(timed[kind]) for kind in workloads.KINDS},
        "hostile_outcomes": {k: sorted(set(map(str, v))) for k, v in work.hostile.items() if v},
        "host_probes": clock.probes,
        "raw": {
            "setup_s": [r for r, _s in setups],
            "ops_per_s": run.done[False] / run.watch[False].raw,
            **{f"{kind}_p50_ms": statistics.median(raw[kind]) * 1e3 for kind in raw},
        },
        "errors": errors[:20],
    }
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(v["attempted"] for v in run.ops.values()),
        "failed": sum(v["failed"] for v in run.ops.values()),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


class Measurement:
    """The warm-up round and the timed rounds of one run."""

    def __init__(self, work, clock: HostClock, tracing, args) -> None:
        self.work = work
        self.clock = clock
        self.tracing = tracing
        self.args = args
        import workloads
        self.hostile = workloads.HOSTILE
        kinds = list(workloads.KINDS)
        if work.config.served:
            kinds += list(workloads.HOSTILE)
        self.ops = {kind: {"attempted": 0, "failed": 0} for kind in kinds}
        self.timed_ops = {kind: 0 for kind in kinds}
        self.raw = {kind: [] for kind in kinds}
        self.scaled = {kind: [] for kind in kinds}
        self.matches: list = []
        self.errors: list = []
        # Time of the timed rounds and operations completed, by traced or not.
        self.watch = {True: Stopwatch(clock), False: Stopwatch(clock)}
        self.done = {True: 0, False: 0}
        self.recorder = tracing.SpanRecorder(clock) if args.trace else None
        self.trace_path = (os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
                           if args.trace else None)
        self.skip_requests: set = set()
        self.rounds = work.config.rounds(args.seconds)
        self.stored_ratio = None
        self.counts = None
        self.peak_rss_mb = None

    def measure(self) -> None:
        """Round 0 warms up; rounds 1..``rounds`` are timed.  Counts, the
        stored-bytes ratio and the peak RSS are read when the last round
        ends, before any check runs."""
        work = self.work
        registry = work.instance.catalog.metrics
        self.run_round(0, False)
        counts_before = self.tracing.read_counters(registry)
        for r in range(1, self.rounds + 1):
            traced = self.recorder is not None and ((r - 1) // TRACE_BLOCK) % 2 == 0
            if traced:
                self.recorder.install(work.instance, work.client)
            self.run_round(r, traced)
            if traced:
                self.recorder.uninstall()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.counts = self.tracing.layer_counts(
            counts_before, self.tracing.read_counters(registry),
            self.timed_ops, self.matches)
        self.stored_ratio = work.stored_bytes_per_doc_byte()

    def run_round(self, r: int, traced: bool) -> None:
        work, clock, hostile = self.work, self.clock, self.hostile
        watch = self.watch[traced]
        watch.start()
        for kind, args in work.round_plan(r):
            args = work.prepare(kind, args)
            fn = work.op(kind)
            if self.recorder is not None:
                self.recorder.request_id += 1
                if kind in hostile:
                    self.skip_requests.add(self.recorder.request_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:  # the program failed the operation
                result, error = None, exc
            else:
                error = None
            dt = time.perf_counter() - t0
            scale = clock.scale
            ok = error is None and work.record(kind, args, result)
            self.ops[kind]["attempted"] += 1
            if not ok:
                self.ops[kind]["failed"] += 1
                if kind not in hostile:
                    self.errors.append(f"{kind} failed: {error!r}")
            if r == 0:
                if clock.due():
                    clock.probe()
                continue
            # The interval since the previous operation ended, less host
            # probes, counts toward the timed phase.
            watch.lap()
            self.timed_ops[kind] += 1
            if kind == "query" and ok:
                self.matches.append(len(result))
            if ok and kind not in hostile:
                self.raw[kind].append(dt)
                self.scaled[kind].append(dt * scale)
                self.done[traced] += 1

    def ops_per_s(self, traced: bool) -> float:
        seconds = self.watch[traced].scaled
        return self.done[traced] / seconds if seconds else 0.0

    def layer_metrics(self) -> dict:
        metrics = dict(self.tracing.layer_timings(self.recorder.spans, self.skip_requests))
        metrics.update(self.counts)
        untraced = self.ops_per_s(False)
        metrics["bench.trace_overhead_ratio"] = (
            self.ops_per_s(True) / untraced if untraced else 0.0, "1")
        return metrics


if __name__ == "__main__":
    sys.exit(main())
