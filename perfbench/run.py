"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload fsync_checkpoint --seed 1 --seconds 15 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
The workload is set up and run repeatedly, each time from scratch, for as
many repeats as fit in ``--seconds`` of host time (at least ``MIN_REPEATS``).
Each repeat of an untraced run gets its own input seed, drawn from
``--seed``, so one run averages over many inputs; its last repeat runs the
first repeat's seed again, and the two must produce the same simulated
results.

``--trace 0`` prints the end-to-end metrics over all repeats.
``--trace 1`` alternates untraced repeats with traced ones (every method of
the layer modules wrapped by a timing recorder, obs spans attached) and
prints the per-layer metrics.  Repeats of one input seed must give the
same simulated-results digest, traced or not; a mismatch, a syscall error,
a failed block request or a wrong byte read back fails the run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
the run is correct.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import os
import random
import resource
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Fewest repeats per invocation (setup_s and the host metrics are medians).
MIN_REPEATS = 3

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "call_us_p50": "us",
    "call_us_mean": "us",
    "peak_rss_mb": "MB",
    "sim_victim_p99_ms": "sim_ms",
    "sim_total_mbps": "sim_MB/s",
}

#: Per-layer metrics of the traced pass: name -> unit.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in (
        "sim", "fastforward", "shard", "apps", "devices", "block", "schedulers",
        "writeback", "cache", "fs", "syscall", "vfs", "obs", "other")},
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "writeback.wakeups": "count",
    "writeback.pages_flushed": "count",
    "writeback.pages_scanned": "count",
    "writeback.useful_ratio": "ratio",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "fs.journal_commits": "count",
    "fs.journal_blocks_written": "count",
    "fs.journal_wait_ms_p99": "sim_ms",
    "block.submitted": "count",
    "block.completed": "count",
    "block.failed": "count",
    "block.queue_wait_ms_p99": "sim_ms",
    "devices.requests": "count",
    "devices.seeks": "count",
    "devices.busy_frac": "ratio",
    "syscall.calls": "count",
    "syscall.latency_ms_p99": "sim_ms",
    "fastforward.replayed_ratio": "ratio",
    "fastforward.disturbances": "count",
    "vfs.pump_episodes": "count",
    "vfs.pump_us_p99": "us",
    "shard.epochs": "count",
    "shard.messages": "count",
    "obs.trace_overhead_ratio": "ratio",
}


def percentile(values: List[float], p: float) -> float:
    from repro.metrics.recorders import percentile as pct

    return pct(values, p) if values else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_repeat(workload_cls, seed: int, scale: float, recorder=None) -> Dict:
    """Set up and run one fresh instance; returns timings and the outcome."""
    gc.collect()
    workload = workload_cls(seed, scale, recorder)
    started = perf_counter()
    workload.setup()
    setup_s = perf_counter() - started
    gc.collect()
    if recorder is not None:
        recorder.reset()
    started = perf_counter()
    outcome = workload.run()
    timed_s = perf_counter() - started
    repeat = {"setup_s": setup_s, "timed_s": timed_s, "outcome": outcome}
    if recorder is not None:
        repeat["wall_s"] = recorder.close_root()
    return repeat


def end_to_end(repeats: List[Dict], calls: Sequence[float]) -> Dict[str, float]:
    """Host metrics over the repeats and their *calls*; sim metrics repeat
    exactly.

    Host speed on a shared machine drifts within seconds, so throughput is
    total ops over total timed seconds, and the call metrics pool every
    call of every repeat, each repeat on its own input seed.  The sim
    metrics pool the first ``MIN_REPEATS`` repeats, which every run makes,
    so they depend on ``--seed`` alone.
    """
    from repro.units import MB

    first = [r["outcome"] for r in repeats[:MIN_REPEATS]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in repeats),
        "ops_per_s": sum(r["outcome"].ops for r in repeats)
        / sum(r["timed_s"] for r in repeats),
        "call_us_p50": 1e6 * percentile(calls, 50),
        "call_us_mean": 1e6 * statistics.fmean(calls),
        "peak_rss_mb": peak_rss_mb(),
        "sim_victim_p99_ms": 1e3 * percentile([x for o in first for x in o.victim_sim], 99),
        "sim_total_mbps": sum(o.sim_bytes for o in first)
        / sum(o.sim_seconds for o in first) / MB,
    }


def keep_samples(repeats: List[Dict], calls: "array.array") -> None:
    """Move the newest repeat's call times into *calls*, and drop its sim
    latency samples unless the sim metrics need them, so that the run's
    memory (``peak_rss_mb``) does not grow with its repeat count."""
    outcome = repeats[-1]["outcome"]
    calls.extend(outcome.host_calls)
    outcome.host_calls = []
    if len(repeats) > MIN_REPEATS:
        outcome.victim_sim = []


def install_counters(recorder) -> None:
    """Counting wrappers over the (already timed) methods they measure."""
    from repro.cache.cache import PageCache
    from repro.cache.writeback import WritebackDaemon
    from repro.sim.shard.channel import InterShardChannel

    scan = vars(PageCache)["dirty_pages_by_age"]
    flush_expired = vars(WritebackDaemon)["_flush_expired"]
    push = vars(InterShardChannel)["push"]

    def dirty_pages_by_age(cache, limit=None):
        pages = scan(cache, limit)
        recorder.count("writeback.pages_scanned", len(pages))
        return pages

    def counted_flush_expired(daemon):
        recorder.count("writeback.wakeups")
        return flush_expired(daemon)

    def counted_push(channel, messages):
        recorder.count("shard.messages", len(messages))
        return push(channel, messages)

    recorder.patches.patch(PageCache, "dirty_pages_by_age", dirty_pages_by_age)
    recorder.patches.patch(WritebackDaemon, "_flush_expired", counted_flush_expired)
    recorder.patches.patch(InterShardChannel, "push", counted_push)


def traced_repeat(workload_cls, seed: int, scale: float, recorder, span_path: str) -> Dict:
    """One repeat with every layer wrapped and obs spans attached."""
    from repro.experiments import common
    from repro.obs import latency_breakdown

    recorder.install()
    install_counters(recorder)
    common.enable_tracing()
    try:
        repeat = one_repeat(workload_cls, seed, scale, recorder)
    finally:
        recorder.uninstall()
        spans = common.drain_spans()
        common.disable_tracing()
    recorder.write_spans(span_path)
    outcome = repeat["outcome"]
    start = outcome.sim_start
    spans = [
        span for span in spans
        if span.get("start", span.get("submit", span.get("time", 0.0))) >= start
    ]
    stages = latency_breakdown(spans)["stages"]
    repeat["stages"] = stages
    repeat["syscalls"] = sum(1 for span in spans if span.get("kind") == "syscall")
    repeat["tally"] = recorder.export()
    repeat["spans_kept"] = len(recorder.spans)
    return repeat


def per_layer(repeat: Dict) -> Dict[str, float]:
    """The per-layer metrics of one traced repeat."""
    from layertrace import LAYER_NAMES

    tally = repeat["tally"]
    self_time, counts, samples = tally["self_time"], tally["counts"], tally["samples"]
    c = repeat["outcome"].counters
    metrics = {f"{name}.self_s": self_time[i] for i, name in enumerate(LAYER_NAMES)}
    events = c["sim.events"]
    scanned = counts.get("writeback.pages_scanned", 0)
    lookups = c["cache.hits"] + c["cache.misses"]
    replay = c["fastforward.replayed"] + c["fastforward.measured"]
    stages = repeat["stages"]
    metrics.update({
        "sim.events": events,
        "sim.ns_per_event": 1e9 * metrics["sim.self_s"] / events if events else 0.0,
        "writeback.wakeups": counts.get("writeback.wakeups", 0),
        "writeback.pages_flushed": c["writeback.pages_flushed"],
        "writeback.pages_scanned": scanned,
        "writeback.useful_ratio": c["writeback.pages_flushed"] / scanned if scanned else 0.0,
        "cache.hits": c["cache.hits"],
        "cache.misses": c["cache.misses"],
        "cache.hit_ratio": c["cache.hits"] / lookups if lookups else 0.0,
        "cache.evictions": c["cache.evictions"],
        "fs.journal_commits": c["fs.journal_commits"],
        "fs.journal_blocks_written": c["fs.journal_blocks_written"],
        "fs.journal_wait_ms_p99": 1e3 * stages["journal"]["p99"],
        "block.submitted": c["block.submitted"],
        "block.completed": c["block.completed"],
        "block.failed": c["block.failed"],
        "block.queue_wait_ms_p99": 1e3 * stages["queue"]["p99"],
        "devices.requests": c["devices.requests"],
        "devices.seeks": c["devices.seeks"],
        "devices.busy_frac": c["devices.busy_s"] / c["devices.capacity_s"]
        if c["devices.capacity_s"] else 0.0,
        "syscall.calls": repeat["syscalls"],
        "syscall.latency_ms_p99": 1e3 * stages["syscall"]["p99"],
        "fastforward.replayed_ratio": c["fastforward.replayed"] / replay if replay else 0.0,
        "fastforward.disturbances": c["fastforward.disturbances"],
        "vfs.pump_episodes": c.get("vfs.pump_episodes", 0),
        "vfs.pump_us_p99": 1e6 * percentile(samples["DriverPump.run"], 99),
        "shard.epochs": c.get("shard.epochs", 0),
        "shard.messages": counts.get("shard.messages", 0),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply each workload's simulated size (self-tests)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]

    started = perf_counter()
    repeats: List[Dict] = []
    traced: List[Dict] = []
    recorder = None
    if args.trace:
        from layertrace import Recorder

        recorder = Recorder()
        span_path = os.path.join(".perfbench", f"spans-{args.workload}-{args.seed}.jsonl")

    draw = random.Random(args.seed)
    seeds: List[int] = []
    calls = array.array("d")
    while True:
        began = perf_counter()
        # Traced runs keep their first input seed, so that their per-layer
        # counts repeat exactly.
        seeds.append(seeds[0] if recorder and seeds else draw.randrange(2**31))
        repeats.append(one_repeat(workload_cls, seeds[-1], args.scale))
        keep_samples(repeats, calls)
        if recorder is not None:
            traced.append(traced_repeat(workload_cls, seeds[-1], args.scale, recorder,
                                        span_path))
        # Stop before a repeat that would overrun the budget, keeping room
        # for the untraced run's closing repeat of the first seed.
        now = perf_counter()
        left = 1 if recorder else 2
        if (len(repeats) >= (1 if recorder else MIN_REPEATS)
                and now + left * (now - began) > started + args.seconds):
            break
    if recorder is None:
        seeds.append(seeds[0])
        repeats.append(one_repeat(workload_cls, seeds[0], args.scale))
        keep_samples(repeats, calls)

    everything = repeats + traced
    by_seed: Dict[int, set] = {}
    for seed, r in zip(seeds + seeds, everything):
        by_seed.setdefault(seed, set()).add(r["outcome"].digest)
    failed = sum(r["outcome"].failed for r in everything)
    attempted = sum(r["outcome"].ops + r["outcome"].failed for r in everything)
    mismatched = sorted(seed for seed, found in by_seed.items() if len(found) > 1)
    if mismatched:
        failed += len(everything)  # every repeat is suspect
        print(f"# digests differ between repeats of input seeds {mismatched}")
    correct = failed == 0

    if recorder is None:
        metrics = end_to_end(repeats, calls)
        units = END_TO_END
        print(f"# {args.workload} seed={args.seed}: {len(repeats)} repeats over "
              f"{len(by_seed)} input seeds, {len(calls)} call samples")
    else:
        per_repeat = [per_layer(r) for r in traced]
        metrics = {key: statistics.median(m[key] for m in per_repeat)
                   for key in per_repeat[0]}
        metrics["obs.trace_overhead_ratio"] = (
            statistics.median(r["timed_s"] for r in traced)
            / statistics.median(r["timed_s"] for r in repeats)
        )
        units = PER_LAYER
        wall = traced[-1]["wall_s"]
        accounted = sum(traced[-1]["tally"]["self_time"])
        print(f"# {args.workload} seed={args.seed}: {len(repeats)} untraced + "
              f"{len(traced)} traced repeats; layer self times account for "
              f"{accounted:.4f} of {wall:.4f} s traced wall; "
              f"{traced[-1]['spans_kept']} spans written to {span_path}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
