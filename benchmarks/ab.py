"""Interleaved A/B pairs of the end-to-end benchmark across two source trees.

Usage (from any directory)::

    python benchmarks/ab.py --parent OLD_TREE --change NEW_TREE \\
        --workload fsync_checkpoint --seeds 1,9001 --pairs 3 --seconds 12

Each tree runs its own ``perfbench/run.py`` (``--trace 0``), so each side
measures its own simulator.  For every seed the script makes ``--pairs``
pairs of runs, one run per tree, and alternates which tree goes first, so
that a slow phase of the host hits both sides alike.  It prints, per
end-to-end metric, the median of each tree and the min/median/max of the
paired change/parent ratios.

The exit code is 1 if any run is not ``correct`` (or prints no result), or
if a ``sim_*`` metric differs between the two runs of a pair: both runs use
the same seed, so their simulated results must be identical.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Callable, Dict, List, NamedTuple, Sequence

SIDES = ("parent", "change")

#: ``runner(tree, workload, seed, seconds)`` -> perfbench's result object.
Runner = Callable[[str, str, int, float], Dict]


class Pair(NamedTuple):
    """The two runs of one seed, by side."""

    seed: int
    results: Dict[str, Dict]


def run_perfbench(tree: str, workload: str, seed: int, seconds: float) -> Dict:
    """Run *tree*'s own ``perfbench/run.py`` and parse its last stdout line."""
    command = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "error": proc.stderr.strip()[-400:]}


def run_pairs(
    trees: Dict[str, str],
    workload: str,
    seeds: Sequence[int],
    pairs: int,
    seconds: float,
    runner: Runner,
    log=None,
) -> List[Pair]:
    """Make *pairs* pairs per seed, alternating which side runs first."""
    out = []
    for seed in seeds:
        for _ in range(pairs):
            order = SIDES if len(out) % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                results[side] = runner(trees[side], workload, seed, seconds)
                if log is not None:
                    value = metric(results[side], "ops_per_s")
                    print(f"# seed {seed} {side}: ops_per_s={value}", file=log, flush=True)
            out.append(Pair(seed, results))
    return out


def metric(result: Dict, name: str):
    """One metric's value from a perfbench result, or None."""
    entry = result.get("metrics", {}).get(name)
    return entry["value"] if entry else None


def problems(pairs: Sequence[Pair]) -> List[str]:
    """Runs that are not correct, and sim metrics that differ within a pair."""
    found = []
    for pair in pairs:
        for side in SIDES:
            result = pair.results[side]
            if not result.get("correct"):
                detail = result.get("error") or f"failed={result.get('failed')}"
                found.append(f"seed {pair.seed}: {side} run not correct ({detail})")
        names = set(pair.results["parent"].get("metrics", {})) | set(
            pair.results["change"].get("metrics", {})
        )
        for name in sorted(n for n in names if n.startswith("sim_")):
            before, after = (metric(pair.results[side], name) for side in SIDES)
            if before != after:
                found.append(f"seed {pair.seed}: {name} differs: parent {before}, change {after}")
    return found


def ratios(pairs: Sequence[Pair]) -> Dict[str, List[float]]:
    """Per metric, the change/parent ratio of every pair that has both."""
    out: Dict[str, List[float]] = {}
    for pair in pairs:
        for name in pair.results["parent"].get("metrics", {}):
            before, after = (metric(pair.results[side], name) for side in SIDES)
            if before and after is not None:
                out.setdefault(name, []).append(after / before)
    return out


def summary(pairs: Sequence[Pair]) -> List[Dict]:
    """One row per metric: each side's median and the paired ratio spread."""
    rows = []
    for name, values in ratios(pairs).items():
        medians = {
            side: statistics.median(
                v for v in (metric(p.results[side], name) for p in pairs) if v is not None
            )
            for side in SIDES
        }
        rows.append({
            "metric": name,
            "parent": medians["parent"],
            "change": medians["change"],
            "ratio_min": min(values),
            "ratio_median": statistics.median(values),
            "ratio_max": max(values),
        })
    return rows


def render(rows: Sequence[Dict]) -> str:
    lines = [
        f"{'metric':<20} {'parent':>12} {'change':>12} "
        f"{'ratio min':>10} {'median':>8} {'max':>8}"
    ]
    for row in rows:
        lines.append(
            f"{row['metric']:<20} {row['parent']:>12.5g} {row['change']:>12.5g} "
            f"{row['ratio_min']:>10.3f} {row['ratio_median']:>8.3f} {row['ratio_max']:>8.3f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="source tree of the baseline")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,9001", help="comma-separated seeds")
    parser.add_argument("--pairs", type=int, default=3, help="pairs per seed")
    parser.add_argument("--seconds", type=float, default=12.0, help="host seconds per run")
    args = parser.parse_args(argv)

    seeds = [int(seed) for seed in args.seeds.split(",")]
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, tree in trees.items():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"--{side} {tree}: no perfbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    pairs = run_pairs(
        trees, args.workload, seeds, args.pairs, args.seconds, run_perfbench, log=sys.stderr
    )
    print(f"# {args.workload}: {len(pairs)} pairs over seeds {args.seeds}, "
          f"{args.seconds:g} s per run; ratio = change / parent")
    print(render(summary(pairs)))
    found = problems(pairs)
    for problem in found:
        print(f"FAIL {problem}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
