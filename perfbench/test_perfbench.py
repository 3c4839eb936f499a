"""Self-tests of the benchmark harness (tiny scale, a few seconds each).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from layertrace import LAYER_NAMES, Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
#: Simulated size of the self-test runs, relative to the real benchmark.
TINY = 0.05


def bench(workload: str, trace: int) -> dict:
    """One tiny-scale invocation of the benchmark command; its JSON line."""
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace),
        "--scale", str(TINY),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_names_match(workload):
    result = bench(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0  # failed_op_ratio == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_names_match(workload):
    # A traced invocation fails unless the traced and untraced digests agree.
    result = bench(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    assert metrics["obs.trace_overhead_ratio"]["value"] > 1.0


def run_once(workload: str, recorder=None):
    instance = WORKLOADS[workload](7, TINY, recorder)
    instance.setup()
    if recorder is not None:
        recorder.reset()
    outcome = instance.run()
    return instance, outcome


def test_traced_digest_equals_untraced_and_self_times_add_up():
    _, plain = run_once("fsync_checkpoint")
    recorder = Recorder()
    recorder.install()
    try:
        _, traced = run_once("fsync_checkpoint", recorder)
        wall = recorder.close_root()
    finally:
        recorder.uninstall()
    assert traced.digest == plain.digest
    assert sum(recorder.self_time) == pytest.approx(wall, rel=1e-9)
    assert min(recorder.self_time) >= 0.0
    busy = {name for name, t in zip(LAYER_NAMES, recorder.self_time) if t > 0}
    assert {"sim", "cache", "writeback", "fs", "block", "syscall"} <= busy
    assert recorder.spans and all(end >= start for _, _, start, end, _, _ in recorder.spans)


def test_uninstall_restores_every_method():
    from repro.cache.cache import PageCache
    from repro.sim.core import Environment

    before = (vars(PageCache)["dirty_pages_by_age"], vars(Environment)["run"])
    rec = Recorder()
    rec.install()
    assert vars(PageCache)["dirty_pages_by_age"] is not before[0]
    rec.uninstall()
    assert (vars(PageCache)["dirty_pages_by_age"], vars(Environment)["run"]) == before


def test_scan_byte_check_catches_wrong_bytes():
    instance = WORKLOADS["reprofs_tenants"](7, TINY)
    instance.setup()
    # Expect zeros where the seeded non-zero pattern was written.
    instance.blob = bytes(len(instance.blob))
    outcome = instance.run()
    assert outcome.failed > 0


def test_same_seed_same_digest_other_seed_differs():
    _, first = run_once("mq_random_read")
    _, again = run_once("mq_random_read")
    other = WORKLOADS["mq_random_read"](8, TINY)
    other.setup()
    assert first.digest == again.digest
    assert other.run().digest != first.digest


def test_spec_follows_the_format():
    import re

    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"] and 1 <= SPEC["run_seconds"] <= 60
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_repeats_vary_the_input_seed_and_check_it_repeats(monkeypatch, capsys):
    import run
    import workloads
    from workloads import Outcome

    seen = []

    class Echo:
        """Reports its seed as its digest, or a fresh digest when *drift*."""

        drift = False

        def __init__(self, seed, scale, recorder=None):
            self.seed = seed

        def setup(self):
            seen.append(self.seed)

        def run(self):
            digest = str(len(seen)) if self.drift else str(self.seed)
            return Outcome(ops=1, failed=0, host_calls=[1e-6], victim_sim=[1e-3],
                           sim_bytes=1, sim_seconds=1.0, digest=digest, counters={})

    monkeypatch.setitem(workloads.WORKLOADS, "echo", Echo)
    argv = ["--workload", "echo", "--seed", "3", "--seconds", "0"]
    assert run.main(argv) == 0
    assert len(set(seen)) == run.MIN_REPEATS and seen[-1] == seen[0]
    first = list(seen)
    seen.clear()
    assert run.main(argv) == 0 and seen == first  # same --seed, same inputs

    Echo.drift = True
    assert run.main(argv) == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False
