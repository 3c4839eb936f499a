"""Tests for the A/B script's pairing, ratio and sim-check logic.

A stub runner stands in for ``perfbench/run.py``, so no benchmark runs.
"""

import pytest

from benchmarks import ab

TREES = {"parent": "/trees/old", "change": "/trees/new"}


def result(ops, sim=1.5, correct=True):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {
            "ops_per_s": {"value": ops, "unit": "1/s"},
            "peak_rss_mb": {"value": 50.0, "unit": "MB"},
            "sim_victim_p99_ms": {"value": sim, "unit": "sim_ms"},
        },
    }


class StubRunner:
    """Returns scripted results per side and records every call by side."""

    def __init__(self, parent_ops, change_ops, change_sim=1.5, change_correct=True,
                 trees=TREES):
        self.sides = {tree: side for side, tree in trees.items()}
        self.ops = {"parent": list(parent_ops), "change": list(change_ops)}
        self.change_sim = change_sim
        self.change_correct = change_correct
        self.calls = []

    def __call__(self, tree, workload, seed, seconds):
        side = self.sides[tree]
        self.calls.append((side, workload, seed, seconds))
        ops = self.ops[side].pop(0)
        if side == "change":
            return result(ops, self.change_sim, self.change_correct)
        return result(ops)


def test_pairs_alternate_order_across_seeds():
    runner = StubRunner([100] * 4, [400] * 4)
    pairs = ab.run_pairs(TREES, "fsync_checkpoint", [1, 9001], 2, 3.0, runner)
    assert [p.seed for p in pairs] == [1, 1, 9001, 9001]
    assert [call[0] for call in runner.calls] == [
        "parent", "change", "change", "parent", "parent", "change", "change", "parent",
    ]
    assert {(call[1], call[3]) for call in runner.calls} == {("fsync_checkpoint", 3.0)}
    assert [call[2] for call in runner.calls] == [1, 1, 1, 1, 9001, 9001, 9001, 9001]


def test_ratios_are_paired_and_summarised():
    # Pair order: parent-first, change-first, parent-first.
    runner = StubRunner([100, 200, 100], [400, 500, 300])
    pairs = ab.run_pairs(TREES, "w", [1], 3, 1.0, runner)
    assert ab.ratios(pairs)["ops_per_s"] == [4.0, 2.5, 3.0]
    rows = {row["metric"]: row for row in ab.summary(pairs)}
    ops = rows["ops_per_s"]
    assert (ops["parent"], ops["change"]) == (100, 400)
    assert (ops["ratio_min"], ops["ratio_median"], ops["ratio_max"]) == (2.5, 3.0, 4.0)
    assert rows["sim_victim_p99_ms"]["ratio_median"] == 1.0
    assert ab.problems(pairs) == []
    assert "ops_per_s" in ab.render(ab.summary(pairs))


def test_zero_parent_value_has_no_ratio():
    runner = StubRunner([0], [5])
    pairs = ab.run_pairs(TREES, "w", [1], 1, 1.0, runner)
    assert "ops_per_s" not in ab.ratios(pairs)


def test_sim_difference_within_a_pair_is_a_problem():
    runner = StubRunner([100], [400], change_sim=1.6)
    pairs = ab.run_pairs(TREES, "w", [7], 1, 1.0, runner)
    assert ab.problems(pairs) == [
        "seed 7: sim_victim_p99_ms differs: parent 1.5, change 1.6",
    ]


def test_incorrect_run_is_a_problem():
    runner = StubRunner([100], [400], change_correct=False)
    pairs = ab.run_pairs(TREES, "w", [7], 1, 1.0, runner)
    assert ab.problems(pairs) == ["seed 7: change run not correct (failed=1)"]


@pytest.mark.parametrize(
    "change_sim, change_correct, code", [(1.5, True, 0), (2.0, True, 1), (1.5, False, 1)]
)
def test_main_exit_code(tmp_path, monkeypatch, capsys, change_sim, change_correct, code):
    trees = {}
    for side in ab.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
        trees[side] = str(tmp_path / side)
    stub = StubRunner([100, 100], [200, 200], change_sim, change_correct, trees)
    monkeypatch.setattr(ab, "run_perfbench", stub)
    argv = ["--parent", trees["parent"], "--change", trees["change"], "--workload", "w",
            "--seeds", "1,2", "--pairs", "1", "--seconds", "1"]
    assert ab.main(argv) == code
    out = capsys.readouterr().out
    assert "ops_per_s" in out
    assert ("FAIL" in out) == bool(code)


def test_run_perfbench_parses_last_line_or_reports_failure(tmp_path):
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    script = tree / "perfbench" / "run.py"
    script.write_text('print("# comment")\nprint(\'{"correct": true, "metrics": {}}\')\n')
    assert ab.run_perfbench(str(tree), "w", 1, 1.0) == {"correct": True, "metrics": {}}
    script.write_text('import sys\nsys.exit("boom")\n')
    broken = ab.run_perfbench(str(tree), "w", 1, 1.0)
    assert broken["correct"] is False and "boom" in broken["error"]
