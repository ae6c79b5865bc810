"""Tests for the benchmark's own code, at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = {
    "lemma": lambda: workloads.lemma_sweep(0, n_max=12),
    "theorem": lambda: workloads.theorem_sweep(0, q_max=32, tail=False),
    "construct": lambda: workloads.construct_srg(0, q_range=(9, 16)),
}


@pytest.fixture
def runner():
    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="test-", dir=BENCH_DIR / "_work"))
    yield run.Runner(workdir)
    shutil.rmtree(workdir)


def test_benchmark_json_names_the_runner_metrics_and_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == units


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("kind", sorted(TINY))
def test_every_metric_present_with_unit(runner, kind, trace):
    commands = TINY[kind]()
    result, info = run.measure(runner, commands, 0, trace)
    units = run.PER_LAYER if trace else run.END_TO_END
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == sum(c.ops for c in commands) * (1 + trace)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert len(info["report_sha256"]) == len(commands)
    if trace:
        assert info["absent"] == []
        assert 0 < result["metrics"]["trace.inprocess_s"]["value"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_match_the_reports(runner):
    lemma, _ = run.measure(runner, TINY["lemma"](), 0, True)
    assert (lemma["metrics"]["znaction.enumerate.partitions"]["value"]
            == workloads.recorded()["lemma_partitions"]["12"])
    commands = TINY["construct"]()
    construct, _ = run.measure(runner, commands, 0, True)
    pairs = sum(c.expect[0] * (c.expect[0] - 1) // 2 for c in commands)
    assert construct["metrics"]["graphs.srg_params.pairs"]["value"] == pairs
    assert construct["metrics"]["znaction.enumerate.calls"]["value"] == 0


@pytest.mark.parametrize("kind", sorted(TINY))
def test_wrong_verdict_raises_fail_ratio(runner, kind):
    commands = TINY[kind]()
    expect = commands[0].expect
    if kind == "lemma":
        wrong = expect + 1
    elif kind == "theorem":
        wrong = expect[:-1] + ((expect[-1][0], 99),)
    else:
        wrong = (0, 0, 0, 0)
    commands[0] = dataclasses.replace(commands[0], expect=wrong)
    result, _ = run.measure(runner, commands, 0, True)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert result["metrics"]["fail_ratio"]["value"] > 0


class ScriptedRunner:
    """Gives the commands of each repetition wall times from a script."""

    def __init__(self, script):
        self.script, self.calls = script, 0

    def setup_time(self):
        return 0.25

    def command(self, cmd, traced=False):
        self.calls += 1
        if self.calls == 1:  # the untimed warm-up
            return run.CommandRun(99.0, 30.0, 9.0, cmd.ops, 0, 1, "", None)
        repetition, i = divmod(self.calls - 2, 2)
        time.sleep(0.001)
        wall = self.script[repetition % len(self.script)][i]
        return run.CommandRun(wall, 30.0, 1.0, cmd.ops, 0, 1, "", None)


def test_wall_s_is_the_mean_repetition():
    commands = TINY["construct"]()[:2]
    runner = ScriptedRunner([(3.0, 5.0), (2.0, 7.0), (4.0, 6.0)])
    result, info = run.measure(runner, commands, 0.05, False)
    walls = info["wall_s_each"]
    assert len(walls) >= 3 and walls[:3] == [8.0, 9.0, 10.0]
    assert result["metrics"]["wall_s"]["value"] == sum(walls) / len(walls)


def test_tracer_lists_a_missing_function_as_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR.parent / "src"))
    monkeypatch.setattr(tracer, "WRAPS", tracer.WRAPS + (
        ("graphs", "renamed_away", "graphs.renamed_away"),))
    assert tracer.install([], []) == ["graphs.renamed_away"]


def test_failed_ops_on_bad_exit_or_report():
    theorem = TINY["theorem"]()[0]
    assert workloads.failed_ops(theorem, 1, b"{}") == theorem.ops
    assert workloads.failed_ops(theorem, 0, b'{"fields": [') == theorem.ops
    report = {"fields": [{"q": q, "unmatched": 0, "partitions": [{}] * n}
                         for q, n in theorem.expect]}
    assert workloads.failed_ops(theorem, 0, json.dumps(report).encode()) == 0
    report["fields"][0]["unmatched"] = 1
    del report["fields"][1]
    assert workloads.failed_ops(theorem, 0, json.dumps(report).encode()) == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv(name):
    build = workloads.WORKLOADS[name]
    for seed in (0, 1, 2024):
        assert build(seed) == build(seed)
    if name != "lemma-sweep":
        assert len({tuple(c.args for c in build(s)) for s in range(8)}) > 1


def test_workload_shapes():
    theorem = workloads.theorem_sweep(7)[0]
    qs = [int(a) for a in theorem.args[3::2]]
    assert [q for q, _ in theorem.expect] == qs == sorted(set(qs))
    assert sum(q <= workloads.THEOREM_Q_MAX for q in qs) == 117
    tail = 1 + len(workloads.THEOREM_TAIL_RANGES)
    assert sum(q > 1024 for q in qs) == tail
    assert workloads.THEOREM_TAIL_FIXED in qs
    construct = workloads.construct_srg(7)
    assert len(construct) == 12
    assert {c.args[2] for c in construct} == {"paley", "vls", "peisert"}
    assert all(512 <= c.expect[0] <= 1024 for c in construct)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(200))) == (95.0, 189)
    assert run.tail(list(range(1000))) == (99.0, 989)
    assert run.tail(list(range(19))) == (0.0, 0.0)


def test_compare_labels():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in base]
    assert compare.label(base, faster, lower_is_better=True) == "better"
    assert compare.label(base, faster, lower_is_better=False) == "worse"
    assert compare.label(base, list(reversed(base)), True) == "unresolved"
