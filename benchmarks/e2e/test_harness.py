"""Tests of the end-to-end benchmark harness itself.

Not collected by the tier-1 suite (``testpaths = ["tests"]``); run with

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from compare import exact_verdict, verdict
from run import BENCHMARK, HOST_METRICS, result_metrics, spread
from spans import SpanTree
from survey import nearest_median
from workloads import (
    FLEET_SEEDS,
    SIM_METRICS,
    fleet_outcome,
    fleet_seed,
    latency_tail,
)

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session", autouse=True)
def _reset_figures_file():
    """Override benchmarks/conftest.py's fixture of the same name.

    That fixture rewrites bench_figures.txt for the figure benches; these
    tests regenerate no figure table, so the file is left alone.
    """


def test_spread_uses_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    stats = spread(values)
    assert (stats["q1"], stats["median"], stats["q3"]) == (q1, 3.0, q3)
    assert (stats["min"], stats["max"], stats["n"]) == (1.0, 5.0, 5)
    single = spread([2.5])
    assert single["q1"] == single["median"] == single["q3"] == 2.5


def test_latency_tail_needs_ten_samples_beyond_p90():
    assert latency_tail(range(1, 100)) == ("max", 99)
    kind, value = latency_tail(range(1, 101))
    assert (kind, value) == ("p90", 90)
    assert latency_tail([]) == ("max", 0.0)


def _verdict(tenant, completed, p99_s=0.5):
    return SimpleNamespace(tenant=tenant, completed=completed, p99_s=p99_s)


def _fleet_report(generated, completed, shed, verdicts, defense):
    return SimpleNamespace(
        generated=generated,
        completed=completed,
        shed_admission=shed,
        shed_failure=0,
        shed_no_node=0,
        fleet_slo=verdicts,
        defense=defense,
        config=SimpleNamespace(duration_s=10.0),
        to_json=lambda: "{}",
        fleet_verdict_for=lambda tenant: next(
            v for v in verdicts if v.tenant == tenant
        ),
    )


def test_failed_frac_excludes_attack_arrivals():
    attacked = _fleet_report(
        100, 70, 30,
        [_verdict("olap", 40, 0.9), _verdict("oltp", 20),
         _verdict("thrash", 10)],
        {"attack_arrivals": {"thrash": 30}, "false_positives": ["batch"]},
    )
    outcome = fleet_outcome(attacked)
    # 70 legitimate arrivals, 60 of them completed; the 20 shed attack
    # requests are no failure.
    assert outcome.sim["failed_frac"] == pytest.approx(10 / 70)
    assert outcome.sim["goodput_sim_per_s"] == pytest.approx(60 / 10)
    assert outcome.sim["olap_p99_sim_s"] == 0.9
    assert outcome.conserved
    assert outcome.requests == 100
    assert outcome.facts == {"defense.false_positives": 1}
    clean = _fleet_report(
        50, 45, 4, [_verdict("olap", 30), _verdict("oltp", 15)],
        {"attack_arrivals": {}},
    )
    assert not fleet_outcome(clean).conserved


def test_fleet_pools_hold_the_seeds_nearest_the_median():
    work = {0: 100, 1: 90, 2: 130, 3: 104, 4: 98, 5: 70}
    requests = {0: 50, 1: 50, 2: 50, 3: 50, 4: 60, 5: 50}
    counts = {
        seed: {"che.iterations": work[seed], "cluster.routed": requests[seed]}
        for seed in work
    }
    # Seed 4's work is nearest the median, but its requests are 20 %
    # above theirs.
    assert nearest_median(counts, 3) == [0, 1, 3]
    for workload, pool in FLEET_SEEDS.items():
        assert len(set(pool)) == 16
        assert [fleet_seed(workload, seed) for seed in (3, 19)] == [
            pool[3], pool[3]
        ]


def test_self_time_subtracts_child_coverage():
    now = [0.0]
    tree = SpanTree(clock=lambda: now[0])

    def step(seconds):
        now[0] += seconds

    inner = tree.wrap("inner", lambda: step(2.0))

    def body():
        step(1.0)
        inner()
        step(1.0)
        inner()
        step(3.0)

    tree.wrap("outer", body)()
    rows = {row["path"]: row for row in tree.rows()}
    assert rows["outer"]["incl_s"] == 9.0
    assert rows["outer"]["self_s"] == 5.0
    assert rows["outer/inner"]["calls"] == 2
    assert rows["outer/inner"]["self_s"] == 4.0
    assert tree.root_time() == 9.0
    assert tree.calls_under("inner", "outer") == 2


def test_recursive_spans_count_inclusive_time_once():
    now = [0.0]
    tree = SpanTree(clock=lambda: now[0])

    def descend(depth):
        now[0] += 1.0
        if depth:
            recurse(depth - 1)

    recurse = tree.wrap("rec", descend)
    recurse(2)
    assert tree.incl_of("rec") == 3.0
    assert tree.self_of("rec") == 3.0
    assert tree.calls_of("rec") == 3


def test_comparator_verdicts():
    parent = [10.0 + 0.01 * i for i in range(10)]
    faster = [value * 0.8 for value in parent]
    assert verdict(parent, faster, "lower", 0.1) == "better"
    assert verdict(parent, [v * 1.2 for v in parent], "lower", 0.1) == (
        "worse"
    )
    assert verdict(parent, [v * 1.03 for v in parent], "lower", 0.1) == (
        "unchanged"
    )
    # A gain on fewer than ten pairs is not claimed.
    assert verdict(parent[:5], faster[:5], "lower", 0.1) == "unchanged"
    # A spread wider than the bound leaves an overlapping change
    # unresolved; one that beats every parent run is still better.
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert verdict(noisy, [4.0] * 10, "lower", 0.1) == "better"
    assert verdict(parent, [v * 1.2 for v in parent], "higher", 0.1) == (
        "better"
    )


def test_exact_verdicts():
    assert exact_verdict([0.5] * 3, [0.5] * 3, "lower") == "unchanged"
    assert exact_verdict([0.5] * 3, [0.4] * 3, "lower") == "better"
    assert exact_verdict([14] * 3, [13] * 3, "higher") == "worse"


def test_smoke_run_emits_every_benchmark_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--smoke", "--reps", "1",
         "--trace", "1", "--out", str(tmp_path)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    results = json.loads((tmp_path / "results.json").read_text())
    summaries = results["workloads"]
    assert set(summaries) == {
        "figures", "serve-steady", "fleet-adaptive", "fleet-control"
    }
    assert {entry["name"] for entry in BENCHMARK["end_to_end"]} == set(
        HOST_METRICS
    )
    assert set(SIM_METRICS) <= {
        entry["name"] for entry in BENCHMARK["per_layer"]
    }
    for workload, summary in summaries.items():
        assert f"digest {summary['digest']}" in done.stdout
        for entry in BENCHMARK["per_layer"]:
            assert f"{workload}.{entry['name']}" in last["metrics"]
        end_to_end = result_metrics(summary, trace=False)
        assert set(end_to_end) == set(HOST_METRICS)
        assert all(metric["value"] > 0 for metric in end_to_end.values())
