"""Tests for the parallel execution context and its determinism.

The headline guarantee of ``repro.parallel`` is that ``--jobs N``
changes wall-clock time only: stdout, figure rows/notes and every
commutative counter are identical to the sequential schedule.  The
suite checks both fan-out levels (whole experiments across workers,
sweep points within one experiment) against ``--jobs 1``.
"""

import io
from contextlib import redirect_stdout

import pytest

from repro.obs import MetricsRegistry, observing
from repro.parallel import (
    ParallelContext,
    current,
    current_pool,
    parallel_context,
)
from repro.parallel.worker import run_experiment_task

#: Counters that sum over solves and therefore must be *equal* — not
#: merely close — between sequential and parallel schedules.
COMMUTATIVE_COUNTERS = (
    "simulator.solves",
    "che.solves",
    "sim.cache.hits",
    "sim.cache.misses",
    "sim.cache.stores",
)


def _counters(snapshot: dict) -> dict:
    return {
        name: value
        for name, value in snapshot["counters"].items()
        if name in COMMUTATIVE_COUNTERS
    }


def _run_figure(name: str, jobs: int) -> tuple[str, object, dict]:
    """One experiment's (stdout, figure, commutative counters)."""
    from repro.cli import EXPERIMENTS

    stream = io.StringIO()
    with parallel_context(jobs=jobs):
        with observing() as (tracer, metrics):
            with redirect_stdout(stream):
                figure = EXPERIMENTS[name][0](fast=True)
    return stream.getvalue(), figure, _counters(metrics.snapshot())


class TestContext:
    def test_default_is_sequential(self):
        context = current()
        assert context.jobs == 1
        assert not context.parallel
        assert current_pool() is None

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelContext(jobs=0)

    def test_install_and_restore(self):
        before = current()
        with parallel_context(jobs=3) as context:
            assert current() is context
            assert context.jobs == 3
        assert current() is before

    def test_restores_on_error(self):
        before = current()
        with pytest.raises(RuntimeError):
            with parallel_context(jobs=2):
                raise RuntimeError("boom")
        assert current() is before

    def test_no_pool_when_sequential(self):
        with parallel_context(jobs=1) as context:
            assert context.pool() is None

    def test_pool_is_shared_and_shut_down(self):
        with parallel_context(jobs=2) as context:
            pool = context.pool()
            assert pool is not None
            assert context.pool() is pool
            assert pool.submit(abs, -3).result() == 3
        # After the scope exits the pool is gone; submitting raises.
        with pytest.raises(RuntimeError):
            pool.submit(abs, -3)

    def test_cache_enabled_yields_fresh_instances(self, tmp_path):
        with parallel_context(jobs=1, disk_dir=tmp_path) as context:
            first = context.new_cache()
            second = context.new_cache()
        assert first is not second
        assert first.disk_dir == second.disk_dir


class TestWorkerTask:
    def test_payload_matches_inline_run(self):
        payload = run_experiment_task("fig4", fast=True, observe=True)
        stdout, figure, _ = _run_figure("fig4", jobs=1)
        assert payload["name"] == "fig4"
        assert payload["stdout"] == stdout
        assert payload["figure"] == figure.to_dict()
        assert payload["spans"] is not None
        assert payload["metrics"]["counters"]["simulator.solves"] > 0
        assert payload["seconds"] > 0

    def test_unobserved_payload_has_no_spans(self):
        payload = run_experiment_task("fig1", fast=True, observe=False)
        assert payload["spans"] is None
        assert payload["metrics"] is None
        assert payload["figure"] is not None


class TestPointLevelDeterminism:
    """``run <one experiment> --jobs N``: sweep points fan out."""

    @pytest.mark.parametrize("name", ["fig4", "fig9"])
    def test_rows_and_stdout_identical(self, name):
        seq_out, seq_fig, seq_counters = _run_figure(name, jobs=1)
        par_out, par_fig, par_counters = _run_figure(name, jobs=2)
        assert par_out == seq_out
        assert par_fig.rows == seq_fig.rows
        assert par_fig.notes == seq_fig.notes
        assert par_counters == seq_counters

    def test_cached_run_matches_uncached_rows(self, monkeypatch):
        from repro.workloads import mixed

        _, cached, _ = _run_figure("fig5", jobs=1)

        def uncached(requests, cache, pool=None):
            # The reference: every request solved directly, no memo.
            return [request.solve() for request in requests]

        monkeypatch.setattr(mixed, "evaluate", uncached)
        _, reference, counters = _run_figure("fig5", jobs=1)
        assert "sim.cache.misses" not in counters
        assert cached.rows == reference.rows


class TestExperimentLevelDeterminism:
    """``run all --jobs N``: whole experiments fan out."""

    # The model-evaluation subset keeps the test fast; the full-suite
    # check (every experiment, 4 jobs, via the real CLI) runs in
    # benchmarks/bench_parallel.py and CI.
    NAMES = ("fig1", "fig4", "ext-sort")

    def test_payloads_match_sequential(self):
        sequential = {
            name: _run_figure(name, jobs=1) for name in self.NAMES
        }
        with parallel_context(jobs=4) as context:
            pool = context.pool()
            futures = [
                pool.submit(run_experiment_task, name, True, True)
                for name in self.NAMES
            ]
            payloads = [future.result() for future in futures]
        for name, payload in zip(self.NAMES, payloads):
            seq_out, seq_fig, seq_counters = sequential[name]
            assert payload["stdout"] == seq_out
            assert payload["figure"] == seq_fig.to_dict()
            assert _counters(payload["metrics"]) == seq_counters

    def test_merged_metrics_equal_sequential_totals(self):
        totals = MetricsRegistry()
        for name in self.NAMES:
            _, _, counters = _run_figure(name, jobs=1)
            for counter, value in counters.items():
                totals.counter(counter).inc(value)
        merged = MetricsRegistry()
        with parallel_context(jobs=4) as context:
            pool = context.pool()
            futures = [
                pool.submit(run_experiment_task, name, True, True)
                for name in self.NAMES
            ]
            for future in futures:
                merged.merge(
                    MetricsRegistry.from_snapshot(
                        future.result()["metrics"]
                    )
                )
        assert _counters(merged.snapshot()) == _counters(
            totals.snapshot()
        )
