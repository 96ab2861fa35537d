"""The benchmark's four workloads, and the process that runs one of them.

Run as a script, this module is one repetition: it times the set-up of
one workload (from ``import repro`` to the first timed call), times the
workload itself, and prints one JSON line with both times, the peak
resident set, the report digest, the simulated results and the output
checks.  ``run.py`` starts it in a fresh interpreter for every
repetition, because a user pays cold caches on every CLI run::

    PYTHONPATH=src python3 benchmarks/e2e/workloads.py \\
        --workload serve-steady --seed 7 --out benchmarks/e2e/out

``--mode trace`` wraps the package's public entry points with span
recorders (``spans.py``) and reads the package's counters through
``repro.obs.observing()``; the line then also carries the span tree and
the per-layer metrics.  ``--mode setup`` stops after the set-up.
``--mode prepare`` writes the untimed input a workload reads during
set-up (only ``fleet-control`` has one).

Traffic is open-loop inside the simulator: arrivals follow the stated
rates whatever the service does, and each request's latency is charged
from its scheduled arrival.  On the host the loop is closed: one
workload process runs at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Default seed of each workload, and a held-out seed used only to
#: confirm a claimed gain.  ``figures`` is seed-independent: its rows
#: are pure functions of the model, and the trace replay pins its own
#: generator.
SEEDS = {
    "figures": 7,
    "serve-steady": 7,
    "fleet-adaptive": 7,
    "fleet-control": 0xA11CE,
}
HELD_OUT_SEEDS = {
    "figures": 7,
    "serve-steady": 1009,
    "fleet-adaptive": 1009,
    "fleet-control": 0xB0B,
}

#: ``--smoke`` divides every simulated duration by this.
SMOKE_FACTOR = 20

#: The paper's claims the ``figures`` workload must reproduce.
PAPER_CLAIMS = 14

#: Simulated results.  A workload reports the ones its reports hold
#: (claims and model error for ``figures``, the rest for the others);
#: they repeat exactly for one seed.
SIM_METRICS = (
    "olap_p99_sim_s", "oltp_p99_sim_s", "goodput_sim_per_s",
    "failed_frac", "claims_passed", "model_abs_error_max",
)


@dataclass
class Outcome:
    """What one timed call produced, reduced to what the harness checks."""

    #: SHA-256 of the canonical report (figure rows for ``figures``).
    digest: str
    #: Simulated requests offered (figure rows for ``figures``).
    requests: int
    #: ``generated == completed + shed_*`` on this run.
    conserved: bool
    #: Simulated results; identical on every run of one seed.
    sim: dict
    #: Report facts the per-layer metrics need.
    facts: dict = field(default_factory=dict)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _training_path(out: Path, smoke: bool) -> Path:
    suffix = "-smoke" if smoke else ""
    return out / f"fleet-control-training{suffix}.json"


# -- figures -----------------------------------------------------------


def setup_figures(seed: int, smoke: bool, out: Path):
    from repro.experiments import (
        ext_trace_validation,
        fig01_teaser,
        fig04_scan,
        fig05_aggregation,
        fig06_join,
        fig09_scan_agg,
        fig10_agg_join,
        fig11_tpch,
        fig12_oltp,
        summary,
    )

    # The figures experiments.summary.run() evaluates its claims on.
    # Running them here keeps their rows, which summary.run() drops.
    figures = {
        "fig1": fig01_teaser,
        "fig4": fig04_scan,
        "fig5": fig05_aggregation,
        "fig6": fig06_join,
        "fig9": fig09_scan_agg,
        "fig10": fig10_agg_join,
        "fig11": fig11_tpch,
        "fig12": fig12_oltp,
    }

    def run() -> Outcome:
        results = {
            figure_id: module.run() for figure_id, module in figures.items()
        }
        verdicts = [claim.check(results) for claim in summary.CLAIMS]
        trace = ext_trace_validation.run(fast=smoke)
        tables = [result.to_dict() for result in results.values()]
        tables.append(trace.to_dict())
        return Outcome(
            digest=_sha256(json.dumps(
                {"tables": tables, "verdicts": verdicts}, sort_keys=True
            )),
            requests=sum(len(table["rows"]) for table in tables),
            conserved=True,
            sim={
                "claims_passed": sum(verdicts),
                "model_abs_error_max": max(
                    trace.column("abs_error")
                ),
            },
        )

    return run


# -- serve-steady --------------------------------------------------------


def service_outcome(report) -> Outcome:
    """Outcome of one single-node service report."""
    return Outcome(
        digest=_sha256(report.to_json()),
        requests=report.arrived,
        conserved=report.arrived == report.completed + report.shed,
        sim={
            "olap_p99_sim_s": report.verdict_for("olap").p99_s,
            "oltp_p99_sim_s": report.verdict_for("oltp").p99_s,
            "goodput_sim_per_s": (
                report.completed / report.config.duration_s
            ),
            "failed_frac": report.shed / report.arrived,
        },
    )


def setup_serve_steady(seed: int, smoke: bool, out: Path):
    from repro.serve import QueryService, ServiceConfig

    service = QueryService(ServiceConfig(
        profile="poisson",
        policy="none",
        mix="olap",
        rate_per_s=20.0,
        duration_s=1200.0 / (SMOKE_FACTOR if smoke else 1),
        seed=seed,
    ))
    return lambda: service_outcome(service.run())


# -- fleets ----------------------------------------------------------------

#: Simulated seconds of one fleet.  A repetition runs one fleet, a few
#: host seconds long, so a run holds several repetitions to take the
#: fastest of.
FLEET_DURATION_S = 15.0

#: The fleet seeds ``--seed`` picks from: seed ``S`` runs fleet seed
#: ``FLEET_SEEDS[workload][S % 16]``.  A fleet's host time follows its
#: model work, and that work swings with the fleet seed.  Over fleet
#: seeds 0-99, the CHE iteration count of one fleet-adaptive fleet had
#: a coefficient of variation of 21 % (fleet-control: 8 %, seeds 0-79),
#: so ten runs at ten arbitrary seeds spread past any bound a host-time
#: metric can carry.  Each pool holds the 16 surveyed seeds whose CHE
#: iteration count and routed request count lie nearest their medians
#: (within 3.5 % and 2.6 %): typical fleets, chosen on counts the
#: program makes, not on host time.  ``survey.py`` recomputes them; a
#: change to the fleet configuration needs a new survey.
FLEET_SEEDS = {
    "fleet-adaptive": (
        3, 10, 14, 31, 33, 45, 51, 53, 55, 67, 68, 77, 82, 85, 90, 98,
    ),
    "fleet-control": (
        1, 7, 19, 24, 25, 28, 40, 45, 50, 51, 54, 57, 63, 65, 66, 71,
    ),
}


def fleet_seed(workload: str, seed: int) -> int:
    """The fleet seed workload seed ``seed`` runs."""
    pool = FLEET_SEEDS[workload]
    return pool[seed % len(pool)]


def fleet_outcome(report) -> Outcome:
    """Outcome of one fleet report; attacks are not legitimate.

    Attack arrivals (``defense.attack_arrivals``) leave both sides of
    ``failed_frac`` and the goodput numerator: shedding an attacker is
    the defense working, not a failure.
    """
    attack_groups = report.defense["attack_arrivals"]
    offered = report.generated - sum(attack_groups.values())
    completed = report.completed - sum(
        verdict.completed for verdict in report.fleet_slo
        if verdict.tenant in attack_groups
    )
    shed = report.shed_admission + report.shed_failure + report.shed_no_node
    return Outcome(
        digest=_sha256(report.to_json()),
        requests=report.generated,
        conserved=report.generated == report.completed + shed,
        sim={
            "olap_p99_sim_s": report.fleet_verdict_for("olap").p99_s,
            "oltp_p99_sim_s": report.fleet_verdict_for("oltp").p99_s,
            "goodput_sim_per_s": completed / report.config.duration_s,
            "failed_frac": (offered - completed) / offered,
        },
        facts={
            "defense.false_positives": len(
                report.defense.get("false_positives", ())
            ),
        },
    )


def adaptive_fleet(fleet_seed: int, smoke: bool, out: Path):
    """The fleet-adaptive ``Cluster`` of one fleet seed, not yet run."""
    from repro.cluster import Cluster, ClusterConfig, seeded_faults

    duration = FLEET_DURATION_S / (SMOKE_FACTOR if smoke else 1)
    return Cluster(ClusterConfig(
        nodes=8,
        router="affinity",
        policy="adaptive",
        mix="olap",
        profile="poisson",
        rate_per_s=10.0,
        duration_s=duration,
        seed=fleet_seed,
        faults=seeded_faults(8, 2, duration, fleet_seed),
    ))


def setup_fleet_adaptive(seed: int, smoke: bool, out: Path):
    cluster = adaptive_fleet(fleet_seed("fleet-adaptive", seed), smoke, out)
    return lambda: fleet_outcome(cluster.run(fleet_jobs=1))


def _control_base(seed: int, smoke: bool) -> dict:
    """The diurnal OLAP->OLTP shift scenario of bench_serve's planner row,
    over ``FLEET_DURATION_S``."""
    return dict(
        nodes=4,
        profile="diurnal",
        mix="shift",
        duration_s=FLEET_DURATION_S / (SMOKE_FACTOR if smoke else 1),
        rate_per_s=16.0,
        seed=seed,
    )


#: The planner trains on the windows of one fixed day of the scenario:
#: a hash/none run of this seed.  Every fleet's planner then starts from
#: the same forecast, as a planner trained on history would.  Trained on
#: each fleet's own seed, it forecast that fleet's future exactly, and
#: its reconfiguration count, and with it the host cost, swung between
#: seeds.
CONTROL_TRAINING_SEED = 0xA11CE


def prepare_fleet_control(seed: int, smoke: bool, out: Path) -> None:
    """Write the planner's training windows (independent of ``seed``)."""
    from repro.cluster import Cluster, ClusterConfig
    from repro.planner import training_from_report

    report = Cluster(ClusterConfig(
        router="hash",
        policy="none",
        **_control_base(CONTROL_TRAINING_SEED, smoke),
    )).run()
    _training_path(out, smoke).write_text(
        json.dumps(training_from_report(report.to_dict())) + "\n",
        encoding="utf-8",
    )


def control_fleet(fleet_seed: int, smoke: bool, out: Path):
    """The fleet-control ``Cluster`` of one fleet seed, not yet run.

    Reads the training windows ``prepare_fleet_control`` wrote to ``out``.
    """
    from repro.cluster import Cluster, ClusterConfig
    from repro.defense.attacks import AttackSpec

    windows = json.loads(_training_path(out, smoke).read_text("utf-8"))
    training = tuple(
        tuple((name, count) for name, count in window) for window in windows
    )
    base = _control_base(fleet_seed, smoke)
    return Cluster(ClusterConfig(
        router="planned",
        policy="planned",
        plan_training=training,
        plan_search="beam",
        # A sixth into the run: the detector sees clean windows first.
        attacks=(AttackSpec(
            "thrash", start_s=base["duration_s"] / 6, rate_per_s=20.0
        ),),
        defense="jail",
        **base,
    ))


def setup_fleet_control(seed: int, smoke: bool, out: Path):
    cluster = control_fleet(fleet_seed("fleet-control", seed), smoke, out)
    return lambda: fleet_outcome(cluster.run(fleet_jobs=1))


SETUPS = {
    "figures": setup_figures,
    "serve-steady": setup_serve_steady,
    "fleet-adaptive": setup_fleet_adaptive,
    "fleet-control": setup_fleet_control,
}
PREPARES = {"fleet-control": prepare_fleet_control}
#: One fleet of each fleet workload, by fleet seed (for ``survey.py``).
FLEETS = {"fleet-adaptive": adaptive_fleet, "fleet-control": control_fleet}


# -- per-layer metrics -----------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(durations) -> float:
    return statistics.median(durations) if durations else 0.0


def latency_tail(durations) -> tuple[str, float]:
    """The highest percentile with ten samples beyond it: p90, else max.

    p90 is the nearest-rank value; it is reported when at least ten
    samples lie above its rank, which takes at least 100 samples.
    """
    ordered = sorted(durations)
    if not ordered:
        return "max", 0.0
    rank = -(-9 * len(ordered) // 10)  # ceil(0.9 n)
    if len(ordered) - rank >= 10:
        return "p90", ordered[rank - 1]
    return "max", ordered[-1]


def layer_metrics(tree, counters: dict, facts: dict, wall_s: float):
    """Per-layer metrics of one traced repetition.

    Returns ``(metrics, latencies)``: metric name -> value, and the
    call-latency summaries (p50, tail kind and value, n) behind the
    ``*_ms`` metrics.
    """
    count = counters.get
    simulate = tree.durations.get("model.simulate", ())
    ticks = tree.durations.get("planner.tick", ())
    tail_kind, tail_s = latency_tail(simulate)
    latencies = {
        "model.simulate": {
            "p50_ms": _median(simulate) * 1e3,
            "tail": tail_kind,
            "tail_ms": tail_s * 1e3,
            "n": len(simulate),
        },
        "planner.tick": {
            "p50_ms": _median(ticks) * 1e3,
            "tail": "max",
            "tail_ms": max(ticks, default=0.0) * 1e3,
            "n": len(ticks),
        },
    }
    popped = tree.calls_of("serve.queue.pop")
    # Useful pops: arrival events (accepts made by a dispatch), real
    # completions and controller ticks.  The rest are completions a
    # later reflow superseded.
    useful = (
        tree.calls_under("serve.accept", "serve.dispatch")
        + count("serve.requests.completed", 0)
        + count("serve.controller.ticks", 0)
    )
    rate_hits = count("serve.rate_cache_hits", 0)
    memo_hits = count("serve.batch.memo_hits", 0)
    cache_hits = count("sim.cache.hits", 0)
    accesses = count("sim.trace.accesses", 0)
    metrics = {
        "model.simulate.calls": tree.calls_of("model.simulate"),
        "model.simulate.self_s": tree.self_of("model.simulate"),
        "model.simulate.p50_ms": latencies["model.simulate"]["p50_ms"],
        "model.simulate.p90_ms": latencies["model.simulate"]["tail_ms"],
        "model.simulate_many.self_s": tree.self_of("model.simulate_many"),
        "model.che.solves": count("che.solves", 0),
        "model.che.iterations": count("che.iterations", 0),
        "model.che.bracket_expansions": count("che.bracket_expansions", 0),
        "model.fixed_point_rounds": count("simulator.fixed_point_rounds", 0),
        "model.bandwidth.solves": count("bandwidth.solves", 0),
        "hardware.access_batch.self_s": tree.self_of(
            "hardware.access_batch"
        ),
        "hardware.accesses": accesses,
        "hardware.accesses_per_s": _ratio(
            accesses, tree.incl_of("hardware.access_batch")
        ),
        "hardware.wavefront_rounds": count("sim.trace.rounds", 0),
        "parallel.simcache.hit_ratio": _ratio(
            cache_hits, cache_hits + count("sim.cache.misses", 0)
        ),
        "experiments.self_s": tree.self_of(*(
            name for name in set(tree.names)
            if name.startswith("experiments.")
        )),
        "serve.events.popped": popped,
        "serve.useful_event_ratio": _ratio(useful, popped),
        "serve.dispatch.self_s": tree.self_of("serve.dispatch"),
        "serve.queue.self_s": tree.self_of(
            "serve.queue.push", "serve.queue.pop"
        ),
        "serve.accept.self_s": tree.self_of("serve.accept"),
        "serve.arrivals.self_s": tree.self_of("serve.arrivals"),
        "serve.admission.self_s": tree.self_of("serve.admission"),
        "serve.slo.self_s": tree.self_of("serve.slo"),
        "serve.rate_cache.hit_ratio": _ratio(
            rate_hits, rate_hits + count("serve.rate_solves", 0)
        ),
        "serve.rate_solves": count("serve.rate_solves", 0),
        "serve.controller.tick.self_s": tree.self_of(
            "serve.controller.tick"
        ),
        "serve.controller.discovery_s": (
            tree.incl_of("serve.controller.tick")
            - tree.self_of("serve.controller.tick")
        ),
        "cluster.run.self_s": tree.self_of("cluster.run"),
        "cluster.route.calls": tree.calls_of("cluster.route"),
        "cluster.route.self_s": tree.self_of("cluster.route"),
        "cluster.memo.hit_ratio": _ratio(
            memo_hits, memo_hits + count("serve.batch.memo_misses", 0)
        ),
        "cluster.failovers": count("cluster.failover", 0),
        "planner.tick.calls": len(ticks),
        "planner.tick.p50_ms": latencies["planner.tick"]["p50_ms"],
        "planner.tick.max_ms": latencies["planner.tick"]["tail_ms"],
        "planner.score.self_s": tree.self_of("planner.score"),
        "planner.search.candidates": count("planner.search.candidates", 0),
        "planner.reconfigurations": count("planner.reconfigurations", 0),
        "defense.tick.self_s": tree.self_of("defense.tick"),
        "defense.convictions": count("defense.convictions", 0),
        "defense.false_positives": facts.get("defense.false_positives", 0),
        "defense.throttled": count("defense.throttled", 0),
        "core.classify.incl_s": tree.incl_of("core.classify"),
        "trace.unattributed_s": wall_s - tree.root_time(),
    }
    return metrics, latencies


# -- one repetition ----------------------------------------------------------


def repetition(workload: str, seed: int, smoke: bool, out: Path,
               mode: str | None) -> dict:
    """Set up and run one workload once; the JSON-ready record.

    ``mode`` ``"trace"`` records spans and counters; ``"setup"`` stops
    after the set-up and reports only its time.
    """
    started = time.perf_counter()
    import numpy
    import repro  # noqa: F401  (set-up is timed from this import)

    tree = None
    if mode == "trace":
        from spans import SpanTree

        tree = SpanTree()
        tree.install()
    run = SETUPS[workload](seed, smoke, out)
    if mode == "setup":
        return {"setup_s": time.perf_counter() - started}
    if tree is not None:
        from repro.obs import NULL_TRACER, MetricsRegistry, observing

        tree.reset()
        registry = MetricsRegistry()
        ready = time.perf_counter()
        with observing(NULL_TRACER, registry):
            outcome = run()
    else:
        ready = time.perf_counter()
        outcome = run()
    finished = time.perf_counter()
    record = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "traced": tree is not None,
        "setup_s": ready - started,
        "wall_s": finished - ready,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
        "digest": outcome.digest,
        "requests": outcome.requests,
        "conserved": outcome.conserved,
        "sim": outcome.sim,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tree is not None:
        counters = registry.snapshot()["counters"]
        record["layers"], record["latencies"] = layer_metrics(
            tree, counters, outcome.facts, record["wall_s"]
        )
        record["tree"] = tree.rows()
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=SETUPS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--mode", choices=("trace", "setup", "prepare"),
        help="trace the run, stop after set-up, or write the untimed input",
    )
    args = parser.parse_args(argv)
    if args.mode == "prepare":
        PREPARES[args.workload](args.seed, args.smoke, args.out)
        print(json.dumps({"prepared": args.workload}))
        return 0
    record = repetition(
        args.workload, args.seed, args.smoke, args.out, args.mode
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
