"""Command-line interface: regenerate paper figures and extensions.

Usage::

    python -m repro list                 # available experiments
    python -m repro run fig9             # one figure
    python -m repro run all              # every figure + extension
    python -m repro run fig9 --fast      # reduced sweeps
    python -m repro run all --fast --jobs 4
                                         # experiments fan out across
                                         #   4 worker processes
    python -m repro run fig9 --fast --jobs 4
                                         # sweep points fan out instead
    python -m repro run all --fast --cache-dir runs/cache
                                         # persistent simulation cache:
                                         #   warm reruns skip solves
    python -m repro run fig9 --fast --json --trace
                                         # + JSON artifact under runs/
                                         #   and a span-tree printout

``run all`` executes every experiment except ``report`` (the report
re-runs all figures itself, so including it would execute the whole
evaluation twice); ``run report`` stays available directly.

Determinism guarantee: for any ``--jobs`` value the printed tables,
figure rows, notes and artifact figures are byte-for-byte identical to
the sequential run — parallelism only changes wall-clock time (see
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path
from typing import Callable

from . import seeding
from .cluster import (
    CLUSTER_MIXES,
    CLUSTER_POLICIES,
    CLUSTER_PROFILES,
    ROUTERS,
    ClusterConfig,
)
from .defense import DEFENSE_MODES
from .experiments.runner import FigureResult
from .obs import (
    RunArtifact,
    Span,
    format_spans,
    observing,
    write_artifact,
)
from .parallel import parallel_context
from .parallel.worker import run_experiment_task
from .planner import FORECASTERS, SEARCH_STRATEGIES
from .serve import ServiceConfig
from .serve.service import MIXES, POLICIES, PROFILES

from .experiments import (
    ext_baselines,
    ext_cluster,
    ext_defense,
    ext_planner,
    ext_scheduling,
    ext_service,
    ext_skew,
    ext_sort_vs_hash,
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

EXPERIMENTS: dict[str, tuple[Callable[..., object], str]] = {
    "fig1": (fig01_teaser.main, "teaser: OLTP vs OLAP scan"),
    "fig4": (fig04_scan.main, "column scan vs LLC size"),
    "fig5": (fig05_aggregation.main, "aggregation vs LLC size"),
    "fig6": (fig06_join.main, "FK join vs LLC size"),
    "fig9": (fig09_scan_agg.main, "scan || aggregation, off/on"),
    "fig10": (fig10_agg_join.main, "aggregation || join, 3 schemes"),
    "fig11": (fig11_tpch.main, "scan || TPC-H (SF 100)"),
    "fig12": (fig12_oltp.main, "scan || S/4HANA OLTP"),
    "ext-sched": (ext_scheduling.main, "cache-aware co-scheduling"),
    "ext-cluster": (
        ext_cluster.main,
        "sharded fleet: routing policy x node count x load",
    ),
    "ext-coloring": (ext_baselines.main, "CAT vs page coloring"),
    "ext-defense": (
        ext_defense.main,
        "adversarial tenants: detection + CAT quarantine",
    ),
    "ext-planner": (
        ext_planner.main,
        "forecast-driven blueprint planning vs reactive adaptation",
    ),
    "ext-service": (
        ext_service.main,
        "open-loop query service: load sweep + adaptive mix shift",
    ),
    "ext-skew": (ext_skew.main, "uniform vs Zipf-skewed access"),
    "ext-sort": (ext_sort_vs_hash.main, "hash vs sort aggregation"),
    "ext-trace": (
        ext_trace_validation.main,
        "analytic model vs exact LRU simulation",
    ),
    "report": (
        summary.main,
        "run all figures, check every paper claim (PASS/FAIL)",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Accelerating Concurrent Workloads with "
            "CPU Cache Partitioning' (ICDE 2018)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list available experiments")
    run = commands.add_parser("run", help="run experiments")
    run.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id, or 'all'",
    )
    run.add_argument(
        "--fast", action="store_true",
        help="reduced sweeps for a quick look",
    )
    run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=(
            "worker processes: whole experiments fan out when several "
            "were requested, independent sweep points otherwise "
            "(default: 1, fully sequential; results are identical "
            "for any value)"
        ),
    )
    run.add_argument(
        "--no-cache", action="store_true",
        help="bypass the simulation cache (recompute every solve)",
    )
    run.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=(
            "persist the simulation cache under DIR (e.g. runs/cache); "
            "warm reruns then skip previously-solved points"
        ),
    )
    run.add_argument(
        "--json", action="store_true",
        help="write a JSON run artifact (rows + spans + metrics)",
    )
    run.add_argument(
        "--out", default="runs", metavar="DIR",
        help="artifact directory for --json (default: runs/)",
    )
    run.add_argument(
        "--trace", action="store_true",
        help="print the span tree after each experiment",
    )
    run.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help=(
            "run-level seed: every stochastic component (data "
            "generators, skew draws) derives its stream from it and "
            "the value is recorded in the run artifact"
        ),
    )

    serve = commands.add_parser(
        "serve",
        help="simulate the open-loop query service",
        description=(
            "Run the discrete-event query service: seeded open-loop "
            "arrivals over the paper's query catalog, bounded "
            "concurrency with queueing/shedding, per-tenant SLO "
            "tracking, and (policy 'adaptive') online CAT "
            "repartitioning.  Deterministic: the same arguments "
            "produce a byte-identical report."
        ),
    )
    bind = functools.partial(_bind, serve, ServiceConfig)
    bind(
        "--profile", "profile", choices=PROFILES,
        help=(
            "arrival process (default: %(default)s); 'replay' "
            "re-drives a recorded report's exact arrival sequence and "
            "requires --trace-file"
        ),
    )
    serve.add_argument(
        "--trace-file", default=None, metavar="REPORT",
        help=(
            "recorded service report (current report version) whose "
            "arrival log to replay; duration, rate, mix and seed come "
            "from the trace, the policy under test from --policy"
        ),
    )
    bind(
        "--policy", "policy", choices=POLICIES,
        help=(
            "partitioning policy: none (full LLC for everyone), "
            "static (the paper's scheme), adaptive (online "
            "controller; default)"
        ),
    )
    bind(
        "--mix", "mix", choices=MIXES,
        help=(
            "workload mix: olap-heavy, oltp-heavy, or an olap->oltp "
            "shift at mid-run (default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="arrival-process seed (recorded in the report)",
    )
    _add_run_flags(serve, ServiceConfig, "nominal offered load")

    cluster = commands.add_parser(
        "cluster",
        help="simulate a sharded multi-node service fleet",
        description=(
            "Run N independent service nodes behind a routing layer: "
            "per-node seeded arrival streams, consistent-hash / "
            "least-loaded / cache-affinity routing, optional seeded "
            "node fault injection with ring-based failover, and a "
            "fleet report merging per-node latency histograms into "
            "fleet-wide SLO verdicts.  Deterministic: the same "
            "arguments produce a byte-identical report for any "
            "--fleet-jobs value."
        ),
    )
    bind = functools.partial(_bind, cluster, ClusterConfig)
    bind(
        "--nodes", "nodes", type=int, metavar="N",
        help="fleet size (default: %(default)s)",
    )
    bind(
        "--router", "router", choices=ROUTERS,
        help=(
            "routing policy: consistent hashing on tenant id, "
            "shortest admission queue, cache-affinity placement, or "
            "planner-installed blueprint homes (default: %(default)s; "
            "--policy planned implies planned)"
        ),
    )
    bind(
        "--profile", "profile", choices=CLUSTER_PROFILES,
        help="per-node arrival process (default: %(default)s)",
    )
    bind(
        "--policy", "policy", choices=CLUSTER_POLICIES,
        help=(
            "per-node CAT partitioning policy; 'planned' hands "
            "partitioning and placement to the fleet planner "
            "(default: %(default)s)"
        ),
    )
    bind(
        "--mix", "mix", choices=CLUSTER_MIXES,
        help=(
            "fleet workload mix over the three tenant groups; "
            "'shift' starts OLAP-heavy and flips to OLTP-heavy at "
            "--shift-at (default: %(default)s)"
        ),
    )
    bind(
        "--shift-at", "shift_at_s", type=float, metavar="SECONDS",
        help=(
            "with --mix shift: the flip time in simulated seconds "
            "(default: half the duration)"
        ),
    )
    # The next three flags set the `faults` and `attacks` fields
    # through a seeded draw or a spec parse, not verbatim.
    cluster.add_argument(
        "--faults", type=int, default=0, metavar="N",
        help=(
            "inject N seeded node kills (with recovery) drawn from "
            "the run seed (default: 0)"
        ),
    )
    cluster.add_argument(
        "--attack", action="append", default=None,
        metavar="PROFILE[:START[:STOP[:RATE]]]",
        help=(
            "schedule one adversarial tenant stream (thrash, "
            "saturate, or probe); repeatable.  START/STOP are "
            "simulated seconds, RATE requests/s (see docs/DEFENSE.md)"
        ),
    )
    cluster.add_argument(
        "--attacks", type=int, default=0, metavar="N",
        help=(
            "draw N seeded attack schedules from the run seed "
            "(default: 0)"
        ),
    )
    bind(
        "--defense", "defense", choices=DEFENSE_MODES,
        help=(
            "contention defense: detect adversarial tenant groups "
            "and jail them in a minimal CAT partition; 'evict' also "
            "re-routes convicted groups onto a sacrificial node "
            "(default: %(default)s)"
        ),
    )
    bind(
        "--defense-interval", "defense_interval_s", type=float,
        metavar="SECONDS",
        help="detector judgement period (default: %(default)s)",
    )
    bind(
        "--defense-convict", "defense_convict_windows", type=int,
        metavar="N",
        help="suspect windows before conviction (default: %(default)s)",
    )
    bind(
        "--defense-release", "defense_release_windows", type=int,
        metavar="N",
        help=(
            "clean windows before a convicted group is released "
            "(default: %(default)s)"
        ),
    )
    cluster.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="fleet seed (recorded in the report)",
    )
    cluster.add_argument(
        "--fleet-jobs", type=int, default=1, metavar="N",
        help=(
            "simulate nodes on N worker processes (epoch-parallel "
            "execution: hash router, or a planned fleet whose "
            "planner never fires; byte-identical reports for any "
            "value; stateful routers, firing planners and defended "
            "fleets run sequentially with a report-recorded "
            "warning) (default: 1)"
        ),
    )
    bind(
        "--plan-interval", "plan_interval_s", type=float,
        metavar="SECONDS",
        help=(
            "planned policy: replanning tick period in simulated "
            "seconds (default: %(default)s)"
        ),
    )
    bind(
        "--plan-horizon", "plan_horizon_s", type=float,
        metavar="SECONDS",
        help=(
            "planned policy: forecast look-ahead in simulated "
            "seconds (default: %(default)s)"
        ),
    )
    bind(
        "--plan-downtime", "plan_downtime_s", type=float,
        metavar="SECONDS",
        help=(
            "planned policy: per-migration tenant blackout in "
            "simulated seconds (default: %(default)s)"
        ),
    )
    bind(
        "--plan-forecaster", "plan_forecaster", choices=FORECASTERS,
        help=(
            "planned policy: per-tenant arrival forecaster "
            "(default: %(default)s)"
        ),
    )
    bind(
        "--plan-margin", "plan_margin", type=float, metavar="FRACTION",
        help=(
            "planned policy: hysteresis — a candidate blueprint must "
            "beat the incumbent's predicted score by this relative "
            "margin to trigger a transition (default: %(default)s)"
        ),
    )
    bind(
        "--plan-period", "plan_period_s", type=float, metavar="SECONDS",
        help=(
            "planned policy: seasonal period in simulated seconds "
            "(default: the run duration)"
        ),
    )
    cluster.add_argument(
        "--plan-train", default=None, metavar="REPORT",
        help=(
            "planned policy: warm-start the forecasters from a "
            "recorded fleet report's arrival_windows block"
        ),
    )
    bind(
        "--search", "plan_search", choices=SEARCH_STRATEGIES,
        help=(
            "planned policy: blueprint candidate generation — score "
            "the bounded enumerated family, or beam-search the full "
            "placement space seeded by it (default: %(default)s)"
        ),
    )
    bind(
        "--beam-width", "plan_beam_width", type=int, metavar="N",
        help=(
            "planned policy: beam frontier kept per search round "
            "(default: %(default)s)"
        ),
    )
    bind(
        "--search-steps", "plan_search_steps", type=int, metavar="N",
        help=(
            "planned policy: beam expansion rounds per plan tick "
            "(default: %(default)s)"
        ),
    )
    bind(
        "--search-candidates", "plan_search_candidates", type=int,
        metavar="N",
        help=(
            "planned policy: per-tick candidate scoring budget for "
            "the beam search (default: %(default)s)"
        ),
    )
    _add_run_flags(
        cluster, ClusterConfig, "offered load per source stream"
    )
    return parser


def _bind(parser, config, flag: str, name: str, **options) -> None:
    """Add ``flag`` bound to field ``name`` of ``config``: the field's
    name is the flag's dest and its default the flag's default."""
    options.setdefault("default", getattr(config, name))
    parser.add_argument(flag, dest=name, **options)


def _add_run_flags(parser, config, load: str) -> None:
    """The flags ``serve`` and ``cluster`` share: the horizon, the
    offered load (``load`` says which), interval sampling, output."""
    bind = functools.partial(_bind, parser, config)
    bind(
        "--duration", "duration_s", type=float, metavar="SECONDS",
        help=(
            "arrival horizon in simulated seconds "
            "(default: %(default)s)"
        ),
    )
    bind(
        "--rate", "rate_per_s", type=float, metavar="PER_S",
        help=f"{load} in requests/s (default: %(default)s)",
    )
    bind(
        "--sample-window", "sample_window_s", type=float,
        metavar="SECONDS",
        help=(
            "interval sampling: window length in simulated seconds "
            "(default: off — every arrival is simulated)"
        ),
    )
    # The one flag whose default is not the config's (1): unsampled
    # reports have always recorded the CLI's 10.
    bind(
        "--sample-period", "sample_period", type=int, default=10,
        metavar="K",
        help=(
            "simulate every K-th window, skipping the rest at O(1) "
            "cost (default: %(default)s; needs --sample-window)"
        ),
    )
    bind(
        "--sample-warmup", "sample_warmup", type=float,
        metavar="FRACTION",
        help=(
            "leading fraction of each simulated window treated as "
            "warmup: arrivals run but are not measured "
            "(default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--out", default="runs", metavar="DIR",
        help="report directory (default: runs/)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="print the span tree after the run",
    )


def _bound_config(config, args: argparse.Namespace, **values):
    """``config`` built from the flags bound to its fields; ``values``
    set the fields a flag does not give verbatim."""
    bound = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(config) if hasattr(args, f.name)
    }
    return config(**{**bound, **values})


def expand_experiments(name: str) -> list[str]:
    """Experiment ids to execute for a CLI request.

    ``all`` covers every experiment except ``report``: the report
    re-runs all figures internally, so including it would run the
    whole evaluation twice.
    """
    if name == "all":
        return [key for key in sorted(EXPERIMENTS) if key != "report"]
    return [name]


def _emit_observed(
    name: str,
    figure: dict | None,
    spans: dict,
    metrics: dict,
    args: argparse.Namespace,
    worker: dict | None = None,
) -> None:
    """Print one experiment's span tree and write its artifact, as the
    flags ask; ``worker`` is set only for a pool worker's run."""
    if args.trace:
        print()
        print(format_spans(Span.from_dict(spans)))
    if args.json:
        artifact = RunArtifact(
            experiment=name,
            figures=[figure] if figure is not None else [],
            spans=spans,
            metrics=metrics,
            fast=args.fast,
            jobs=args.jobs,
            seed=args.seed,
            worker=worker,
        )
        path = write_artifact(artifact, args.out)
        print(f"artifact: {path}")


def _run_observed(name: str, args: argparse.Namespace) -> None:
    """Run one experiment under a tracer/registry; emit artifacts."""
    runner, _ = EXPERIMENTS[name]
    with observing() as (tracer, metrics):
        with tracer.span(name):
            result = runner(fast=args.fast)
    figure = result.to_dict() if isinstance(result, FigureResult) else None
    _emit_observed(
        name, figure, tracer.to_dict(), metrics.snapshot(), args
    )


def _emit_worker_payload(
    payload: dict, args: argparse.Namespace
) -> None:
    """Re-emit one worker's experiment exactly as a sequential run."""
    print(payload["stdout"], end="")
    if payload["spans"] is not None:
        _emit_observed(
            payload["name"],
            payload["figure"],
            payload["spans"],
            payload["metrics"],
            args,
            worker={
                "pid": payload["pid"],
                "wall_seconds": payload["seconds"],
            },
        )


def _run_parallel(names: list[str], args: argparse.Namespace) -> None:
    """Experiment-level fan-out: one pool task per experiment.

    Tasks complete in any order; payloads are printed (and their
    artifacts written) in the sequential schedule order, so the
    combined stdout is byte-for-byte the ``--jobs 1`` output.
    """
    observe = args.json or args.trace
    with parallel_context(
        jobs=args.jobs,
        cache_enabled=not args.no_cache,
        disk_dir=args.cache_dir,
    ) as context:
        pool = context.pool()
        futures = [
            pool.submit(
                run_experiment_task,
                name,
                args.fast,
                observe,
                not args.no_cache,
                args.cache_dir,
                args.seed,
            )
            for name in names
        ]
        for index, future in enumerate(futures):
            if index:
                print()
            _emit_worker_payload(future.result(), args)


def _run_serve(args: argparse.Namespace) -> int:
    """Run one service simulation and write its report."""
    from .errors import ServeError
    from .serve import QueryService, load_trace
    from .serve.arrivals import DEFAULT_ARRIVAL_SEED

    if (args.profile == "replay") != (args.trace_file is not None):
        print(
            "error: --profile replay and --trace-file go together "
            "(replay needs a trace; a trace implies replay)",
            file=sys.stderr,
        )
        return 2
    seeding.set_seed(args.seed)
    try:
        arrivals = None
        if args.profile == "replay":
            # The recorded config is authoritative — the run differs
            # only in the policy under test, so latency deltas are
            # attributable to it alone.  The report is named after the
            # trace file, so a recording and its replays match by name.
            recorded, arrivals = load_trace(args.trace_file)
            config = dataclasses.replace(
                recorded, profile="replay", policy=args.policy
            )
            name = Path(args.trace_file).stem
            label = f"trace={name}"
        else:
            config = _bound_config(
                ServiceConfig, args,
                seed=seeding.derive(
                    "serve.arrivals", DEFAULT_ARRIVAL_SEED
                ),
            )
            seed = "default" if args.seed is None else str(args.seed)
            name, label = f"seed{seed}", f"seed={seed}"
        with observing() as (tracer, _):
            with tracer.span("serve"):
                report = QueryService(config, arrivals=arrivals).run()
        if args.trace:
            print()
            print(format_spans(tracer.root))
        path = report.write(
            f"{args.out}/serve-{args.profile}-{args.policy}-{name}.json"
        )
        print(
            f"serve: profile={args.profile} policy={args.policy} "
            f"mix={config.mix} duration={config.duration_s:g}s "
            f"rate={config.rate_per_s:g}/s {label}"
        )
        print(
            f"  arrived={report.arrived} admitted={report.admitted} "
            f"queued={report.queued} shed={report.shed} "
            f"completed={report.completed} "
            f"({report.completed_per_s:.2f}/s)"
        )
        for verdict in report.slo:
            status = "OK" if verdict.ok else "VIOLATED"
            print(
                f"  tenant {verdict.tenant}: n={verdict.completed} "
                f"p50={verdict.p50_s:.3f}s p95={verdict.p95_s:.3f}s "
                f"p99={verdict.p99_s:.3f}s [{status}]"
            )
        controller = report.controller
        if controller.get("enabled"):
            print(
                f"  controller: ticks={controller['ticks']} "
                f"reconfigurations="
                f"{controller['reconfigurations']} at "
                f"{controller['change_times_s']}"
            )
        print(f"report: {path}")
    except ServeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        seeding.set_seed(None)
    return 0


def _parse_attack(text: str):
    """Parse one ``--attack PROFILE[:START[:STOP[:RATE]]]`` spec.

    Empty fields keep their defaults, so ``thrash:1::30`` schedules an
    open-ended thrasher from t=1s at 30 requests/s.
    """
    from .defense import DEFAULT_ATTACK_RATE, AttackSpec
    from .errors import DefenseError

    fields = text.split(":")
    if len(fields) > 4:
        raise DefenseError(
            f"attack spec {text!r} has too many fields "
            "(PROFILE[:START[:STOP[:RATE]]])"
        )
    fields += [""] * (4 - len(fields))
    profile, start, stop, rate = fields
    try:
        return AttackSpec(
            profile=profile,
            start_s=float(start) if start else 0.0,
            stop_s=float(stop) if stop else None,
            rate_per_s=float(rate) if rate else DEFAULT_ATTACK_RATE,
        )
    except ValueError as error:
        raise DefenseError(
            f"attack spec {text!r}: {error}"
        ) from error


def _run_cluster(args: argparse.Namespace) -> int:
    """Run one fleet simulation and write its report."""
    from .cluster import Cluster, seeded_faults
    from .defense import seeded_attacks
    from .errors import ClusterError, DefenseError, PlannerError
    from .planner import training_from_report
    from .schema import load_report
    from .serve.arrivals import DEFAULT_ARRIVAL_SEED

    # The planned policy and the planned router are one feature; let
    # `--policy planned` alone select both rather than demanding the
    # redundant `--router planned`.
    if args.policy == "planned" and args.router == "hash":
        args.router = "planned"
    seeding.set_seed(args.seed)
    try:
        training = ()
        if args.plan_train is not None:
            training = training_from_report(
                load_report(args.plan_train, PlannerError)
            )
        fleet_seed = seeding.derive("cluster", DEFAULT_ARRIVAL_SEED)
        faults = (
            seeded_faults(
                args.nodes, args.faults, args.duration_s, fleet_seed
            )
            if args.faults else ()
        )
        attacks = tuple(
            _parse_attack(text) for text in (args.attack or ())
        )
        if args.attacks:
            attacks += seeded_attacks(
                args.attacks, args.duration_s, fleet_seed
            )
        config = _bound_config(
            ClusterConfig, args, seed=fleet_seed, faults=faults,
            attacks=attacks, plan_training=training,
        )
        with observing() as (tracer, _):
            with tracer.span("cluster"):
                report = Cluster(config).run(fleet_jobs=args.fleet_jobs)
    except (ClusterError, DefenseError, PlannerError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        seeding.set_seed(None)
    if args.trace:
        print()
        print(format_spans(tracer.root))
    label = "default" if args.seed is None else str(args.seed)
    path = report.write(
        f"{args.out}/cluster-{config.router}-n{config.nodes}-"
        f"seed{label}.json"
    )
    print(
        f"cluster: nodes={config.nodes} router={config.router} "
        f"policy={config.policy} mix={config.mix} "
        f"profile={config.profile} duration={config.duration_s:g}s "
        f"rate={config.rate_per_s:g}/s/node seed={label} "
        f"fleet-jobs={args.fleet_jobs} "
        f"epochs={report.execution['epochs']}"
    )
    for warning in report.execution["warnings"]:
        print(f"  warning: {warning}")
    print(
        f"  generated={report.generated} "
        f"completed={report.completed} "
        f"forwarded={report.forwarded} "
        f"failovers={report.failovers} "
        f"shed(admission={report.shed_admission} "
        f"failure={report.shed_failure} "
        f"no-node={report.shed_no_node})"
    )
    if report.planner.get("enabled"):
        planner = report.planner
        schemes = ",".join(planner["blueprint"]["schemes"])
        search = planner["search"]
        print(
            f"  planner: ticks={planner['ticks']} "
            f"reconfigurations={planner['reconfigurations']} "
            f"migrated={planner['migrated_tenants']} "
            f"deferred={planner['deferred_requests']} "
            f"schemes=[{schemes}]"
        )
        print(
            f"  search: strategy={search['strategy']} "
            f"scored={search['candidates_scored']} "
            f"rounds={search['rounds']} "
            f"improvements={search['frontier_improvements']}"
        )
    defense = report.defense
    if defense.get("enabled") or defense.get("attacks"):
        arrivals = sum(defense.get("attack_arrivals", {}).values())
        line = (
            f"  defense: mode={defense['mode']} "
            f"attacks={len(defense['attacks'])} "
            f"attack-arrivals={arrivals}"
        )
        if defense.get("enabled"):
            jailed = sum(defense.get("jail_seconds", {}).values())
            line += (
                f" convictions={len(defense['convictions'])} "
                f"false-positives="
                f"{len(defense['false_positives'])} "
                f"missed={len(defense['missed'])} "
                f"jailed={jailed:.2f}s"
            )
        print(line)
    for verdict in report.fleet_slo:
        status = "OK" if verdict.ok else "VIOLATED"
        print(
            f"  fleet {verdict.tenant}: n={verdict.completed} "
            f"p50={verdict.p50_s:.3f}s p95={verdict.p95_s:.3f}s "
            f"p99={verdict.p99_s:.3f}s [{status}]"
        )
    for stats, node_report in zip(report.node_stats, report.node_reports):
        extra = ""
        if stats["kills"]:
            extra = (
                f" kills={stats['kills']} "
                f"down={stats['downtime_s']:.2f}s "
                f"lost={stats['failure_shed']}"
            )
        print(
            f"  node {stats['index']}: routed={stats['routed_in']} "
            f"completed={node_report.completed} "
            f"shed={node_report.shed}{extra}"
        )
    print(f"report: {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, (_, description) in sorted(EXPERIMENTS.items()):
            print(f"  {name.ljust(width)}  {description}")
        return 0

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "cluster":
        return _run_cluster(args)

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}",
              file=sys.stderr)
        return 2

    names = expand_experiments(args.experiment)
    seeding.set_seed(args.seed)
    try:
        if args.jobs > 1 and len(names) > 1:
            _run_parallel(names, args)
            return 0

        with parallel_context(
            jobs=args.jobs,
            cache_enabled=not args.no_cache,
            disk_dir=args.cache_dir,
        ):
            for index, name in enumerate(names):
                if index:
                    print()
                if args.json or args.trace:
                    _run_observed(name, args)
                else:
                    runner, _ = EXPERIMENTS[name]
                    runner(fast=args.fast)
    finally:
        seeding.set_seed(None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
