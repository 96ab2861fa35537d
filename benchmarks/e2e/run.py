"""End-to-end benchmark: four workloads, host-time and simulated results.

Run from the repository root::

    python3 benchmarks/e2e/run.py                       # all four, 5 rounds
    python3 benchmarks/e2e/run.py --workload serve-steady --seconds 25
    python3 benchmarks/e2e/run.py --smoke --reps 1      # < 20 s

Each repetition runs one workload in a fresh interpreter
(``workloads.py``, ``PYTHONPATH=src``).  Repetitions go round-robin
across the chosen workloads, so machine drift hits each alike, until
``--reps`` rounds have run and one more round would end past
``--seconds``.  With ``--trace 1`` (the default) one traced round
follows; end-to-end metrics never come from it.

The command prints every metric with its unit, the report digests, and
as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``; prefixed
``<workload>.`` when several workloads run).  Everything goes to
``results.json`` under ``--out``.  The exit code is 1 when an output
check fails, and 2 when there is no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    FLEET_SEEDS,
    HELD_OUT_SEEDS,
    PAPER_CLAIMS,
    PREPARES,
    SEEDS,
    SIM_METRICS,
    SMOKE_FACTOR,
    fleet_seed,
)

#: One repetition may not run longer than this.
CHILD_TIMEOUT_S = 150

#: Fewest set-ups a run times.  A run whose repetitions set up fewer
#: times (a fleet repetition is long) adds set-up-only processes.
SETUP_SAMPLES = 5

#: Host metrics of every untraced repetition, and the statistic over a
#: run's repetitions that each one reports.  Co-tenants on a shared
#: host only ever slow a repetition down (by up to 70 % for tens of
#: seconds on a shared 2-CPU Xeon), so the run's times are its fastest
#: repetition: over ten runs it spread a third to a half as much as the
#: median did.  Set-up and memory report the median.
HOST_METRICS = {
    "wall_s": "min",
    "requests_per_s": "max",
    "setup_s": "median",
    "peak_rss_mb": "median",
}


def spread(values: list[float]) -> dict:
    """Median, quartiles (as ``statistics.quantiles`` gives them), range, n."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def _reported(statistic: str, values: list[float]) -> dict:
    stats = spread(values)
    return {"value": stats[statistic], "statistic": statistic, **stats}


def run_child(root: Path, workload: str, seed: int, out: Path,
              smoke: bool, mode: str | None = None) -> dict:
    """One ``workloads.py`` process; its JSON record, or an ``error``."""
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(out),
    ]
    if smoke:
        command.append("--smoke")
    if mode:
        command += ["--mode", mode]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        done = subprocess.run(
            command, cwd=root, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {done.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def check(workload: str, reps: list[dict]) -> list[str]:
    """Output problems per repetition ('' when it passed every check).

    A repetition fails when its process failed, when conservation
    (``generated == completed + shed_*``) does not hold, when the
    figures reproduce fewer than all paper claims, or when its report
    digest differs from the first repetition's (traced runs included).
    """
    digests = [rep["digest"] for rep in reps if "digest" in rep]
    reference = digests[0] if digests else None
    problems = []
    for rep in reps:
        if "error" in rep:
            problems.append(rep["error"])
        elif not rep["conserved"]:
            problems.append("conservation generated == completed + shed")
        elif (workload == "figures"
              and rep["sim"]["claims_passed"] != PAPER_CLAIMS):
            problems.append(
                f"{rep['sim']['claims_passed']}/{PAPER_CLAIMS} claims pass"
            )
        elif rep["digest"] != reference:
            problems.append("report digest differs between repetitions")
        else:
            problems.append("")
    return problems


def summarize(workload: str, seed: int, reps: list[dict],
              traced: dict | None, setups: list[dict]) -> dict:
    """The workload's metrics, checks and trace from its repetitions.

    ``setups`` are the set-up-only processes; they count towards
    ``setup_s`` alone.
    """
    runs = reps + ([traced] if traced else [])
    problems = check(workload, runs)
    problems += [setup["error"] for setup in setups if "error" in setup]
    good = [rep for rep in reps if "digest" in rep]
    for rep in good:
        rep["requests_per_s"] = rep["requests"] / rep["wall_s"]
    setup_times = [
        rep["setup_s"] for rep in good + setups if "setup_s" in rep
    ]
    summary = {
        "seed": seed,
        "fleet_seed": (
            fleet_seed(workload, seed) if workload in FLEET_SEEDS else None
        ),
        "attempted": len(runs) + len(setups),
        "failed": sum(1 for problem in problems if problem),
        "problems": [problem for problem in problems if problem],
        "reps": [
            {key: value for key, value in rep.items() if key != "tree"}
            for rep in runs
        ],
        "setup_only_s": [setup.get("setup_s") for setup in setups],
        "metrics": {
            name: _reported(statistic, (
                setup_times if name == "setup_s"
                else [rep[name] for rep in good]
            ))
            for name, statistic in HOST_METRICS.items()
        } if good else {},
    }
    if good:
        summary["digest"] = good[0]["digest"]
        summary["sim"] = good[0]["sim"]
    if traced and "layers" in traced and good:
        layers = dict(traced["layers"])
        layers["trace.overhead"] = (
            traced["wall_s"] / summary["metrics"]["wall_s"]["value"]
        )
        summary["layers"] = layers
        summary["latencies"] = traced["latencies"]
        summary["traced_wall_s"] = traced["wall_s"]
        summary["tree"] = traced["tree"]
    return summary


def result_metrics(summary: dict, trace: bool) -> dict:
    """The metrics the last line reports, with BENCHMARK.json's units."""
    if not trace:
        return {
            entry["name"]: {
                "value": summary["metrics"][entry["name"]]["value"],
                "unit": entry["unit"],
            }
            for entry in BENCHMARK["end_to_end"]
        }
    values = {
        **dict.fromkeys(SIM_METRICS, 0),
        **summary["sim"],
        **summary["layers"],
    }
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in BENCHMARK["per_layer"]
    }


def print_summary(workload: str, summary: dict) -> None:
    units = {entry["name"]: entry["unit"] for entry in (
        BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    )}
    fleet = summary["fleet_seed"]
    print(f"== {workload}  seed {summary['seed']}"
          f"{'' if fleet is None else f' (fleet seed {fleet})'}  "
          f"digest {summary.get('digest', '-')}")
    for name, stats in summary["metrics"].items():
        print(f"  {name:<28} {stats['value']:>14.6g} {units[name]:<6}"
              f" {stats['statistic']} of n={stats['n']}:"
              f" median {stats['median']:.6g}"
              f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}"
              f"  min {stats['min']:.6g}  max {stats['max']:.6g}")
    for name, value in summary.get("sim", {}).items():
        print(f"  {name:<28} {value:>14.6g} {units[name]:<6} (simulated)")
    for name, value in summary.get("layers", {}).items():
        print(f"  {name:<28} {value:>14.6g} {units[name]:<6} (traced)")
    for problem in summary["problems"]:
        print(f"  CHECK FAILED: {problem}")


def host_info(root: Path, records: list[dict]) -> dict:
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True,
        )
        sha = done.stdout.strip() or None
    first = next((rep for rep in records if "python" in rep), {})
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2],
    )
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", nargs="+",
        action="extend", choices=list(SEEDS),
        help="workloads to run (default: all four)",
    )
    parser.add_argument(
        "--seed", type=int,
        help="seed for every chosen workload (default: each one's own)",
    )
    parser.add_argument(
        "--held-out", action="store_true",
        help="use each workload's held-out seed (to confirm a claim)",
    )
    parser.add_argument(
        "--reps", type=int,
        help="minimum rounds (default 5, or 1 with --seconds)",
    )
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="add rounds while one more would end within this many seconds",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"simulate 1/{SMOKE_FACTOR} of every duration",
    )
    args = parser.parse_args(argv)
    if args.reps is None:
        args.reps = 1 if args.seconds else 5
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository "
              "root", file=sys.stderr)
        return 2
    names = args.workloads or list(SEEDS)
    defaults = HELD_OUT_SEEDS if args.held_out else SEEDS
    seeds = {
        name: args.seed if args.seed is not None else defaults[name]
        for name in names
    }
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    problems = []
    for name in filter(PREPARES.__contains__, names):
        prepared = run_child(
            root, name, seeds[name], out, args.smoke, "prepare"
        )
        if "error" in prepared:
            problems.append(f"{name}: prepare: {prepared['error']}")
    reps: dict[str, list[dict]] = {name: [] for name in names}
    started = time.perf_counter()
    rounds = 0
    while True:
        for name in names:
            reps[name].append(
                run_child(root, name, seeds[name], out, args.smoke)
            )
        rounds += 1
        elapsed = time.perf_counter() - started
        if rounds >= args.reps and elapsed * (rounds + 1) / rounds > (
            args.seconds
        ):
            break
    setups = {
        name: [
            run_child(root, name, seeds[name], out, args.smoke, "setup")
            for _ in range(SETUP_SAMPLES - len(reps[name]))
        ]
        for name in names
    }
    traced = {
        name: run_child(root, name, seeds[name], out, args.smoke, "trace")
        for name in names
    } if args.trace else {}
    summaries = {
        name: summarize(
            name, seeds[name], reps[name], traced.get(name), setups[name]
        )
        for name in names
    }
    for name, summary in summaries.items():
        print_summary(name, summary)
    records = [rep for summary in summaries.values()
               for rep in summary["reps"]]
    (out / "results.json").write_text(json.dumps({
        "host": host_info(root, records),
        "args": {
            "workloads": names, "seeds": seeds, "reps": args.reps,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke,
        },
        "problems": problems,
        "workloads": summaries,
    }, indent=1) + "\n")
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    correct = not problems and failed == 0
    metrics = {}
    if correct:
        for name, summary in summaries.items():
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, value in result_metrics(
                summary, bool(args.trace)
            ).items():
                metrics[prefix + metric] = value
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
