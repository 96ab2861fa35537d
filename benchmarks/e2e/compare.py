"""Compare two checkouts on the end-to-end benchmark, in alternating pairs.

    python3 benchmarks/e2e/compare.py PARENT CHANGE [--pairs 10]
        [--workload NAME ...] [--seed N | --held-out]

PARENT and CHANGE are repository roots, each with ``src/repro``.  Both
are measured by this copy of ``run.py`` with identical settings: one
run per workload, ``run_seconds`` long.  Pair ``i`` runs PARENT first
when ``i`` is even and CHANGE first when it is odd.  Each run reports
one value per host metric (its fastest repetition for times, its
median for set-up and memory; see ``run.py``), so a side has one value
per pair.

One row per workload and metric shows each side's median and
quartiles, the change's ratio to the parent's median (the base), and a
verdict:

* ``better`` -- at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither side), and the medians differ by more
  than the parent's interquartile range;
* ``worse`` -- the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
* ``unresolved`` -- the parent's interquartile range, as a share of its
  median, exceeds the bound, and not every change run beats every
  parent run;
* ``unchanged`` -- otherwise.

Simulated results and report digests compare exactly: any difference
is reported, in the direction it moved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCHMARK, HERE, spread
from workloads import SEEDS, SIM_METRICS

#: Fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10
#: Share of the pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def _improves(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """Verdict on paired per-run values of one host-time metric."""
    base = statistics.median(parent)
    middle = statistics.median(change)
    stats = spread(parent)
    iqr = stats["q3"] - stats["q1"]
    beats_all = all(
        _improves(c, p, better) for c in change for p in parent
    )
    if iqr > bound * abs(base):
        return "better" if beats_all else "unresolved"
    wins = sum(_improves(c, p, better) for p, c in zip(parent, change))
    pairs = min(len(parent), len(change))
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs
            and abs(middle - base) > iqr
            and _improves(middle, base, better)):
        return "better"
    if _improves(base, middle, better) and (
        abs(middle - base) > bound * abs(base)
    ):
        return "worse"
    return "unchanged"


def exact_verdict(parent: list, change: list, better: str) -> str:
    """Verdict on a simulated result: any difference counts."""
    if parent == change:
        return "unchanged"
    moved = _improves(
        statistics.median(change), statistics.median(parent), better
    )
    return "better" if moved else "worse"


def measure(root: Path, workload: str, out: Path, args) -> dict:
    """One ``run.py`` run of ``workload`` on checkout ``root``.

    The run length is BENCHMARK.json's ``run_seconds``, as for any
    benchmark run.  Returns the workload's block of ``results.json``.
    """
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0",
        "--out", str(out),
    ]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.held_out:
        command.append("--held-out")
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{root}: benchmark failed\n{done.stdout}{done.stderr}")
    return json.loads((out / "results.json").read_text())["workloads"][
        workload
    ]


def rows(parent_runs: list[dict], change_runs: list[dict]) -> list[dict]:
    """Comparison rows from the two sides' per-run workload blocks."""
    directions = {
        entry["name"]: entry["better"]
        for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    }
    table = []
    for workload in parent_runs[0]:
        def series(runs, pick):
            return [pick(run[workload]) for run in runs]

        for entry in BENCHMARK["end_to_end"]:
            name = entry["name"]

            def value(block):
                return block["metrics"][name]["value"]

            parent = series(parent_runs, value)
            change = series(change_runs, value)
            table.append(_row(workload, name, parent, change, verdict(
                parent, change, entry["better"], entry["bound"]
            )))
        for name in SIM_METRICS:
            if name not in parent_runs[0][workload]["sim"]:
                continue
            parent = series(parent_runs, lambda w: w["sim"][name])
            change = series(change_runs, lambda w: w["sim"][name])
            table.append(_row(workload, name, parent, change, exact_verdict(
                parent, change, directions[name]
            )))
        parent = series(parent_runs, lambda w: w["digest"])
        change = series(change_runs, lambda w: w["digest"])
        table.append({
            "workload": workload, "metric": "digest",
            "verdict": "unchanged" if parent == change else "changed",
        })
    return table


def _row(workload, name, parent, change, outcome) -> dict:
    base = statistics.median(parent)
    return {
        "workload": workload,
        "metric": name,
        "parent": spread(parent),
        "change": spread(change),
        "ratio": statistics.median(change) / base if base else None,
        "base": base,
        "verdict": outcome,
    }


def _format(row: dict) -> str:
    if "parent" not in row:
        return f"{row['workload']:<15} {row['metric']:<20} {row['verdict']}"

    def side(stats):
        return (f"{stats['median']:.5g} [{stats['q1']:.5g}, "
                f"{stats['q3']:.5g}]")

    ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}x"
    return (f"{row['workload']:<15} {row['metric']:<20} "
            f"{side(row['parent']):<32} {side(row['change']):<32} "
            f"{ratio} of {row['base']:.5g}  {row['verdict']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2],
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", nargs="+",
        action="extend", choices=list(SEEDS),
    )
    parser.add_argument("--seed", type=int)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "compare")
    args = parser.parse_args(argv)
    args.workloads = args.workloads or list(SEEDS)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else (
            "change", "parent"
        )
        for side in order:
            runs[side].append({})
        for workload in args.workloads:
            for side in order:
                out = (args.out / f"{side}-{index}-{workload}").resolve()
                runs[side][-1][workload] = measure(
                    sides[side], workload, out, args
                )
    table = rows(runs["parent"], runs["change"])
    print(f"{'workload':<15} {'metric':<20} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} ratio of base  verdict")
    for row in table:
        print(_format(row))
    (args.out / "compare.json").write_text(json.dumps({
        "parent": str(sides["parent"]),
        "change": str(sides["change"]),
        "pairs": args.pairs,
        "rows": table,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
