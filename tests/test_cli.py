"""Tests for the command-line interface."""

import dataclasses
import json

import pytest

from repro.cli import (
    EXPERIMENTS,
    build_parser,
    expand_experiments,
    main,
)
from repro.cluster import ClusterConfig
from repro.serve import ServiceConfig


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "fig4", "--fast"])
        assert args.experiment == "fig4"
        assert args.fast

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output

    def test_run_single_figure(self, capsys):
        assert main(["run", "fig4", "--fast"]) == 0
        output = capsys.readouterr().out
        assert "column scan" in output
        assert "normalized_throughput" in output

    def test_all_figures_registered(self):
        expected = {
            "fig1", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11",
            "fig12", "ext-sched", "ext-cluster", "ext-coloring",
            "ext-defense", "ext-planner", "ext-service", "ext-sort",
            "ext-trace", "ext-skew", "report",
        }
        assert set(EXPERIMENTS) == expected


class TestExpansion:
    def test_all_excludes_report(self):
        # Regression: 'run all' used to include 'report', which re-runs
        # every figure itself — the whole evaluation executed twice.
        names = expand_experiments("all")
        assert "report" not in names
        assert set(names) == set(EXPERIMENTS) - {"report"}
        assert names == sorted(names)

    def test_single_name_passes_through(self):
        assert expand_experiments("fig9") == ["fig9"]
        # report stays directly invocable.
        assert expand_experiments("report") == ["report"]


class TestJsonArtifacts:
    def test_json_flag_writes_loadable_artifact(self, tmp_path, capsys):
        from repro.experiments.reporting import format_table
        from repro.experiments.runner import FigureResult
        from repro.obs import load_artifact

        assert main(
            ["run", "fig4", "--fast", "--json", "--out",
             str(tmp_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "artifact:" in output
        files = list(tmp_path.glob("fig4-*.json"))
        assert len(files) == 1

        artifact = load_artifact(files[0])
        assert artifact.experiment == "fig4"
        assert artifact.fast is True
        figure = FigureResult.from_dict(artifact.figures[0])
        # The stored rows reproduce the printed table exactly.
        assert format_table(
            figure.headers, figure.rows, title=figure.title
        ) in output
        counters = artifact.metrics["counters"]
        assert counters["che.solves"] > 0
        assert counters["simulator.solves"] > 0
        assert artifact.spans is not None

    def test_trace_flag_prints_span_tree(self, capsys, tmp_path):
        assert main(
            ["run", "fig4", "--fast", "--trace"]
        ) == 0
        output = capsys.readouterr().out
        assert "fig4" in output
        assert "solve_segment" in output

    def test_artifact_is_valid_json(self, tmp_path, capsys):
        main(["run", "fig4", "--fast", "--json", "--out",
              str(tmp_path)])
        capsys.readouterr()
        path = next(tmp_path.glob("fig4-*.json"))
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 3
        # Sequential run: launched with the default --jobs 1 and not on
        # a pool worker; no --seed, so the per-component defaults.
        assert payload["jobs"] == 1
        assert payload["worker"] is None
        assert payload["seed"] is None

    def test_seed_recorded_in_artifact(self, tmp_path, capsys):
        main(["run", "fig4", "--fast", "--json", "--seed", "11",
              "--out", str(tmp_path)])
        capsys.readouterr()
        path = next(tmp_path.glob("fig4-*.json"))
        payload = json.loads(path.read_text())
        assert payload["seed"] == 11

    def test_seed_cleared_after_run(self, tmp_path, capsys):
        from repro import seeding

        main(["run", "fig4", "--fast", "--seed", "11"])
        capsys.readouterr()
        assert seeding.get_seed() is None


class TestServeCommand:
    def test_parser_accepts_serve(self):
        args = build_parser().parse_args(
            ["serve", "--profile", "bursty", "--policy", "static",
             "--seed", "3"]
        )
        assert args.command == "serve"
        assert args.profile == "bursty"
        assert args.policy == "static"
        assert args.seed == 3

    def test_serve_writes_deterministic_report(
        self, tmp_path, capsys
    ):
        argv = ["serve", "--profile", "poisson", "--policy", "none",
                "--duration", "3", "--rate", "6", "--seed", "7",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "report:" in first
        path = tmp_path / "serve-poisson-none-seed7.json"
        first_bytes = path.read_bytes()
        assert main(argv) == 0
        capsys.readouterr()
        assert path.read_bytes() == first_bytes
        payload = json.loads(first_bytes)
        assert payload["config"]["policy"] == "none"
        assert payload["completed"] > 0

    def test_replay_profile_requires_trace_file(self, capsys):
        assert main(["serve", "--profile", "replay"]) == 2
        err = capsys.readouterr().err
        assert "--trace-file" in err

    def test_trace_file_requires_replay_profile(self, capsys):
        assert main(
            ["serve", "--profile", "poisson", "--trace-file", "x.json"]
        ) == 2
        assert "--trace-file" in capsys.readouterr().err

    def test_replay_redrives_recorded_arrivals(
        self, tmp_path, capsys
    ):
        record = ["serve", "--profile", "poisson", "--policy", "none",
                  "--duration", "3", "--rate", "6", "--seed", "7",
                  "--out", str(tmp_path)]
        assert main(record) == 0
        capsys.readouterr()
        trace = tmp_path / "serve-poisson-none-seed7.json"
        replay = ["serve", "--profile", "replay", "--policy", "none",
                  "--trace-file", str(trace), "--out", str(tmp_path)]
        assert main(replay) == 0
        capsys.readouterr()
        recorded = json.loads(trace.read_text())
        replays = list(tmp_path.glob("serve-replay-none-*.json"))
        assert len(replays) == 1
        replayed = json.loads(replays[0].read_text())
        # Identical offered traffic; only the profile label differs.
        assert replayed["arrivals"] == recorded["arrivals"]
        assert replayed["completed"] == recorded["completed"]
        for mine, theirs in zip(replayed["slo"], recorded["slo"]):
            assert mine["tenant"] == theirs["tenant"]
            assert mine["completed"] == theirs["completed"]
            assert mine["p99_s"] == theirs["p99_s"]
        assert replayed["config"]["profile"] == "replay"


class TestClusterCommand:
    def test_parser_accepts_cluster(self):
        args = build_parser().parse_args(
            ["cluster", "--nodes", "4", "--router", "affinity",
             "--seed", "3", "--faults", "2"]
        )
        assert args.command == "cluster"
        assert args.nodes == 4
        assert args.router == "affinity"
        assert args.seed == 3
        assert args.faults == 2

    def test_rejects_unknown_router(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "--router", "random"]
            )

    @pytest.mark.parametrize("payload", [
        [1, 2],
        {"arrival_windows": {"classes": [["scan", 1]]}},
        {"arrival_windows": {"classes": [{"scan": "x"}]}},
        {"arrival_windows": {"classes": [{"scan": -3}]}},
        {"arrival_windows": {"classes": [{"scan": 2.7}]}},
    ])
    def test_bad_plan_train_report_exits_2(self, tmp_path, capsys, payload):
        path = tmp_path / "train.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        argv = ["cluster", "--policy", "planned", "--duration", "1",
                "--plan-train", str(path), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_cluster_writes_deterministic_report(
        self, tmp_path, capsys
    ):
        argv = ["cluster", "--nodes", "2", "--router", "hash",
                "--policy", "none", "--duration", "3", "--rate", "6",
                "--seed", "7", "--out", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "report:" in first
        assert "fleet olap" in first
        path = tmp_path / "cluster-hash-n2-seed7.json"
        first_bytes = path.read_bytes()
        # Byte-identical on a rerun, and for any --fleet-jobs value
        # (the nodes the epoch-parallel path replays on workers must
        # report exactly what the sequential loop's nodes report).
        assert main(argv) == 0
        capsys.readouterr()
        assert path.read_bytes() == first_bytes
        assert main(argv + ["--fleet-jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "fleet-jobs=2" in out
        assert path.read_bytes() == first_bytes
        payload = json.loads(first_bytes)
        assert payload["config"]["nodes"] == 2
        assert payload["completed"] > 0
        assert len(payload["nodes"]) == 2
        tenants = [v["tenant"] for v in payload["fleet_slo"]]
        assert tenants == sorted(tenants)
        assert {"batch", "olap", "oltp"} <= set(tenants)

    def test_rejects_nonpositive_fleet_jobs(self, tmp_path, capsys):
        code = main(["cluster", "--nodes", "2", "--fleet-jobs", "0",
                     "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["cluster", "--defense-interval", "nan"],
        ["cluster", "--policy", "planned", "--plan-interval", "nan"],
        ["cluster", "--plan-margin", "inf"],
        ["cluster", "--attack", "thrash:nan"],
        ["serve", "--sample-warmup", "nan"],
    ])
    def test_non_finite_flag_exits_2(self, tmp_path, capsys, argv):
        assert main(argv + ["--duration", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, config, count", [
        ("serve", ServiceConfig, 8), ("cluster", ClusterConfig, 25),
    ])
    def test_flags_bind_to_config_fields(self, command, config, count):
        # A flag's dest is its config field and the field's default is
        # its default.  The rest are not a field verbatim: a seed label,
        # seeded draws, input files and output.
        unbound = {"command", "seed", "faults", "attack", "attacks",
                   "trace_file", "plan_train", "fleet_jobs", "out",
                   "trace"}
        names = {f.name for f in dataclasses.fields(config)}
        flags = vars(build_parser().parse_args([command]))
        bound = {
            dest: default for dest, default in flags.items()
            if dest not in unbound
        }
        assert set(bound) <= names and len(bound) == count
        # Unsampled CLI reports record the CLI's period of 10.
        assert bound.pop("sample_period") == 10
        for dest, default in bound.items():
            assert default == getattr(config, dest), dest

    def test_cluster_seed_cleared_after_run(self, tmp_path, capsys):
        from repro import seeding

        main(["cluster", "--nodes", "1", "--policy", "none",
              "--duration", "2", "--rate", "4", "--seed", "5",
              "--out", str(tmp_path)])
        capsys.readouterr()
        assert seeding.get_seed() is None


#: Bad-report inputs, each a function of a recorded service report.
BAD_REPORTS = {
    "not-json": lambda p: "not json at all",
    "truncated": lambda p: json.dumps(p)[:200],
    "top-level-list": lambda p: json.dumps([p]),
    "bool-version": lambda p: json.dumps({**p, "report_version": True}),
    "newer-version": lambda p: json.dumps(
        {**p, "report_version": p["report_version"] + 1}
    ),
    "older-version": lambda p: json.dumps(
        {**p, "report_version": p["report_version"] - 1}
    ),
}
#: Config and arrival-log defects (only replay reads those blocks).
BAD_TRACES = {
    "missing-config-key": lambda p: json.dumps({**p, "config": {
        key: value for key, value in p["config"].items() if key != "seed"
    }}),
    "unknown-config-key": lambda p: json.dumps(
        {**p, "config": {**p["config"], "bogus": 1}}
    ),
    "wrong-type-config": lambda p: json.dumps(
        {**p, "config": {**p["config"], "duration_s": "x"}}
    ),
    "malformed-arrival": lambda p: json.dumps({**p, "arrivals": [[0.1]]}),
}
REPORT_READERS = {
    "trace-file": ["serve", "--profile", "replay", "--trace-file"],
    "plan-train": ["cluster", "--policy", "planned", "--duration", "1",
                   "--plan-train"],
}


@pytest.fixture(scope="module")
def recorded_report():
    from repro.serve import QueryService, ServiceConfig

    return QueryService(ServiceConfig(
        profile="poisson", policy="none", duration_s=2.0, rate_per_s=4.0,
        seed=7,
    )).run().to_dict()


@pytest.mark.parametrize("reader, case", [
    (reader, case)
    for reader in REPORT_READERS
    for case in {**BAD_REPORTS, **BAD_TRACES}
    if reader == "trace-file" or case in BAD_REPORTS
])
def test_bad_report_exits_2(tmp_path, capsys, recorded_report, reader, case):
    path = tmp_path / "report.json"
    text = {**BAD_REPORTS, **BAD_TRACES}[case](recorded_report)
    path.write_text(text, encoding="utf-8")
    argv = REPORT_READERS[reader] + [str(path), "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
