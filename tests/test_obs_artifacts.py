"""Tests for JSON run artifacts (repro.obs.artifacts)."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.experiments.reporting import format_table
from repro.experiments.runner import FigureResult
from repro.obs import (
    RunArtifact,
    load_artifact,
    observing,
    write_artifact,
)
from repro.obs.tracing import Span, Tracer


def _figure() -> FigureResult:
    result = FigureResult(
        figure_id="figX",
        title="a test figure",
        headers=("ways", "label", "value"),
    )
    result.add(2, "off", 0.5)
    result.add(2, "on", 0.75)
    result.notes.append("a note")
    return result


class TestRoundTrip:
    def test_write_load_same_rows_and_metrics(self, tmp_path):
        with observing() as (tracer, metrics):
            with tracer.span("figX"):
                metrics.counter("che.solves").inc(3)
                metrics.gauge("report.claims_passed").set(13)
        artifact = RunArtifact(
            experiment="figX",
            figures=[_figure().to_dict()],
            spans=tracer.to_dict(),
            metrics=metrics.snapshot(),
            fast=True,
        )
        path = write_artifact(artifact, tmp_path)
        loaded = load_artifact(path)

        assert loaded.experiment == "figX"
        assert loaded.fast is True
        assert loaded.created_at == artifact.created_at
        assert loaded.metrics["counters"]["che.solves"] == 3
        assert loaded.metrics["gauges"]["report.claims_passed"] == 13

        figure = FigureResult.from_dict(loaded.figures[0])
        original = _figure()
        assert figure.rows == original.rows
        assert figure.headers == original.headers
        assert figure.notes == original.notes
        # The reloaded figure renders the identical printed table.
        assert format_table(
            figure.headers, figure.rows, title=figure.title
        ) == format_table(
            original.headers, original.rows, title=original.title
        )

    def test_span_tree_survives(self, tmp_path):
        tracer = Tracer()
        with tracer.span("figX"):
            with tracer.span("pair"):
                with tracer.span("simulate"):
                    pass
        artifact = RunArtifact(
            experiment="figX", spans=tracer.to_dict()
        )
        loaded = load_artifact(write_artifact(artifact, tmp_path))
        span = Span.from_dict(loaded.spans)
        assert span.depth() - 1 == 3  # figX > pair > simulate

    def test_filenames_are_timestamped_and_unique(self, tmp_path):
        artifact = RunArtifact(experiment="figX")
        first = write_artifact(artifact, tmp_path)
        second = write_artifact(artifact, tmp_path)
        assert first != second
        assert first.name.startswith("figX-")
        assert load_artifact(second).experiment == "figX"


class TestSchemaVersions:
    def test_current_version_is_3(self, tmp_path):
        artifact = RunArtifact(
            experiment="figX", jobs=4,
            worker={"pid": 123, "wall_seconds": 0.5},
            seed=11,
        )
        loaded = load_artifact(write_artifact(artifact, tmp_path))
        assert loaded.schema_version == 3
        assert loaded.jobs == 4
        assert loaded.worker == {"pid": 123, "wall_seconds": 0.5}
        assert loaded.seed == 11


class TestValidation:
    def test_missing_experiment_rejected(self):
        with pytest.raises(ObservabilityError):
            RunArtifact(experiment="")

    def test_unsupported_schema_version(self, tmp_path):
        artifact = RunArtifact(experiment="figX")
        path = write_artifact(artifact, tmp_path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ObservabilityError):
            load_artifact(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ObservabilityError):
            load_artifact(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError):
            load_artifact(tmp_path / "absent.json")

    def test_out_dir_created(self, tmp_path):
        nested = tmp_path / "runs" / "nested"
        artifact = RunArtifact(experiment="figX")
        path = write_artifact(artifact, nested)
        assert path.parent == nested
        assert path.exists()
