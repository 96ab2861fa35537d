"""Structured JSON run artifacts.

One experiment run produces one timestamped JSON file under ``runs/``
(or a caller-chosen directory) holding everything the run measured:

* every figure's rows (the exact data behind the printed tables),
* the span tree recorded by the tracer,
* the metrics registry snapshot (solver iterations, elision counts,
  dispatch totals, ...).

Benchmarks and regression tooling consume these files instead of
scraping stdout; ``load_artifact`` round-trips what ``write_artifact``
stored, so ``BENCH_*.json`` trajectories can be populated from
artifacts directly.  The schema is documented in
``docs/OBSERVABILITY.md`` and versioned via ``SCHEMA_VERSION``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

from ..errors import ObservabilityError
from ..schema import ARTIFACT_SCHEMA_VERSION, check_version, read_json

#: The artifact schema: ``jobs`` (the ``--jobs`` value the run was
#: launched with), ``worker`` (per-worker timing — ``{"pid": ...,
#: "wall_seconds": ...}`` — when the experiment ran on a pool worker)
#: and ``seed`` (the run-level ``--seed``, ``null`` when unset) sit
#: beside the figures, spans and metrics.
SCHEMA_VERSION = ARTIFACT_SCHEMA_VERSION

DEFAULT_RUNS_DIR = "runs"


@dataclass
class RunArtifact:
    """Everything one experiment run measured, JSON-serializable."""

    experiment: str
    figures: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    spans: dict | None = None
    fast: bool = False
    jobs: int = 1
    worker: dict | None = None
    seed: int | None = None
    created_at: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.experiment:
            raise ObservabilityError("artifact needs an experiment id")
        if not self.created_at:
            self.created_at = (
                datetime.now(timezone.utc).isoformat(timespec="microseconds")
            )

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "created_at": self.created_at,
            "fast": self.fast,
            "jobs": self.jobs,
            "worker": self.worker,
            "seed": self.seed,
            "figures": self.figures,
            "spans": self.spans,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunArtifact":
        check_version(
            payload, "schema_version", SCHEMA_VERSION, ObservabilityError
        )
        try:
            return cls(**{f.name: payload[f.name] for f in fields(cls)})
        except KeyError as exc:
            raise ObservabilityError(
                f"artifact is missing required key: {exc}"
            ) from None


def artifact_filename(artifact: RunArtifact) -> str:
    """Timestamped, filesystem-safe name for an artifact."""
    stamp = (
        artifact.created_at.replace(":", "")
        .replace("-", "")
        .replace("+0000", "Z")
        .replace(".", "-")
    )
    return f"{artifact.experiment}-{stamp}.json"


def write_artifact(
    artifact: RunArtifact, out_dir: str | Path = DEFAULT_RUNS_DIR
) -> Path:
    """Serialize an artifact under ``out_dir``; returns the file path."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / artifact_filename(artifact)
    suffix = 0
    while path.exists():  # same experiment within one microsecond
        suffix += 1
        path = directory / (
            f"{path.stem.rsplit('.', 1)[0]}.{suffix}.json"
        )
    path.write_text(
        json.dumps(artifact.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_artifact(path: str | Path) -> RunArtifact:
    """Read an artifact previously written by :func:`write_artifact`."""
    return RunArtifact.from_dict(read_json(path, ObservabilityError))
