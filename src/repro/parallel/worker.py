"""Worker-side entry points for experiment-level fan-out.

:func:`run_experiment_task` is what ``run all --jobs N`` submits to the
process pool: it executes one experiment exactly the way the
sequential CLI would — same observer scope, same printed tables — but
captures everything (stdout, the figure's rows, the span tree, the
metrics snapshot, wall time) into a picklable payload.  The parent
re-emits the payloads *in the sequential schedule order*, so the
combined stdout and the per-experiment artifacts are byte-for-byte
what a ``--jobs 1`` run produces.

Imports of :mod:`repro.cli` happen lazily inside the task: the CLI
imports this package, and pool workers must be able to import this
module without triggering that cycle.
"""

from __future__ import annotations

import io
import os
import time
from contextlib import redirect_stdout
from pathlib import Path

from ..obs.runtime import observing
from .executor import parallel_context


def run_experiment_task(
    name: str,
    fast: bool,
    observe: bool,
    cache_enabled: bool = True,
    disk_dir: str | None = None,
    seed: int | None = None,
) -> dict:
    """Run one experiment sequentially in this worker process."""
    from .. import seeding
    from ..cli import EXPERIMENTS
    from ..experiments.runner import FigureResult

    # The parent's run-level seed does not cross the process boundary
    # by itself; re-install it so worker and sequential runs behave
    # identically.
    seeding.set_seed(seed)
    runner, _ = EXPERIMENTS[name]
    started = time.perf_counter()
    stdout = io.StringIO()
    spans = None
    metrics_snapshot = None
    with parallel_context(
        jobs=1,
        cache_enabled=cache_enabled,
        disk_dir=Path(disk_dir) if disk_dir is not None else None,
    ):
        with redirect_stdout(stdout):
            if observe:
                with observing() as (tracer, metrics):
                    with tracer.span(name):
                        result = runner(fast=fast)
                spans = tracer.to_dict()
                metrics_snapshot = metrics.snapshot()
            else:
                result = runner(fast=fast)
    return {
        "name": name,
        "stdout": stdout.getvalue(),
        "figure": (
            result.to_dict() if isinstance(result, FigureResult) else None
        ),
        "spans": spans,
        "metrics": metrics_snapshot,
        "seconds": time.perf_counter() - started,
        "pid": os.getpid(),
    }
