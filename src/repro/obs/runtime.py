"""Process-wide observability state: the current tracer and registry.

Instrumented code never holds a tracer reference; it reads the module
attributes at the call site::

    from ..obs import runtime

    with runtime.tracer.span("solve_segment"):
        ...
    runtime.metrics.counter("che.iterations").inc(steps)

Both default to the no-op implementations, so the library is silent
(and near-free) unless an observer is installed.  The
:func:`observing` context manager installs a real tracer/registry for
one run and always restores the previous state — experiments, tests
and the CLI all use it, so nested observation scopes compose.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from .tracing import NULL_TRACER, NullTracer, Tracer

tracer: Tracer | NullTracer = NULL_TRACER
metrics: MetricsRegistry | NullMetrics = NULL_METRICS


def install(
    new_tracer: Tracer | NullTracer | None = None,
    new_metrics: MetricsRegistry | NullMetrics | None = None,
) -> None:
    """Replace the current tracer and/or metrics registry."""
    global tracer, metrics
    if new_tracer is not None:
        tracer = new_tracer
    if new_metrics is not None:
        metrics = new_metrics


def reset() -> None:
    """Back to the silent defaults."""
    global tracer, metrics
    tracer = NULL_TRACER
    metrics = NULL_METRICS


@contextmanager
def observing(
    new_tracer: Tracer | NullTracer | None = None,
    new_metrics: MetricsRegistry | NullMetrics | None = None,
) -> Iterator[tuple[Tracer | NullTracer, MetricsRegistry | NullMetrics]]:
    """Install a tracer/registry for the duration of a ``with`` block.

    Omitted arguments default to fresh real instances, so
    ``with observing() as (tracer, metrics):`` is the common one-liner.
    """
    global tracer, metrics
    installed_tracer = new_tracer if new_tracer is not None else Tracer()
    installed_metrics = (
        new_metrics if new_metrics is not None else MetricsRegistry()
    )
    previous = (tracer, metrics)
    tracer, metrics = installed_tracer, installed_metrics
    try:
        yield installed_tracer, installed_metrics
    finally:
        tracer, metrics = previous


def merge_worker(payload: dict) -> None:
    """Fold a worker's observability into the current observers.

    ``payload["spans"]`` is a ``Tracer.to_dict()`` and
    ``payload["metrics"]`` a ``MetricsRegistry.snapshot()`` from a
    worker process; either may be None (the worker ran unobserved).
    """
    if metrics.enabled and payload["metrics"] is not None:
        metrics.merge(MetricsRegistry.from_snapshot(payload["metrics"]))
    if tracer.enabled and payload["spans"] is not None:
        tracer.merge_span_dict(payload["spans"])
