"""Process-pool execution context for experiments and simulations.

Mirrors :mod:`repro.obs.runtime`: code that *could* fan out never holds
a pool reference — it asks this module for the currently installed
:class:`ParallelContext`.  The default context is sequential (one job,
in-memory caching only); a scope opts in to workers and a disk cache::

    with parallel_context(jobs=4, disk_dir="runs/cache"):
        fig09_scan_agg.run(fast=True)   # sweep points fan out

Two levels of fan-out share the one pool:

* **experiment-level** — the CLI maps whole experiments onto the pool
  when several were requested (``run all --jobs 4``); each worker runs
  its experiment sequentially,
* **point-level** — inside a single experiment, every solve goes
  through :func:`repro.parallel.simcache.evaluate`, which ships a
  batch's independent cache misses to the pool.  The batch APIs
  (:meth:`ExperimentRunner.pair_batch`,
  :meth:`ConcurrencyExperiment.isolated_batch`) are the only solve
  path, with or without a pool, so the pool changes wall time only.

Nested pools are never created: a worker process installs a sequential
context before running its experiment.
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .simcache import SimulationCache


def _init_worker(parent_sys_path: list[str]) -> None:
    """Worker initializer: inherit the parent's import path.

    With the ``fork`` start method this is redundant; under ``spawn``
    or ``forkserver`` it keeps ``repro`` importable even when the
    parent found it through a runtime ``sys.path`` entry instead of
    ``PYTHONPATH``.
    """
    for entry in reversed(parent_sys_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)


@dataclass
class ParallelContext:
    """The currently requested parallelism/caching configuration."""

    jobs: int = 1
    disk_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1: {self.jobs}")
        if self.disk_dir is not None:
            self.disk_dir = Path(self.disk_dir)
        self._pool: ProcessPoolExecutor | None = None

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    def new_cache(self) -> SimulationCache:
        """A cache instance over this context's disk layer (if any).

        Each :class:`~repro.workloads.mixed.ConcurrencyExperiment`
        builds its own (fresh in-memory layer per experiment — the
        hit/miss pattern of ``run all`` is then identical whether the
        experiments run sequentially or on worker processes); the disk
        layer, when configured, is shared through the filesystem.
        """
        return SimulationCache(disk_dir=self.disk_dir)

    def pool(self) -> ProcessPoolExecutor | None:
        """The shared process pool (created lazily; None when jobs=1)."""
        if not self.parallel:
            return None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(list(sys.path),),
            )
        return self._pool

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


_DEFAULT = ParallelContext()
_current: ParallelContext = _DEFAULT


def current() -> ParallelContext:
    """The installed context (the sequential default when none is)."""
    return _current


def current_pool() -> ProcessPoolExecutor | None:
    """The active process pool, or None when running sequentially."""
    return _current.pool()


@contextmanager
def parallel_context(
    jobs: int = 1,
    disk_dir: str | Path | None = None,
) -> Iterator[ParallelContext]:
    """Install a context for the duration of a ``with`` block.

    The pool (if one was created) is shut down on exit and the
    previous context restored, so scopes compose like ``observing()``.
    """
    global _current
    context = ParallelContext(jobs=jobs, disk_dir=disk_dir)
    previous = _current
    _current = context
    try:
        yield context
    finally:
        _current = previous
        context.shutdown()
