"""Discrete-event query service with an adaptive CAT control loop.

The paper measures fixed 90-second closed loops under a *statically*
derived partitioning scheme and names dynamic runtime adaptation as the
open problem (Sec. VIII).  This package is that layer: a long-running
service that

* admits requests from an **open arrival process**
  (:mod:`repro.serve.arrivals` — seeded Poisson, MMPP-style bursty
  on/off, diurnal) over the existing query catalog,
* runs them on a deterministic **discrete-event simulation**
  (:mod:`repro.serve.clock`, :mod:`repro.serve.events`) whose service
  rates come from the analytic workload model, so cache and bandwidth
  contention shape the latency distribution exactly as in the figures,
* **queues or sheds** load past a concurrency limit
  (:mod:`repro.serve.admission`),
* tracks per-tenant latency percentiles against **SLOs**
  (:mod:`repro.serve.slo`), and
* closes the loop from monitoring back into CAT mask programming with
  an **adaptive controller** (:mod:`repro.serve.controller`) that
  re-classifies the running mix (:mod:`repro.core.online`), re-derives
  a scheme (:mod:`repro.core.advisor`) and re-programs masks through
  :mod:`repro.engine.cache_control` while the mix shifts.

Everything is seeded and wall-clock-free: the same configuration and
seed produce byte-identical reports (see ``docs/SERVICE.md``).
"""

from .admission import AdmissionController, AdmissionDecision, Request
from .arrivals import (
    ARRIVAL_WINDOW_S,
    ArrivalProcess,
    ArrivalWindows,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    RequestClass,
    SampleGrid,
    WorkloadMix,
    build_arrivals,
    olap_heavy_mix,
    oltp_heavy_mix,
)
from .clock import SimulatedClock
from .controller import AdaptiveController, ControlDecision
from .events import Event, EventKind, EventQueue
from .replay import ReplayArrivals, load_trace
from .service import (
    REPORT_VERSION,
    QueryService,
    RateCache,
    ServiceConfig,
    ServiceReport,
)
from .slo import LatencyHistogram, SloTarget, SloTracker, SloVerdict

__all__ = [
    "ARRIVAL_WINDOW_S",
    "AdaptiveController",
    "AdmissionController",
    "AdmissionDecision",
    "ArrivalProcess",
    "ArrivalWindows",
    "BurstyArrivals",
    "ControlDecision",
    "DiurnalArrivals",
    "Event",
    "EventKind",
    "EventQueue",
    "LatencyHistogram",
    "PoissonArrivals",
    "QueryService",
    "REPORT_VERSION",
    "RateCache",
    "ReplayArrivals",
    "Request",
    "RequestClass",
    "SampleGrid",
    "ServiceConfig",
    "ServiceReport",
    "SimulatedClock",
    "SloTarget",
    "SloTracker",
    "SloVerdict",
    "WorkloadMix",
    "build_arrivals",
    "load_trace",
    "olap_heavy_mix",
    "oltp_heavy_mix",
]
