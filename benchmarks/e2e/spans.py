"""Span recording for the benchmark's traced repetition.

The traced repetition wraps the package's public entry points on their
classes (and the figure ``run()`` functions on their modules) with span
recorders, from outside the package: no file under ``src/`` changes.
Each span is folded into a call tree the moment it closes.  A tree node
is one (name, parent node) pair and keeps its call count, inclusive
time and self time, where self time is the span's duration minus the
time its child spans cover.  Durations are also kept per span name, so
call-latency percentiles can be read back.  Folding as spans close keeps
memory flat: a serve run closes over a million spans.

Span names are ``<layer>.<what>``; the layer prefix is the package
module the wrapped code lives in.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

#: (module, class, method, span name).  ``None`` as the class wraps a
#: module-level function.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.model.simulator", "WorkloadSimulator", "simulate",
     "model.simulate"),
    ("repro.model.simulator", "WorkloadSimulator", "simulate_many",
     "model.simulate_many"),
    ("repro.hardware.fastcache", "FastSetAssociativeCache",
     "access_batch", "hardware.access_batch"),
    ("repro.serve.service", "QueryService", "run", "serve.run"),
    ("repro.serve.service", "QueryService", "dispatch", "serve.dispatch"),
    ("repro.serve.service", "QueryService", "accept", "serve.accept"),
    ("repro.serve.service", "RateCache", "get", "serve.rate_cache"),
    ("repro.serve.events", "EventQueue", "push", "serve.queue.push"),
    ("repro.serve.events", "EventQueue", "pop", "serve.queue.pop"),
    ("repro.serve.arrivals", "ArrivalProcess", "next_arrival",
     "serve.arrivals"),
    ("repro.serve.admission", "AdmissionController", "offer",
     "serve.admission"),
    ("repro.serve.slo", "SloTracker", "observe", "serve.slo"),
    ("repro.serve.controller", "AdaptiveController", "tick",
     "serve.controller.tick"),
    ("repro.core.online", "OnlineClassifier", "classify",
     "core.classify"),
    ("repro.workloads.mixed", "ConcurrencyExperiment", "llc_sweep",
     "workloads.llc_sweep"),
    ("repro.cluster.router", "HashRouter", "route", "cluster.route"),
    ("repro.cluster.router", "LeastLoadedRouter", "route",
     "cluster.route"),
    ("repro.cluster.router", "AffinityRouter", "route", "cluster.route"),
    ("repro.cluster.router", "PlannedRouter", "route", "cluster.route"),
    ("repro.cluster.fleet", "Cluster", "run", "cluster.run"),
    ("repro.planner.planner", "FleetPlanner", "tick", "planner.tick"),
    ("repro.planner.blueprint", "BlueprintScorer", "score_many",
     "planner.score"),
    ("repro.defense.detector", "ContentionDetector", "tick",
     "defense.tick"),
) + tuple(
    (f"repro.experiments.{module}", None, "run", f"experiments.{module}")
    for module in (
        "fig01_teaser", "fig04_scan", "fig05_aggregation", "fig06_join",
        "fig09_scan_agg", "fig10_agg_join", "fig11_tpch", "fig12_oltp",
        "ext_trace_validation",
    )
)


class SpanTree:
    """Spans folded into a (name, parent) call tree as they close."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span (call with no span open)."""
        #: (parent node id, name) -> node id; the root's id is -1.
        self._ids: dict[tuple[int, str], int] = {}
        self.names: list[str] = []
        self.parents: list[int] = []
        self.calls: list[int] = []
        self.incl_s: list[float] = []
        self.self_s: list[float] = []
        self.durations: dict[str, array] = {}
        #: Open spans: [node id, time covered by closed children].
        self._stack: list[list] = []

    def _node(self, parent: int, name: str) -> int:
        key = (parent, name)
        node = self._ids.get(key)
        if node is None:
            node = self._ids[key] = len(self.names)
            self.names.append(name)
            self.parents.append(parent)
            self.calls.append(0)
            self.incl_s.append(0.0)
            self.self_s.append(0.0)
            self.durations.setdefault(name, array("d"))
        return node

    def wrap(self, name: str, function):
        """``function`` with every call recorded as a span ``name``."""
        clock = self._clock

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            frame = [self._node(parent, name), 0.0]
            stack.append(frame)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                node = frame[0]
                self.calls[node] += 1
                self.incl_s[node] += elapsed
                self.self_s[node] += elapsed - frame[1]
                self.durations[name].append(elapsed)

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target in place (for the rest of the process)."""
        for module_name, class_name, attribute, name in targets:
            module = importlib.import_module(module_name)
            owner = (
                module if class_name is None
                else getattr(module, class_name)
            )
            original = (
                getattr(owner, attribute) if class_name is None
                else owner.__dict__[attribute]
            )
            setattr(owner, attribute, self.wrap(name, original))

    # -- reading the tree ----------------------------------------------

    def path(self, node: int) -> str:
        parts = []
        while node != -1:
            parts.append(self.names[node])
            node = self.parents[node]
        return "/".join(reversed(parts))

    def rows(self) -> list[dict]:
        """Every tree node, heaviest inclusive time first."""
        order = sorted(
            range(len(self.names)), key=lambda node: -self.incl_s[node]
        )
        return [
            {
                "path": self.path(node),
                "calls": self.calls[node],
                "incl_s": self.incl_s[node],
                "self_s": self.self_s[node],
            }
            for node in order
        ]

    def _nodes(self, name: str):
        return [
            node for node, own in enumerate(self.names) if own == name
        ]

    def calls_of(self, name: str) -> int:
        return sum(self.calls[node] for node in self._nodes(name))

    def self_of(self, *names: str) -> float:
        return sum(
            self.self_s[node] for name in names
            for node in self._nodes(name)
        )

    def incl_of(self, name: str) -> float:
        """Inclusive time of ``name``, counting recursive calls once."""
        total = 0.0
        for node in self._nodes(name):
            ancestor = self.parents[node]
            while ancestor != -1 and self.names[ancestor] != name:
                ancestor = self.parents[ancestor]
            if ancestor == -1:
                total += self.incl_s[node]
        return total

    def calls_under(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` made directly inside a ``parent_name`` span."""
        return sum(
            self.calls[node] for node in self._nodes(name)
            if self.parents[node] != -1
            and self.names[self.parents[node]] == parent_name
        )

    def root_time(self) -> float:
        """Time covered by spans with no parent."""
        return sum(
            self.incl_s[node]
            for node, parent in enumerate(self.parents) if parent == -1
        )
