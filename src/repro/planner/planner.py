"""The fleet planner: forecast, enumerate, score, switch.

On every planning tick the :class:`FleetPlanner`:

1. folds the complete arrival windows since the last tick into its
   forecaster,
2. forecasts per-class arrival rates over the horizon,
3. scores the candidate population against the analytic model in one
   batched pass
   (:meth:`~repro.planner.blueprint.BlueprintScorer.score_many`) —
   either the bounded enumerated family (``search="enum"``) or the
   beam search seeded by it (``search="beam"``,
   :mod:`repro.planner.search`),
4. switches to the best candidate only if it beats the *current*
   blueprint's score by the hysteresis ``margin`` — small forecast
   noise must not thrash placement — and, on a switch, emits the
   :class:`~repro.planner.transition.MigrationPlan` whose per-tenant
   downtime the fleet charges against the moved tenants.

Everything here is deterministic: the forecaster is a pure fold over
windows, scoring is pure model arithmetic, and ties break on the
blueprint's canonical key — the same seed always produces the same
decision sequence (and therefore a byte-identical fleet report).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import time

from ..errors import PlannerError
from ..obs import runtime
from ..schema import check_finite
from .blueprint import (
    MAX_FAMILY_CANDIDATES,
    Blueprint,
    BlueprintScore,
    BlueprintScorer,
    enumerate_blueprints,
    spread_blueprint,
)
from .forecast import FORECASTERS, Forecast, make_forecaster
from .search import (
    SEARCH_STRATEGIES,
    SearchConfig,
    beam_search,
    scored_entries,
)
from .transition import MigrationPlan, plan_transition

#: The batch tenant group name (mirrors
#: ``repro.cluster.workload.BATCH_TENANT``; the planner cannot import
#: the cluster package).
BATCH_GROUP = "batch"


@dataclass(frozen=True)
class PlannerConfig:
    """Planning knobs (part of the fleet's determinism domain)."""

    interval_s: float = 2.0
    horizon_s: float = 4.0
    downtime_s: float = 0.25
    forecaster: str = "seasonal"
    period_s: float = 20.0
    window_s: float = 1.0
    margin: float = 0.1
    #: Candidate generation: ``enum`` scores the bounded family only,
    #: ``beam`` runs the seeded beam search on top of it.
    search: str = "enum"
    beam_width: int = 16
    search_steps: int = 4
    search_candidates: int = 2000
    #: Seed for the beam search's budget subsampling (the fleet passes
    #: its run seed through, keeping search in the determinism domain).
    search_seed: int = 0
    #: Pre-training windows: ``((class, count), ...)`` per window, the
    #: canonical form of
    #: :func:`repro.planner.forecast.training_from_report`.
    training: tuple = ()

    def __post_init__(self) -> None:
        check_finite(self, PlannerError)
        if self.interval_s <= 0:
            raise PlannerError(
                f"plan interval must be > 0: {self.interval_s}"
            )
        if self.horizon_s <= 0:
            raise PlannerError(
                f"plan horizon must be > 0: {self.horizon_s}"
            )
        if self.downtime_s < 0:
            raise PlannerError(
                f"migration downtime must be >= 0: {self.downtime_s}"
            )
        if self.forecaster not in FORECASTERS:
            raise PlannerError(
                f"forecaster must be one of {FORECASTERS}: "
                f"{self.forecaster!r}"
            )
        if self.period_s <= 0:
            raise PlannerError(
                f"seasonal period must be > 0: {self.period_s}"
            )
        if self.window_s <= 0:
            raise PlannerError(
                f"window must be > 0: {self.window_s}"
            )
        if self.margin < 0:
            raise PlannerError(
                f"switch margin must be >= 0: {self.margin}"
            )
        if self.search not in SEARCH_STRATEGIES:
            raise PlannerError(
                f"search must be one of {SEARCH_STRATEGIES}: "
                f"{self.search!r}"
            )
        # Delegate the remaining search-knob validation (and fail at
        # config time, not first tick).
        self.search_config()
        # The one check of training counts: integers only (no bool,
        # no float, no numeric string), never negative.
        windows = (
            self.training if isinstance(self.training, tuple)
            else (self.training,)
        )
        for window in windows:
            for entry in window if isinstance(window, tuple) else (window,):
                if not (
                    isinstance(entry, tuple)
                    and len(entry) == 2
                    and isinstance(entry[0], str)
                    and isinstance(entry[1], int)
                    and not isinstance(entry[1], bool)
                    and entry[1] >= 0
                ):
                    raise PlannerError(
                        "training windows must be ((class, count), "
                        "...) tuples with integer counts >= 0: "
                        f"{entry!r}"
                    )

    def search_config(self) -> SearchConfig:
        return SearchConfig(
            strategy=self.search,
            beam_width=self.beam_width,
            steps=self.search_steps,
            max_candidates=self.search_candidates,
            seed=self.search_seed,
        )

    def to_dict(self) -> dict:
        return {
            "interval_s": self.interval_s,
            "horizon_s": self.horizon_s,
            "downtime_s": self.downtime_s,
            "forecaster": self.forecaster,
            "period_s": self.period_s,
            "window_s": self.window_s,
            "margin": self.margin,
            "max_candidates": MAX_FAMILY_CANDIDATES,
            "search": self.search_config().to_dict(),
            "training_windows": len(self.training),
        }


@dataclass(frozen=True)
class PlanDecision:
    """One planning tick's outcome (recorded in the fleet report)."""

    tick: int
    time_s: float
    changed: bool
    forecast: Forecast
    chosen: BlueprintScore
    incumbent_score: float
    #: Best score seen this tick regardless of hysteresis — lets a
    #: search-quality comparison read "what the planner could have
    #: had" even on ticks that kept the incumbent.
    best_score: float
    migrations: int

    def to_dict(self) -> dict:
        return {
            "tick": self.tick,
            "time_s": round(self.time_s, 9),
            "changed": self.changed,
            "forecast": self.forecast.to_dict(),
            "chosen": self.chosen.to_dict(),
            "incumbent_score": round(self.incumbent_score, 9),
            "best_score": round(self.best_score, 9),
            "migrations": self.migrations,
        }


@dataclass
class FleetPlanner:
    """Drives blueprint transitions for one fleet run."""

    config: PlannerConfig
    scorer: BlueprintScorer
    nodes: int
    tenants_per_group: int
    current: Blueprint = field(init=False)
    ticks: int = field(init=False, default=0)
    reconfigurations: int = field(init=False, default=0)
    migrated_tenants: int = field(init=False, default=0)

    def __init__(
        self,
        config: PlannerConfig,
        scorer: BlueprintScorer,
        nodes: int,
        tenants_per_group: int,
    ) -> None:
        if nodes < 1:
            raise PlannerError(f"nodes must be >= 1: {nodes}")
        if tenants_per_group < 1:
            raise PlannerError(
                f"tenants_per_group must be >= 1: {tenants_per_group}"
            )
        self.config = config
        self.scorer = scorer
        self.nodes = nodes
        self.tenants_per_group = tenants_per_group
        groups = sorted({
            cls.tenant for cls in scorer.classes.values()
        })
        self.groups = tuple(groups)
        self.candidates = enumerate_blueprints(
            nodes, groups, batch_group=BATCH_GROUP
        )
        # Boot configuration: everyone everywhere under the paper
        # scheme — exactly what static-policy nodes program at start.
        self.current = spread_blueprint(nodes, groups, "paper")
        self.forecaster = make_forecaster(
            config.forecaster,
            window_s=config.window_s,
            period_s=config.period_s,
        )
        for index, window in enumerate(config.training):
            self.forecaster.observe(index, dict(window))
        self.ticks = 0
        self.reconfigurations = 0
        self.migrated_tenants = 0
        self.decisions: list[PlanDecision] = []
        self._window_cursor = 0
        self._search_config = config.search_config()
        # Cumulative search accounting for the report's ``search``
        # block — counts only; wall time goes to metrics so reports
        # stay byte-identical across machines and job counts.
        self.search_totals = {
            "rounds": 0,
            "candidates_scored": 0,
            "frontier_improvements": 0,
            "truncated": 0,
        }

    def _moves_between(
        self, target: Blueprint
    ) -> int:
        plan = plan_transition(
            self.current, target, self.tenants_per_group, 0.0, 0.0
        )
        return len(plan.moves)

    def tick(
        self, now: float, windows: list
    ) -> tuple[PlanDecision, MigrationPlan | None]:
        """One planning pass at simulated time ``now``.

        ``windows`` is the fleet's growing per-window per-class count
        list; only windows fully closed by ``now`` are consumed, each
        exactly once across ticks.
        """
        metrics = runtime.metrics
        self.ticks += 1
        metrics.counter("planner.ticks").inc()
        complete = min(
            int(now / self.config.window_s + 1e-9), len(windows)
        )
        for index in range(self._window_cursor, complete):
            self.forecaster.observe(index, windows[index])
            metrics.counter("planner.windows").inc()
        self._window_cursor = max(self._window_cursor, complete)
        forecast = self.forecaster.forecast(
            now, self.config.horizon_s
        )
        rates = {
            name: forecast.rate_for(name)
            for name in sorted(self.scorer.classes)
        }
        started = time.perf_counter_ns()
        if self._search_config.strategy == "beam":
            # Beam search seeded by the enumerated family plus the
            # incumbent: the winner can never rank worse than either.
            result = beam_search(
                self.scorer,
                rates,
                self.candidates + (self.current,),
                self._search_config,
                min_nodes=self.nodes,
                max_nodes=self.nodes,
            )
            scored = result.entries
            search = result.stats
            for key, value in search.to_dict().items():
                self.search_totals[key] += value
            metrics.counter("planner.search.rounds").inc(
                search.rounds
            )
            metrics.counter("planner.search.improvements").inc(
                search.frontier_improvements
            )
        else:
            # The enumerated family always holds the incumbent: the
            # boot spread sorts first by key, and every later
            # incumbent is an earlier winner from the same family.
            scored = {
                entry.blueprint.key(): entry
                for entry in scored_entries(
                    self.scorer.score_many(self.candidates, rates)
                )
            }
            self.search_totals["candidates_scored"] += len(scored)
        entries = list(scored.values())
        metrics.counter("planner.candidates").inc(len(entries))
        metrics.counter("planner.search.candidates").inc(
            len(entries)
        )
        incumbent = scored[self.current.key()].materialize()
        # Rank: model score, then fewer migrations, then canonical key
        # — a full deterministic order with no float ties left to
        # chance.  Migration counts are computed lazily, only for the
        # candidates tied at the lowest rounded score: identical
        # outcome to ranking every candidate with the full tuple,
        # without a plan_transition per scored candidate.
        rounded = [round(entry.score, 9) for entry in entries]
        lowest = min(rounded)
        best = min(
            (
                entry
                for entry, value in zip(entries, rounded)
                if value == lowest
            ),
            key=lambda entry: (
                self._moves_between(entry.blueprint),
                entry.blueprint.key(),
            ),
        ).materialize()
        metrics.counter("planner.search.tick_ns").inc(
            time.perf_counter_ns() - started
        )
        changed = (
            best.blueprint.key() != self.current.key()
            and best.score
            < incumbent.score * (1.0 - self.config.margin) - 1e-12
        )
        migration: MigrationPlan | None = None
        if changed:
            migration = plan_transition(
                self.current,
                best.blueprint,
                self.tenants_per_group,
                now,
                self.config.downtime_s,
            )
            self.current = best.blueprint
            self.reconfigurations += 1
            self.migrated_tenants += len(migration.moves)
            metrics.counter("planner.reconfigurations").inc()
            metrics.counter("planner.migrations").inc(
                len(migration.moves)
            )
        decision = PlanDecision(
            tick=self.ticks,
            time_s=now,
            changed=changed,
            forecast=forecast,
            chosen=best if changed else incumbent,
            incumbent_score=incumbent.score,
            best_score=best.score,
            migrations=len(migration.moves) if migration else 0,
        )
        self.decisions.append(decision)
        return decision, migration

    def stats(self) -> dict:
        """The fleet report's ``planner`` payload."""
        return {
            "config": self.config.to_dict(),
            "forecaster": self.forecaster.name,
            "candidates": len(self.candidates),
            "ticks": self.ticks,
            "reconfigurations": self.reconfigurations,
            "migrated_tenants": self.migrated_tenants,
            "blueprint": self.current.to_dict(),
            "search": {
                "strategy": self._search_config.strategy,
                **self.search_totals,
            },
            "decisions": [d.to_dict() for d in self.decisions],
        }
