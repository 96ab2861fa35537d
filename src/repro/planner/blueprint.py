"""Blueprints: candidate fleet configurations and their model scores.

A :class:`Blueprint` is a value object capturing one way to run the
fleet — which nodes each tenant group lives on and which CAT scheme
each node programs.  The planner does not search this space freely: a
bounded enumerator (:func:`enumerate_blueprints`) generates the
structurally interesting candidates — everyone-everywhere spreads and
batch-isolation splits, each under the known partitioning schemes —
and the :class:`BlueprintScorer` ranks them against the *analytic
model* under a forecast, never against the live simulation.

Scoring reuses the serving stack's machinery end to end: a node's
hypothetical composition is expressed as the same
``(class, mask, count)`` signature the service's rate solver uses, the
solve goes through :class:`~repro.model.simulator.WorkloadSimulator`
(one fixed point per distinct signature), and results land in the
fleet-shared solve memo — so planner probes and node rate solves pay
for each other.  Per-node latency is an M/G/1-PS style proxy: with
per-class service time ``s_c`` (from the contention-aware model) and
utilization ``rho = sum(lambda_c * s_c) / slots``, a class's predicted
sojourn is ``s_c / (1 - rho)``.  The objective is the worst predicted
latency-to-SLO ratio across latency tenant groups, plus a heavy
penalty for overloaded nodes — trading slot count (more nodes per
group) against cache ways (scheme choice) in one scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemSpec
from ..core.policy import (
    PartitioningScheme,
    paper_scheme,
    unpartitioned_scheme,
)
from ..errors import PlannerError
from ..model.calibration import DEFAULT_CALIBRATION, Calibration
from ..model.simulator import QuerySpec, WorkloadSimulator
from ..operators.base import CacheUsage
from ..parallel import executor as parallel_executor

#: Per-node CAT scheme vocabulary: the unpartitioned baseline and the
#: paper's 10 % / 100 % / 60 % scheme.
BLUEPRINT_SCHEMES: dict[str, PartitioningScheme] = {
    "full": unpartitioned_scheme(),
    "paper": paper_scheme(),
}

#: Utilization above this is treated as overload; the latency proxy's
#: ``1 - rho`` slack is clamped here so scores stay finite and ordered.
RHO_CAP = 0.95

#: Weight of the overload penalty relative to the latency objective.
OVERLOAD_WEIGHT = 10.0

#: Size cap of the enumerated family (:func:`enumerate_blueprints`).
MAX_FAMILY_CANDIDATES = 64


def preferred_node(home: tuple[int, ...], index: int) -> int:
    """The deterministic home of tenant ``index`` within its group's
    node set — shared by routing and migration planning so both agree
    on where a tenant lives."""
    return home[index % len(home)]


@dataclass(frozen=True)
class Blueprint:
    """One candidate fleet configuration.

    ``placement`` maps tenant groups to the (sorted) node indices that
    serve them; ``schemes`` names one :data:`BLUEPRINT_SCHEMES` entry
    per node.  Routing under a blueprint is implied: tenant ``g-i``
    lives on ``preferred_node(placement[g], i)``.
    """

    nodes: int
    placement: tuple[tuple[str, tuple[int, ...]], ...]
    schemes: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise PlannerError(f"nodes must be >= 1: {self.nodes}")
        if len(self.schemes) != self.nodes:
            raise PlannerError(
                f"{len(self.schemes)} schemes for {self.nodes} nodes"
            )
        for scheme in self.schemes:
            if scheme not in BLUEPRINT_SCHEMES:
                raise PlannerError(
                    "scheme must be one of "
                    f"{sorted(BLUEPRINT_SCHEMES)}: {scheme!r}"
                )
        groups = [group for group, _ in self.placement]
        if groups != sorted(groups) or len(set(groups)) != len(groups):
            raise PlannerError(
                f"placement groups must be sorted and unique: {groups}"
            )
        for group, home in self.placement:
            if not home:
                raise PlannerError(f"group {group!r} has no nodes")
            if list(home) != sorted(set(home)):
                raise PlannerError(
                    f"group {group!r} home set must be strictly "
                    f"increasing: {home}"
                )
            if home[0] < 0 or home[-1] >= self.nodes:
                raise PlannerError(
                    f"group {group!r} places nodes outside "
                    f"0..{self.nodes - 1}: {home}"
                )

    @classmethod
    def build(
        cls, nodes: int, placement: dict, schemes
    ) -> "Blueprint":
        """Normalizing constructor from a plain mapping."""
        return cls(
            nodes=nodes,
            placement=tuple(
                (group, tuple(sorted(set(home))))
                for group, home in sorted(placement.items())
            ),
            schemes=tuple(schemes),
        )

    def placement_map(self) -> dict[str, tuple[int, ...]]:
        return dict(self.placement)

    def key(self) -> tuple:
        """Identity for change detection and deterministic ordering."""
        return (self.placement, self.schemes)

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "placement": {
                group: list(home) for group, home in self.placement
            },
            "schemes": list(self.schemes),
        }


def spread_blueprint(
    nodes: int, groups, scheme: str = "paper"
) -> Blueprint:
    """Every group on every node — the boot configuration (matches a
    fleet of ``static``-policy nodes under blind hashing)."""
    all_nodes = tuple(range(nodes))
    return Blueprint.build(
        nodes,
        {group: all_nodes for group in groups},
        (scheme,) * nodes,
    )


def enumerate_blueprints(
    nodes: int,
    groups,
    batch_group: str = "batch",
    max_candidates: int = MAX_FAMILY_CANDIDATES,
) -> tuple[Blueprint, ...]:
    """The bounded candidate set for one fleet shape.

    Three families, each under both schemes where it matters:

    * **spread** — every group everywhere (scheme full / paper),
    * **batch isolation** — the batch group alone on the last ``b``
      nodes (full mask: nothing to protect there), latency groups on
      the rest (scheme full / paper),
    * **full split** — batch isolated *and* the two latency groups
      separated across the remaining nodes (when both fit).

    Output is deduplicated, deterministically ordered, and truncated
    to ``max_candidates``.
    """
    if max_candidates < 1:
        raise PlannerError(
            f"max_candidates must be >= 1: {max_candidates}"
        )
    groups = tuple(sorted(set(groups)))
    if not groups:
        raise PlannerError("no tenant groups to place")
    service_groups = tuple(g for g in groups if g != batch_group)
    candidates: list[Blueprint] = []
    for scheme in sorted(BLUEPRINT_SCHEMES):
        candidates.append(spread_blueprint(nodes, groups, scheme))
    if batch_group in groups and nodes > 1 and service_groups:
        for batch_count in range(1, nodes):
            service_nodes = tuple(range(nodes - batch_count))
            batch_nodes = tuple(range(nodes - batch_count, nodes))
            for scheme in sorted(BLUEPRINT_SCHEMES):
                schemes = tuple(
                    scheme if i in service_nodes else "full"
                    for i in range(nodes)
                )
                placement = {batch_group: batch_nodes}
                for group in service_groups:
                    placement[group] = service_nodes
                candidates.append(
                    Blueprint.build(nodes, placement, schemes)
                )
                if (
                    len(service_groups) == 2
                    and len(service_nodes) >= 2
                ):
                    half = len(service_nodes) // 2
                    first, second = sorted(service_groups)
                    split = dict(placement)
                    split[first] = service_nodes[:half]
                    split[second] = service_nodes[half:]
                    candidates.append(
                        Blueprint.build(nodes, split, schemes)
                    )
    unique: dict[tuple, Blueprint] = {}
    for blueprint in candidates:
        unique.setdefault(blueprint.key(), blueprint)
    ordered = sorted(unique.values(), key=lambda b: b.key())
    return tuple(ordered[:max_candidates])


@dataclass(frozen=True)
class BlueprintScore:
    """One blueprint's analytic evaluation under a forecast."""

    blueprint: Blueprint
    #: Worst predicted latency / SLO target across latency groups.
    objective: float
    #: Total utilization excess over 1.0 across nodes.
    overload: float
    #: ``objective + OVERLOAD_WEIGHT * overload`` — the ranking scalar.
    score: float
    utilization: tuple[float, ...]
    #: Per latency group: worst predicted sojourn time (seconds).
    predicted_s: tuple[tuple[str, float], ...]

    def to_dict(self) -> dict:
        return {
            "blueprint": self.blueprint.to_dict(),
            "objective": round(self.objective, 9),
            "overload": round(self.overload, 9),
            "score": round(self.score, 9),
            "utilization": [round(u, 9) for u in self.utilization],
            "predicted_s": {
                group: round(value, 9)
                for group, value in self.predicted_s
            },
        }


def _per_class_rates(signature: tuple, results: dict) -> dict:
    """Per-class per-instance rates from one composition's solve."""
    per_class = {}
    for name, _, count in signature:
        throughput = results[name].throughput_tuples_per_s
        if throughput <= 0.0:
            raise PlannerError(
                f"non-positive model rate for {name!r}"
            )
        per_class[name] = throughput / count
    return per_class


def _solve_signatures_task(payload: dict) -> list:
    """Solve a chunk of composition signatures in a worker process.

    Pure function of the payload: the fixed points are deterministic,
    so fanning chunks across processes changes wall time, never the
    merged memo contents.
    """
    simulator = WorkloadSimulator(
        payload["spec"], payload["calibration"]
    )
    entries = payload["entries"]
    solved = simulator.simulate_many(
        [specs for _, specs in entries]
    )
    return [
        (signature, _per_class_rates(signature, results))
        for (signature, _), results in zip(entries, solved)
    ]


class _ClassTable:
    """Struct-of-arrays view of the active request classes.

    One table per distinct active-class set (classes whose forecast
    rate clears the ``1e-12`` activity floor), cached on the scorer:
    class names in sorted order (the accumulation order), per-class
    work, tenant-group columns, and per-scheme CAT masks.
    """

    __slots__ = (
        "names", "work", "group_names", "group_index", "group_col",
        "group_cols", "masks",
    )

    def __init__(self, scorer: "BlueprintScorer", names: tuple) -> None:
        self.names = names
        classes = []
        for name in names:
            cls = scorer.classes.get(name)
            if cls is None:
                raise PlannerError(
                    f"forecast class {name!r} is not in the catalog "
                    f"({sorted(scorer.classes)})"
                )
            classes.append(cls)
        self.work = tuple(
            float(cls.work_tuples) for cls in classes
        )
        groups = tuple(cls.tenant for cls in classes)
        self.group_names = tuple(sorted(set(groups)))
        self.group_index = {
            group: column
            for column, group in enumerate(self.group_names)
        }
        self.group_col = tuple(
            self.group_index[group] for group in groups
        )
        self.group_cols = tuple(
            tuple(
                k for k, group in enumerate(groups)
                if group == self.group_names[column]
            )
            for column in range(len(self.group_names))
        )
        self.masks = {
            scheme: tuple(
                scorer._mask_for(cls, scheme) for cls in classes
            )
            for scheme in BLUEPRINT_SCHEMES
        }

    def signature(self, bits: int, scheme: str) -> tuple:
        """The service-format composition signature for one node:
        the classes whose membership bit is set, under one scheme."""
        masks = self.masks[scheme]
        return tuple(sorted(
            (name, masks[k], 1)
            for k, name in enumerate(self.names)
            if bits >> self.group_col[k] & 1
        ))


class BatchScores:
    """One population's scores as struct-of-arrays.

    ``scores`` is the ranking scalar for every candidate;
    :meth:`materialize` builds the full :class:`BlueprintScore` for
    one candidate on demand, so ranking a thousand-candidate
    population never pays a thousand dataclass constructions.
    """

    __slots__ = (
        "blueprints", "scores", "objectives", "overloads",
        "_utilization", "_predicted", "_group_names",
    )

    def __init__(
        self,
        blueprints: tuple,
        scores: np.ndarray,
        objectives: np.ndarray,
        overloads: np.ndarray,
        utilization: list,
        predicted: list,
        group_names: tuple,
    ) -> None:
        self.blueprints = blueprints
        self.scores = scores
        self.objectives = objectives
        self.overloads = overloads
        self._utilization = utilization
        self._predicted = predicted
        self._group_names = group_names

    def __len__(self) -> int:
        return len(self.blueprints)

    def materialize(self, index: int) -> BlueprintScore:
        """The full score object for one candidate (exact floats)."""
        predicted = self._predicted[index]
        return BlueprintScore(
            blueprint=self.blueprints[index],
            objective=float(self.objectives[index]),
            overload=float(self.overloads[index]),
            score=float(self.scores[index]),
            utilization=tuple(
                float(value) for value in self._utilization[index]
            ),
            predicted_s=tuple(
                (group, float(value))
                for group, value in zip(self._group_names, predicted)
            ),
        )


class BlueprintScorer:
    """Ranks blueprints against the analytic model under a forecast.

    Shares the fleet's solve memo: a hypothetical composition solved
    here is a free rate-cache fill for any node that later runs it,
    and vice versa.
    """

    def __init__(
        self,
        spec: SystemSpec,
        calibration: Calibration = DEFAULT_CALIBRATION,
        classes: dict | None = None,
        targets: dict | None = None,
        max_concurrency: int = 8,
        solve_memo: dict | None = None,
    ) -> None:
        if not classes:
            raise PlannerError("scorer needs the request-class catalog")
        if max_concurrency < 1:
            raise PlannerError(
                f"max_concurrency must be >= 1: {max_concurrency}"
            )
        self.spec = spec
        self.classes = dict(classes)
        self.targets = dict(targets or {})
        self.max_concurrency = max_concurrency
        self.simulator = WorkloadSimulator(spec, calibration)
        self.solve_memo = solve_memo
        self.solves = 0
        # Same slot sizing as the service: per-slot cores feed the
        # model's contention fixed point.
        self.slot_cores = max(1, round(spec.cores / max_concurrency))
        self._policies = {
            name: scheme.to_cuid_policy(spec)
            for name, scheme in BLUEPRINT_SCHEMES.items()
        }
        # Scoring caches, keyed by value and kept only where the
        # planner's traffic repeats (docs/PLANNING.md): active-class
        # tables, per-(blueprint, table) encodings (a beam tick
        # re-meets its seed family and earlier frontiers), and
        # per-composition service-time rows (rate-independent: the
        # fixed point depends on the composition signature only).
        self._tables: dict[tuple, _ClassTable] = {}
        self._encodings: dict[tuple, tuple] = {}
        self._service_rows: dict[tuple, dict] = {}

    def _mask_for(self, cls, scheme_name: str) -> int:
        policy = self._policies[scheme_name]
        if cls.static_cuid is CacheUsage.POLLUTING:
            return policy.polluting_mask
        if cls.static_cuid is CacheUsage.SENSITIVE:
            return policy.sensitive_mask
        return policy.adaptive_sensitive_mask

    def _specs(self, signature: tuple) -> list[QuerySpec]:
        return [
            QuerySpec(
                name=name,
                profile=self.classes[name].profile,
                cores=count * self.slot_cores,
                mask=mask,
            )
            for name, mask, count in signature
        ]

    def _table_for(self, names: tuple) -> _ClassTable:
        table = self._tables.get(names)
        if table is None:
            table = self._tables[names] = _ClassTable(self, names)
        return table

    def _encode(self, blueprint: Blueprint, table: _ClassTable):
        """Rate-independent encoding of one candidate: per-group home
        sizes and one ``(membership bits, scheme)`` key per node."""
        cache_key = (blueprint.key(), table.names)
        encoding = self._encodings.get(cache_key)
        if encoding is None:
            placement = blueprint.placement_map()
            all_nodes = tuple(range(blueprint.nodes))
            bits = [0] * blueprint.nodes
            sizes = []
            for column, group in enumerate(table.group_names):
                home = placement.get(group) or all_nodes
                sizes.append(float(len(home)))
                bit = 1 << column
                for node in home:
                    bits[node] |= bit
            comp_keys = tuple(
                (bits[node], blueprint.schemes[node])
                for node in range(blueprint.nodes)
            )
            encoding = (tuple(sizes), comp_keys)
            self._encodings[cache_key] = encoding
        return encoding

    def _solve_signatures(
        self, signatures: list[tuple]
    ) -> dict[tuple, dict]:
        """Rates for every signature; missing ones solved in one
        batched call, fanned across the ambient :mod:`repro.parallel`
        pool when it has more than one job."""
        memo = self.solve_memo
        solutions: dict[tuple, dict] = {}
        missing: list[tuple] = []
        for signature in signatures:
            per_class = (
                memo.get(signature) if memo is not None else None
            )
            if per_class is None:
                missing.append(signature)
            else:
                solutions[signature] = per_class
        if not missing:
            return solutions
        context = parallel_executor.current()
        pool = context.pool() if len(missing) > 1 else None
        solved: list[tuple]
        if pool is not None:
            # Contiguous chunks, merged back in submission order: the
            # solves are pure, so job count changes wall time only.
            chunk_count = min(context.jobs, len(missing))
            size = -(-len(missing) // chunk_count)
            futures = [
                pool.submit(_solve_signatures_task, {
                    "spec": self.spec,
                    "calibration": self.simulator.calibration,
                    "entries": [
                        (signature, self._specs(signature))
                        for signature in chunk
                    ],
                })
                for chunk in (
                    missing[start:start + size]
                    for start in range(0, len(missing), size)
                )
            ]
            solved = [
                entry
                for future in futures
                for entry in future.result()
            ]
        else:
            results = self.simulator.simulate_many(
                [self._specs(signature) for signature in missing]
            )
            solved = [
                (signature, _per_class_rates(signature, result))
                for signature, result in zip(missing, results)
            ]
        for signature, per_class in solved:
            solutions[signature] = per_class
            if memo is not None:
                memo[signature] = per_class
            self.solves += 1
        return solutions

    def _population(
        self, table: _ClassTable, blueprints: tuple
    ) -> tuple[list, list]:
        """Rate-independent array encoding of one population: its
        distinct composition keys plus, per node-count partition, the
        candidate indices, per-class home sizes and composition index
        matrix."""
        comp_ids: dict[tuple, int] = {}
        encodings = []
        by_nodes: dict[int, list[int]] = {}
        for index, blueprint in enumerate(blueprints):
            sizes, keys = self._encode(blueprint, table)
            encodings.append((sizes, [
                comp_ids.setdefault(key, len(comp_ids)) for key in keys
            ]))
            by_nodes.setdefault(blueprint.nodes, []).append(index)
        group_col = np.array(table.group_col, dtype=np.intp)
        partitions = [
            (
                indices,
                np.array(
                    [encodings[i][0] for i in indices],
                    dtype=np.float64,
                )[:, group_col],
                np.array(
                    [encodings[i][1] for i in indices], dtype=np.intp
                ),
            )
            for indices in by_nodes.values()
        ]
        return list(comp_ids), partitions

    def _service_rows_for(
        self, table: _ClassTable, comp_keys: list
    ) -> list:
        """Per-composition service-time rows (0.0 for absent classes:
        they contribute exact zeros to the masked accumulations).
        Rows are rate-independent — the fixed point depends on the
        composition signature alone — so they persist across calls;
        only never-seen compositions are solved, in one batched call
        (signature-level dedup: two ``(bits, scheme)`` keys can
        induce the same masks)."""
        rows = self._service_rows.setdefault(table.names, {})
        fresh = [key for key in comp_keys if key not in rows]
        if fresh:
            signatures = {
                key: table.signature(*key) for key in fresh if key[0]
            }
            solutions = self._solve_signatures(
                list(dict.fromkeys(signatures.values()))
            )
            class_count = len(table.names)
            for comp_key in fresh:
                bits = comp_key[0]
                row = np.zeros(class_count)
                if bits:
                    per_class = solutions[signatures[comp_key]]
                    for k, name in enumerate(table.names):
                        if bits >> table.group_col[k] & 1:
                            row[k] = table.work[k] / per_class[name]
                rows[comp_key] = row
        return [rows[key] for key in comp_keys]

    def score_many(self, blueprints, rates: dict) -> BatchScores:
        """Evaluate a whole candidate population in one pass under
        per-class arrival rates (requests/s, fleet-wide).

        Encodes the population as arrays, deduplicates the induced
        per-node compositions, solves only the distinct missing ones
        in one batched simulator call, then scores every candidate
        with elementwise array arithmetic.  A candidate's floats do
        not depend on the rest of the population.
        """
        blueprints = tuple(blueprints)
        names = tuple(
            name for name in sorted(rates) if rates[name] > 1e-12
        )
        count = len(blueprints)
        scores = np.zeros(count)
        objectives = np.zeros(count)
        overloads = np.zeros(count)
        utilization: list = [None] * count
        predicted_rows: list = [None] * count
        if not names:
            # No active classes: every node idles, so every score is
            # zero with empty predictions.
            empty = np.zeros(0)
            for index, blueprint in enumerate(blueprints):
                utilization[index] = np.zeros(blueprint.nodes)
                predicted_rows[index] = empty
            return BatchScores(
                blueprints, scores, objectives, overloads,
                utilization, predicted_rows, (),
            )
        table = self._table_for(names)
        rate_vec = np.array(
            [rates[name] for name in names], dtype=np.float64
        )
        comp_keys, partitions = self._population(table, blueprints)
        service = np.array(self._service_rows_for(table, comp_keys))
        class_count = len(names)
        group_count = len(table.group_names)
        targets = [
            (table.group_index[group], target)
            for group, target in sorted(self.targets.items())
            if group in table.group_index and target > 0
        ]
        # One partition per distinct node count.  Every accumulation
        # is an explicit left fold (classes in sorted-name order,
        # nodes in index order) with exact-zero terms for absent
        # classes, so each row's floats are fixed by its own inputs.
        for indices, sizes_by_class, comps in partitions:
            rows, node_count = comps.shape
            share = rate_vec[np.newaxis, :] / sizes_by_class
            svc = service[comps]
            acc = np.zeros((rows, node_count))
            term = np.empty((rows, node_count))
            for k in range(class_count):
                np.multiply(
                    svc[:, :, k], share[:, k, np.newaxis], out=term
                )
                acc += term
            rho = acc / self.max_concurrency
            excess = np.maximum(0.0, rho - 1.0)
            overload = np.zeros(rows)
            for node in range(node_count):
                overload += excess[:, node]
            slack = 1.0 - np.minimum(rho, RHO_CAP)
            sojourn = svc / slack[:, :, np.newaxis]
            predicted = np.empty((rows, group_count))
            for column in range(group_count):
                members = sojourn[
                    :, :, list(table.group_cols[column])
                ]
                predicted[:, column] = members.max(axis=(1, 2))
            objective = np.zeros(rows)
            for column, target in targets:
                np.maximum(
                    objective,
                    predicted[:, column] / target,
                    out=objective,
                )
            score = objective + OVERLOAD_WEIGHT * overload
            scores[indices] = score
            objectives[indices] = objective
            overloads[indices] = overload
            for position, index in enumerate(indices):
                utilization[index] = rho[position]
                predicted_rows[index] = predicted[position]
        return BatchScores(
            blueprints, scores, objectives, overloads,
            utilization, predicted_rows, table.group_names,
        )
