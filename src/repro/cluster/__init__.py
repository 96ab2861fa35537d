"""Sharded multi-node service fleet over the paper's cache model.

Scale-out composition of :mod:`repro.serve`: N independent simulated
nodes — each a full query service with its own discrete-event clock,
admission layer, and adaptive CAT controller — behind a deterministic
routing layer (consistent hashing, least-loaded, or cache-affinity
placement), with seeded fault injection and fleet-wide SLO reporting.
"""

from .epoch import count_epochs
from .faults import (
    FaultEvent,
    FaultSpec,
    expand_schedule,
    seeded_faults,
    validate_schedule,
)
from .fleet import (
    CLUSTER_MIXES,
    CLUSTER_POLICIES,
    CLUSTER_PROFILES,
    FLEET_REPORT_VERSION,
    Cluster,
    ClusterConfig,
    ClusterReport,
)
from .node import ClusterNode
from .ring import DEFAULT_VIRTUAL_NODES, HashRing
from .router import (
    ROUTERS,
    AffinityRouter,
    HashRouter,
    LeastLoadedRouter,
    PlannedRouter,
    RouteDecision,
    Router,
    make_router,
)
from .workload import (
    BATCH_TENANT,
    cluster_classes,
    cluster_olap_mix,
    cluster_oltp_mix,
    tenant_id,
)

__all__ = [
    "AffinityRouter",
    "BATCH_TENANT",
    "CLUSTER_MIXES",
    "CLUSTER_POLICIES",
    "CLUSTER_PROFILES",
    "Cluster",
    "ClusterConfig",
    "ClusterNode",
    "ClusterReport",
    "DEFAULT_VIRTUAL_NODES",
    "FLEET_REPORT_VERSION",
    "FaultEvent",
    "FaultSpec",
    "HashRing",
    "HashRouter",
    "LeastLoadedRouter",
    "PlannedRouter",
    "ROUTERS",
    "RouteDecision",
    "Router",
    "cluster_classes",
    "cluster_olap_mix",
    "cluster_oltp_mix",
    "count_epochs",
    "expand_schedule",
    "make_router",
    "seeded_faults",
    "tenant_id",
    "validate_schedule",
]
