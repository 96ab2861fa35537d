"""Golden pins for the analytic model: SHA-256s of ``QueryResult.to_dict()``
for a corpus of CAT-masked compositions built from the paper's
micro-benchmark and S/4HANA profiles.

The corpus covers every branch of the multi-segment occupancy solve:
two- and three-segment masks, idle regions (zero LLC coefficient), a
greedy placement that drives a weight to zero, a segment whose actors
all fit (``t_char = inf``), a streams-only segment, the overflow branch
of the re-placement, and SMT oversubscription.  Any change to the
solve's arithmetic or its order of float operations moves a pin.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import SystemSpec
from repro.model.simulator import QuerySpec, WorkloadSimulator
from repro.obs import observing
from repro.workloads.microbench import query1, query2, query3
from repro.workloads.s4hana import oltp_query_6_columns, oltp_query_n_columns

FULL = (1 << 20) - 1


def _profiles() -> dict:
    return {
        "scan": query1().profile(),
        # 400 B dictionary and 36.8 kB per-worker hash table: both fit
        # in L2, so their LLC coefficient is zero (idle regions).
        "agg_small": query2(10**2, 10**2).profile(22),
        "agg": query2(10**6, 10**5).profile(22),
        "join": query3(10**8).profile(22),
        "join_small": query3(10**6).profile(22),
        "oltp6": oltp_query_6_columns().profile(),
        "oltp2": oltp_query_n_columns(2).profile(),
    }


#: case -> [(query name, profile key, cores, mask)]
CASES = {
    # 2 segments: a 2-way segment shared by scan and aggregation, an
    # 18-way one exclusive to aggregation.  44 cores on a 22-core
    # socket (SMT); the intermediates fit the clean segment, so the
    # re-placement drives their shared-segment weight to zero.
    "scan-agg-2seg": [
        ("scan", "scan", 22, 0x3),
        ("agg", "agg", 22, FULL),
    ],
    # 2 segments with idle regions on the multi-segment path.
    "scan-agg-idle": [
        ("scan", "scan", 22, 0x3),
        ("agg", "agg_small", 22, FULL),
    ],
    # 3 segments: {agg} ways 0-3, {agg, join} 4-7, {join} 8-15.
    "agg-join-3seg": [
        ("agg", "agg", 11, 0x000FF),
        ("join", "join", 11, 0x0FFF0),
    ],
    # 3 segments, one with three members: {scan, agg, oltp} ways 0-1,
    # {agg, oltp} 2-3, {oltp} 4-19; the OLTP working set fits its
    # exclusive ways (t_char = inf there).
    "scan-agg-oltp-3seg": [
        ("scan", "scan", 16, 0x3),
        ("agg", "agg", 16, 0xF),
        ("oltp", "oltp6", 2, FULL),
    ],
    # OLTP alone in 18 exclusive ways fits entirely (t_char = inf).
    "scan-oltp-fits": [
        ("scan", "scan", 20, 0x3),
        ("oltp", "oltp2", 2, FULL),
    ],
    # The scan's exclusive 2 ways hold streams only (no regions).
    "scan-exclusive-streams": [
        ("scan", "scan", 22, 0x3),
        ("join", "join_small", 22, 0xFFFFC),
    ],
    # The aggregation's 36.8 MB hash table outgrows its 6 ways, so the
    # greedy fill leaves a remainder (the overflow branch).
    "agg-overflow": [
        ("agg", "agg", 11, 0x3F),
        ("join", "join", 11, 0x7),
    ],
    # Three queries over four segments, SMT-oversubscribed.
    "four-seg-smt": [
        ("scan", "scan", 22, 0x3),
        ("agg", "agg", 12, 0x3FF),
        ("join", "join", 12, 0xFFF00),
    ],
    # One segment (the uniform-mask path) for reference.
    "single-segment": [
        ("scan", "scan", 11, FULL),
        ("agg", "agg", 11, FULL),
    ],
}

GOLDEN = {
    "scan-agg-2seg":
        "df7e7604b5311be6d0151350b8a7017824739b30d8af97d547ac511bec471cd3",
    "scan-agg-idle":
        "f94c9fe73808ee413a634de41b7e8cecaf74c7e72d41f932e0a8f68ec5cf35f8",
    "agg-join-3seg":
        "2c9a47999c34267bffc8e2b79f147e5b67ca76e17db243fc7c56bb893ffedd06",
    "scan-agg-oltp-3seg":
        "b1225f561779632933810bb4ccc25fbdad40c14d58c269ad4633c6a6ce9d67b1",
    "scan-oltp-fits":
        "0e09852a07924cba224b54e5b21f9b1b429c73e203d79e887df6d39596ad8697",
    "scan-exclusive-streams":
        "0f8dbbb4db07174f2f552e88780610b3e3ac48875d2054a5fa29494b4d52a818",
    "agg-overflow":
        "2e2ee70f306ca8ad1dcb1ca32e225b5fb0d71e46d5d61b9d2256d9cae5171420",
    "four-seg-smt":
        "3f030a997332e04f08bd3f52b8b94c1f110a31bfcd27247decdfc00cbbf32f0b",
    "single-segment":
        "b2acaafe2b5912af468aa30963170c56b05397ddca1e7da1454721f09307b11f",
}


def compositions() -> dict[str, list[QuerySpec]]:
    """The corpus as ``QuerySpec`` lists, one per case."""
    profiles = _profiles()
    return {
        case: [
            QuerySpec(name, profiles[key].with_name(name), cores, mask)
            for name, key, cores, mask in rows
        ]
        for case, rows in CASES.items()
    }


def digest(results: dict) -> str:
    """SHA-256 of the results' JSON, dict order included (reports
    serialise in insertion order, so order is part of their bytes)."""
    payload = json.dumps([result.to_dict() for result in results.values()])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_model_golden(case):
    queries = compositions()[case]
    assert digest(WorkloadSimulator(SystemSpec()).simulate(queries)) == (
        GOLDEN[case]
    )


def test_simulate_many_matches_simulate():
    corpus = list(compositions().values())
    simulator = WorkloadSimulator(SystemSpec())
    batched = simulator.simulate_many(corpus)
    assert [digest(r) for r in batched] == [
        digest(simulator.simulate(queries)) for queries in corpus
    ]


def test_unmoved_placement_reuses_segment_solves():
    """Disjoint masks: every region reaches exactly one segment, so the
    re-placement moves nothing and each segment is solved once per
    fixed-point round — the repeated placement rounds reuse it."""
    queries = compositions()["scan-exclusive-streams"]
    with observing() as (_, metrics):
        WorkloadSimulator(SystemSpec()).simulate(queries)
    rounds = metrics.counter("simulator.fixed_point_rounds").value
    assert rounds > 1
    assert metrics.counter("che.solves").value == rounds * 2
