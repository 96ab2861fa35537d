"""Golden pins: SHA-256s of service and fleet reports minus their event
bookkeeping (``events``, ``end_time_s``, ``completed_per_s``, and the
``downtime_s``/``jail_seconds`` terms closed at the drain horizon).  The
rest is simulated results, which the event loop's mechanics must not
move.  Also checks the event economy of the pinned runs."""

import functools
import hashlib
import json

import pytest

from repro.cluster import Cluster, ClusterConfig, seeded_faults
from repro.defense import AttackSpec
from repro.errors import ClusterError, ServeError
from repro.schema import load_report
from repro.serve import QueryService, ServiceConfig, load_trace

SERVICE_BASE = dict(
    profile="poisson", policy="none", mix="olap",
    duration_s=6.0, rate_per_s=12.0, seed=7,
)
SAMPLED = dict(
    duration_s=12.0, rate_per_s=20.0, sample_window_s=1.0, sample_period=3,
)
SERVICE_CASES = {
    **{
        f"{policy}-{profile}": dict(policy=policy, profile=profile)
        for policy in ("none", "static", "adaptive")
        for profile in ("poisson", "bursty", "diurnal")
    },
    "shift": dict(policy="adaptive", mix="shift", duration_s=8.0),
    "sampled": dict(SAMPLED, sample_warmup=0.5),
    "sampled-no-warmup": dict(SAMPLED, sample_warmup=0.0),
}

FLEET_BASE = dict(
    nodes=4, profile="poisson", policy="none", mix="olap",
    duration_s=6.0, rate_per_s=10.0, seed=7,
)
HASH_FAULTS = dict(
    router="hash", policy="static", faults=seeded_faults(4, 2, 6.0, 11),
)
#: case -> (config overrides, fleet_jobs)
FLEET_CASES = {
    "affinity-faults": (dict(
        router="affinity", policy="adaptive",
        faults=seeded_faults(4, 2, 6.0, 7),
    ), 1),
    "hash-faults-jobs1": (HASH_FAULTS, 1),
    "hash-faults-jobs4": (HASH_FAULTS, 4),
    "planned-beam": (dict(
        nodes=3, router="planned", policy="planned", plan_search="beam",
        profile="diurnal", mix="shift", duration_s=5.0, rate_per_s=16.0,
    ), 1),
    "planned-enum": (dict(
        nodes=3, router="planned", policy="planned", plan_search="enum",
        profile="diurnal", mix="shift", duration_s=5.0, rate_per_s=16.0,
    ), 1),
    "thrash-jail": (dict(
        nodes=2, router="hash", rate_per_s=6.0, defense="jail",
        attacks=(AttackSpec("thrash", start_s=1.0, rate_per_s=20.0),),
    ), 1),
    "thrash-evict": (dict(
        nodes=2, router="hash", rate_per_s=6.0, defense="evict",
        attacks=(AttackSpec("thrash", start_s=1.0, rate_per_s=20.0),),
    ), 1),
    # The attack starts inside a skipped window: its stream's first
    # pull jumps the sample grid.
    "sampled-attack": (dict(
        nodes=2, router="hash", duration_s=12.0, rate_per_s=8.0,
        sample_window_s=1.0, sample_period=3, defense="jail",
        attacks=(AttackSpec("thrash", start_s=1.0, rate_per_s=20.0),),
    ), 1),
    "least-loaded-faults": (dict(
        router="least-loaded", policy="static",
        faults=seeded_faults(4, 2, 6.0, 5),
    ), 1),
}

GOLDEN = {
    "none-poisson":
        "aa057325188ab86a7b98e4549e4c7eb92ae2e970ec86a2567ff6d148a1b0a2df",
    "none-bursty":
        "3f319b40c11cf005df12dc11a9a3df7c2a9f798a0985c2b180e263c7d7b076da",
    "none-diurnal":
        "9b9ce2f3ad50c188562a819bb6f85ac67165472ec1bd377929ec8d2dd29bc8a4",
    "static-poisson":
        "259df0e89e22c57774e189d9d53a7ab450d2c41cfc431f8b03f123f3c9ae1708",
    "static-bursty":
        "03ab3fafb4dd8c271fbf3cca572da5d128c3fd46f113f2fcf31ec224f92572af",
    "static-diurnal":
        "bb2c9d0b0f165ff7a72918ef571188877ffef2f41f925672dae2b0b7a8d69550",
    "adaptive-poisson":
        "affaa84d8d53e5fc879ab7b81cd38e12802eacd0f4e58485c9e1ff77431a2a7e",
    "adaptive-bursty":
        "40aaae3a08f8b6d1b755112d3c1c0ba5c27dfb821566c9c810fa64df98cefd09",
    "adaptive-diurnal":
        "198cc5a9d0f9aff5e87ac97c7dba791feb81c9606d0370149d26964df8a89f10",
    "shift":
        "35e878adeb9345d48445cd2969a5dd77259d2f99be8cac9e8aeaf631f8287f5e",
    "sampled":
        "83bea62b0f15866ef103b4e28d6a81b68f9ded9d6f55294dd06b6143ae727291",
    "sampled-no-warmup":
        "c9fe663a50f776542b6c0eb9de5b811731bff5f5e98b2d50768dd9ccd352f968",
    "replay":
        "1e1fc7d733dd7ea1db407da9b7ecc01460ccea856ea05b1a2d0988aa83b90251",
    "affinity-faults":
        "70493449b71587edc71117d7c019a6c62106f510a17b61a68523fa13cebf8b53",
    "hash-faults-jobs1":
        "2f0fa08ad08bb2999feef071a78742a966006cb141b9d4dc9c8f33179d2d1d7d",
    "hash-faults-jobs4":
        "2f0fa08ad08bb2999feef071a78742a966006cb141b9d4dc9c8f33179d2d1d7d",
    "planned-beam":
        "5143b390fd9665fd04feaea257d46ac1f2bdd1ac7853edf920fab7fc74b1575d",
    "planned-enum":
        "2e9450ae0279849f1302ffc7be455dd02504c91a7b3699bc8d40fb441af72cbf",
    "thrash-jail":
        "064111154ca57618bcb15a75085175d5874cc0e790c9c57c5f45c369c138765f",
    "thrash-evict":
        "dda65015424b8f853bf386d9fa4a530685f81aa34ac6483516ea058a077a4ea9",
    "sampled-attack":
        "7e9710961072e2ad6c0a43e0464bc26af4063f401037dd830c68bf7827071c43",
    "least-loaded-faults":
        "c22ae6a97f173167c1529c5313ef35334d56d12b1509bde154fbd6d5a3cd4423",
}


def _strip(report: dict) -> dict:
    """The report without its event bookkeeping (fleets: per node)."""
    kept = {
        key: value for key, value in report.items()
        if key not in ("events", "end_time_s", "completed_per_s")
    }
    if isinstance(kept.get("nodes"), list):
        kept["nodes"] = [
            {**{k: v for k, v in node.items() if k != "downtime_s"},
             "report": _strip(node["report"])}
            for node in kept["nodes"]
        ]
        kept["defense"] = {
            k: v for k, v in kept["defense"].items() if k != "jail_seconds"
        }
    return kept


def _digest(report) -> str:
    canonical = json.dumps(_strip(report.to_dict()), indent=2, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@functools.cache
def _service_run(case: str):
    service = QueryService(
        ServiceConfig(**{**SERVICE_BASE, **SERVICE_CASES[case]})
    )
    return service, service.run()


@pytest.mark.parametrize("case", SERVICE_CASES)
def test_service_golden(case):
    assert _digest(_service_run(case)[1]) == GOLDEN[case]


def test_replay_golden(tmp_path):
    recorded = _service_run("none-poisson")[1]
    path = recorded.write(tmp_path / "trace.json")
    replayed = QueryService(
        ServiceConfig(**{**SERVICE_BASE, "profile": "replay",
                         "policy": "static"}),
        arrivals=load_trace(path)[1],
    ).run()
    assert replayed.to_dict()["arrivals"] == recorded.to_dict()["arrivals"]
    assert _digest(replayed) == GOLDEN["replay"]


@functools.cache
def _fleet_run(case: str):
    overrides, fleet_jobs = FLEET_CASES[case]
    return Cluster(ClusterConfig(**{**FLEET_BASE, **overrides})).run(
        fleet_jobs=fleet_jobs
    )


@pytest.mark.parametrize("case", [*SERVICE_CASES, *FLEET_CASES])
def test_report_reruns_itself(case, tmp_path):
    # Determinism from the report alone: rebuild the config from the
    # written report's config block, run it again (a fleet at its
    # case's fleet_jobs), compare the bytes.
    if case in SERVICE_CASES:
        report = _service_run(case)[1]
        payload = load_report(report.write(tmp_path / "run.json"), ServeError)
        rerun = QueryService(ServiceConfig.from_dict(payload["config"])).run()
    else:
        report = _fleet_run(case)
        payload = load_report(
            report.write(tmp_path / "run.json"), ClusterError
        )
        rerun = Cluster(ClusterConfig.from_dict(payload["config"])).run(
            fleet_jobs=FLEET_CASES[case][1]
        )
    assert rerun.to_json() == report.to_json()


@pytest.mark.parametrize("case", FLEET_CASES)
def test_fleet_golden(case):
    assert _digest(_fleet_run(case)) == GOLDEN[case]


@pytest.mark.parametrize("case", SERVICE_CASES)
def test_event_economy(case):
    # Every push is an arrival, a controller tick, or the one
    # completion a reflow schedules; reflows follow admissions,
    # completions and mask changes (at most one per tick).
    service, report = _service_run(case)
    ticks = report.controller.get("ticks", 0)
    assert report.events["pushed"] <= (
        report.arrived + report.admitted + report.completed + ticks + 1
    )
    latest = max(
        request.completed_s for request in service._requests.values()
        if request.completed_s is not None
    )
    if latest > service.config.duration_s:
        # Past the arrival horizon only completions are live, so the
        # run ends at the last one; superseded events do not move time.
        assert report.end_time_s == latest
