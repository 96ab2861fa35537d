"""Tests for the one version rule (repro.schema) and the one config
contract: the finite-value rule and the exact ``to_dict``/``from_dict``
round trip every config and spec shares."""

import dataclasses
import json
import math
import typing

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CLUSTER_MIXES,
    CLUSTER_POLICIES,
    CLUSTER_PROFILES,
    ClusterConfig,
    FaultSpec,
)
from repro.defense import (
    ATTACK_PROFILES,
    DEFENSE_MODES,
    AttackSpec,
    DefenseConfig,
)
from repro.errors import (
    ClusterError,
    DefenseError,
    ObservabilityError,
    PlannerError,
    ServeError,
)
from repro.planner import FORECASTERS, SEARCH_STRATEGIES, PlannerConfig
from repro.schema import (
    FLEET_REPORT_VERSION,
    REPORT_VERSION,
    check_version,
    load_report,
)
from repro.serve import ServiceConfig
from repro.serve.arrivals import SampleGrid
from repro.serve.service import MIXES, POLICIES, PROFILES


@pytest.mark.parametrize("error", [ServeError, ObservabilityError])
@pytest.mark.parametrize("payload, match", [
    ({}, "no 'v' key"),
    ({"v": "3"}, "invalid v"),
    ({"v": 3.0}, "invalid v"),
    ({"v": True}, "invalid v"),
    ({"v": None}, "invalid v"),
    ({"v": 0}, "invalid v"),
    ({"v": -3}, "invalid v"),
    ({"v": 4}, "v 4 is newer"),
    ({"v": 2}, "v 2 predates.*re-record"),
])
def test_check_version_rejects(payload, match, error):
    with pytest.raises(error, match=match):
        check_version(payload, "v", 3, error)


def test_check_version_accepts_the_current_version():
    assert check_version({"v": 3}, "v", 3, ServeError) == 3


class TestLoadReport:
    def test_reads_a_path_once_and_passes_a_dict_through(self, tmp_path):
        payload = {"report_version": REPORT_VERSION, "x": [1]}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        assert load_report(path, ServeError) == payload
        assert load_report(str(path), ServeError) == payload
        assert load_report(payload, ServeError) is payload

    def test_fleet_kind_from_its_version_key(self):
        fleet = {"fleet_report_version": FLEET_REPORT_VERSION}
        assert load_report(fleet, ClusterError) is fleet
        with pytest.raises(ClusterError, match="fleet_report_version"):
            load_report({"fleet_report_version": REPORT_VERSION},
                        ClusterError)

    @pytest.mark.parametrize("text, match", [
        (None, "cannot read"),
        ("{not json", "not valid JSON"),
        ('{"report_version": 4', "not valid JSON"),
        (b"\xff\xfe{}", "not valid JSON"),
        ("[1, 2]", "JSON object, not list"),
        ('{"hello": 1}', "not a service report"),
    ])
    def test_rejects_unreadable_input(self, tmp_path, text, match):
        path = tmp_path / "report.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        with pytest.raises(PlannerError, match=match):
            load_report(path, PlannerError)


def _config(**overrides) -> ServiceConfig:
    return ServiceConfig(**{
        "profile": "poisson", "policy": "none", "duration_s": 4.0,
        "rate_per_s": 8.0, "seed": 7, **overrides,
    })


#: Every config class -> (minimal constructor arguments, its error).
CONFIGS = {
    ServiceConfig: ({}, ServeError),
    ClusterConfig: ({}, ClusterError),
    PlannerConfig: ({}, PlannerError),
    DefenseConfig: ({}, DefenseError),
    SampleGrid: ({"window_s": 1.0}, ServeError),
    AttackSpec: ({"profile": "thrash"}, DefenseError),
    FaultSpec: ({"node": 0, "kill_at_s": 1.0}, ClusterError),
}


def _float_fields(cls) -> list[str]:
    """Fields declared ``float`` or ``float | None``."""
    hints = typing.get_type_hints(cls)
    return [
        f.name for f in dataclasses.fields(cls)
        if float in (hints[f.name], *typing.get_args(hints[f.name]))
    ]


NON_FINITE = [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value}")
    for cls in CONFIGS
    for name in _float_fields(cls)
    for value in (math.nan, math.inf, -math.inf)
]


class TestConfigValidation:
    @pytest.mark.parametrize("build, error", [
        (ServiceConfig, ServeError), (ClusterConfig, ClusterError),
    ])
    @pytest.mark.parametrize("overrides", [
        dict(max_concurrency=0),
        dict(max_concurrency=-2),
        dict(duration_s=math.nan),
        dict(duration_s=math.inf),
        dict(rate_per_s=0.0),
        dict(rate_per_s=math.nan),
        dict(olap_p99_s=math.nan),
        dict(sample_window_s=math.inf),
    ])
    def test_rejects_bad_scalars(self, build, error, overrides):
        with pytest.raises(error):
            build(**overrides)

    @pytest.mark.parametrize("cls, name, value", NON_FINITE)
    def test_rejects_non_finite_floats(self, cls, name, value):
        kwargs, error = CONFIGS[cls]
        with pytest.raises(error, match=f"{name} must be finite"):
            cls(**{**kwargs, name: value})

    def test_every_float_knob_is_covered(self):
        # The fleet's planner and defense knobs, not just the shared
        # service scalars.
        covered = {(cls, name) for cls, name, _ in (
            p.values for p in NON_FINITE
        )}
        for name in ("plan_interval_s", "plan_horizon_s",
                     "plan_downtime_s", "plan_period_s", "plan_margin",
                     "defense_interval_s", "defense_bandwidth_share",
                     "defense_occupancy_share", "defense_duty_threshold"):
            assert (ClusterConfig, name) in covered
        # Service 8, fleet 17, planner 6, defense 4, sampling 2,
        # attack 3, fault 2.
        assert len(covered) == 42


#: Every config with a ``from_dict`` -> (a sample, its error).  The
#: floats are thirds: a rounded serialization would not round-trip.
LOADABLE = {
    ServiceConfig: (_config(duration_s=10 / 3, shift_at_s=1 / 3),
                    ServeError),
    ClusterConfig: (ClusterConfig(
        nodes=3, duration_s=10 / 3,
        faults=(FaultSpec(1, 1 / 3, 2 / 3), FaultSpec(2, 0.5)),
        attacks=(AttackSpec("probe", start_s=1 / 3, stop_s=2 / 3),),
        plan_training=((("scan", 2), ("agg", 0)), ()),
    ), ClusterError),
    DefenseConfig: (DefenseConfig(mode="jail", interval_s=1 / 3),
                    DefenseError),
    AttackSpec: (AttackSpec("thrash", start_s=1 / 3, rate_per_s=40 / 3),
                 DefenseError),
    FaultSpec: (FaultSpec(2, 1 / 3), ClusterError),
}


def _field_keys(config) -> list[str]:
    return [f.name for f in dataclasses.fields(config)]


over_loaders = pytest.mark.parametrize(
    "cls", list(LOADABLE), ids=lambda cls: cls.__name__
)


class TestFromDict:
    @over_loaders
    def test_an_int_counts_as_a_float(self, cls):
        name = _float_fields(cls)[0]
        config = cls.from_dict({**LOADABLE[cls][0].to_dict(), name: 1})
        assert getattr(config, name) == 1

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.pop("seed"), r"missing keys \['seed'\]"),
        (lambda d: d.update(bogus=1), r"unknown keys \['bogus'\]"),
        (lambda d: d.update(duration_s="x"), "duration_s must be float"),
        (lambda d: d.update(seed=7.0), "seed must be int"),
        (lambda d: d.update(seed=True), "seed must be int"),
        (lambda d: d.update(rate_per_s=None), "rate_per_s must be"),
        (lambda d: d.update(mix=3), "mix must be str"),
    ])
    def test_rejects_malformed_blocks(self, mutate, match):
        payload = _config().to_dict()
        mutate(payload)
        with pytest.raises(ServeError, match=match):
            ServiceConfig.from_dict(payload)

    @over_loaders
    def test_rejects_a_non_object(self, cls):
        with pytest.raises(LOADABLE[cls][1], match="JSON object"):
            cls.from_dict([1, 2])

    @over_loaders
    def test_round_trips_exactly_through_json(self, cls):
        config = LOADABLE[cls][0]
        payload = json.loads(json.dumps(config.to_dict()))
        rebuilt = cls.from_dict(payload)
        assert rebuilt == config
        assert rebuilt.to_dict() == payload

    @over_loaders
    def test_rejects_missing_and_unknown_keys(self, cls):
        config, error = LOADABLE[cls]
        for key in _field_keys(config):
            payload = config.to_dict()
            del payload[key]
            with pytest.raises(error, match=rf"missing keys \['{key}'\]"):
                cls.from_dict(payload)
        with pytest.raises(error, match=r"unknown keys \['bogus'\]"):
            cls.from_dict({**config.to_dict(), "bogus": 1})

    @over_loaders
    def test_a_bool_is_no_field_value(self, cls):
        config, error = LOADABLE[cls]
        for key in _field_keys(config):
            with pytest.raises(error, match=f"{key}.* must be"):
                cls.from_dict({**config.to_dict(), key: True})

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d["faults"][0].pop("node"), r"faults\[0\].*missing"),
        (lambda d: d["attacks"][0].pop("schema_version"),
         r"attacks\[0\].*schema_version"),
        (lambda d: d["plan_training"][0][0].append(1),
         r"plan_training\[0\]\[0\] must be a list"),
        (lambda d: d["plan_training"][0][0].__setitem__(1, 2.0),
         r"plan_training\[0\]\[0\]\[1\] must be int"),
        (lambda d: d.update(faults={}), "faults must be a list"),
    ])
    def test_nested_specs_load_through_their_own_loader(
        self, mutate, match
    ):
        payload = json.loads(json.dumps(LOADABLE[ClusterConfig][0].to_dict()))
        mutate(payload)
        with pytest.raises(ClusterError, match=match):
            ClusterConfig.from_dict(payload)


_finite = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def _service_configs(draw):
    duration = draw(_finite)
    fields = dict(
        profile=draw(st.sampled_from(PROFILES)),
        policy=draw(st.sampled_from(POLICIES)),
        mix=draw(st.sampled_from(MIXES)),
        duration_s=duration,
        rate_per_s=draw(_finite),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
        max_concurrency=draw(st.integers(min_value=1, max_value=64)),
        queue_depth=draw(st.integers(min_value=0, max_value=256)),
        control_interval_s=draw(_finite),
        shift_at_s=draw(st.none() | st.floats(
            min_value=0.0, max_value=duration, exclude_min=True,
            exclude_max=True,
        )),
        olap_p99_s=draw(_finite),
        oltp_p99_s=draw(_finite),
        sample_window_s=draw(st.none() | _finite),
        sample_period=draw(st.integers(min_value=1, max_value=16)),
        sample_warmup=draw(st.floats(
            min_value=0.0, max_value=1.0, exclude_max=True,
        )),
    )
    try:
        return ServiceConfig(**fields)
    except ServeError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(_service_configs())
def test_from_dict_inverts_to_dict_through_json(config):
    payload = json.loads(json.dumps(config.to_dict()))
    assert ServiceConfig.from_dict(payload) == config


_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@st.composite
def _cluster_configs(draw):
    nodes = draw(st.integers(min_value=1, max_value=6))
    duration = draw(_finite)
    router, policy = draw(st.sampled_from(
        [("planned", "planned")] + [
            (router, policy)
            for router in ("hash", "least-loaded", "affinity")
            for policy in CLUSTER_POLICIES if policy != "planned"
        ]
    ))
    moment = st.floats(min_value=0.0, max_value=duration, exclude_max=True)
    faults = []
    for node in draw(st.sets(st.integers(0, nodes - 1), max_size=3)):
        kill = draw(moment)
        outage = draw(st.none() | _finite)
        faults.append(FaultSpec(
            node, kill, None if outage is None else kill + outage,
        ))
    attacks = []
    for profile in draw(st.lists(st.sampled_from(ATTACK_PROFILES),
                                 max_size=3)):
        start = draw(moment)
        length = draw(st.none() | _finite)
        attacks.append(AttackSpec(
            profile, start, None if length is None else start + length,
            draw(_finite),
        ))
    window = st.lists(st.tuples(
        st.text(max_size=6), st.integers(min_value=0, max_value=10**6),
    ), max_size=4).map(tuple)
    fields = dict(
        nodes=nodes, router=router, policy=policy,
        profile=draw(st.sampled_from(CLUSTER_PROFILES)),
        mix=draw(st.sampled_from(CLUSTER_MIXES)),
        duration_s=duration,
        rate_per_s=draw(_finite),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
        max_concurrency=draw(st.integers(min_value=1, max_value=64)),
        queue_depth=draw(st.integers(min_value=0, max_value=256)),
        control_interval_s=draw(_finite),
        olap_p99_s=draw(_finite),
        oltp_p99_s=draw(_finite),
        tenants_per_group=draw(st.integers(min_value=1, max_value=16)),
        virtual_nodes=draw(st.integers(min_value=1, max_value=256)),
        faults=tuple(faults),
        sample_window_s=draw(st.none() | _finite),
        sample_period=draw(st.integers(min_value=1, max_value=16)),
        sample_warmup=draw(st.floats(
            min_value=0.0, max_value=1.0, exclude_max=True,
        )),
        shift_at_s=draw(st.none() | st.floats(
            min_value=0.0, max_value=duration, exclude_min=True,
            exclude_max=True,
        )),
        plan_interval_s=draw(_finite),
        plan_horizon_s=draw(_finite),
        plan_downtime_s=draw(_finite),
        plan_forecaster=draw(st.sampled_from(FORECASTERS)),
        plan_period_s=draw(st.none() | _finite),
        plan_margin=draw(_finite),
        plan_search=draw(st.sampled_from(SEARCH_STRATEGIES)),
        plan_beam_width=draw(st.integers(min_value=1, max_value=32)),
        plan_search_steps=draw(st.integers(min_value=1, max_value=8)),
        plan_search_candidates=draw(
            st.integers(min_value=1, max_value=5000)
        ),
        plan_training=draw(st.lists(window, max_size=3).map(tuple)),
        attacks=tuple(attacks),
        defense=draw(st.sampled_from(DEFENSE_MODES)),
        defense_interval_s=draw(_finite),
        defense_convict_windows=draw(st.integers(min_value=1, max_value=8)),
        defense_release_windows=draw(st.integers(min_value=1, max_value=8)),
        defense_bandwidth_share=draw(_unit),
        defense_occupancy_share=draw(_unit),
        defense_duty_threshold=draw(_finite),
    )
    try:
        return ClusterConfig(**fields)
    except ClusterError:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(_cluster_configs())
def test_cluster_from_dict_inverts_to_dict_through_json(config):
    payload = json.loads(json.dumps(config.to_dict()))
    assert ClusterConfig.from_dict(payload) == config
