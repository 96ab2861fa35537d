"""Tests for the one version rule (repro.schema) and the config
round trip replay rebuilds runs with (ServiceConfig.from_dict)."""

import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.errors import (
    ClusterError,
    ObservabilityError,
    PlannerError,
    ServeError,
)
from repro.schema import (
    FLEET_REPORT_VERSION,
    REPORT_VERSION,
    check_version,
    load_report,
)
from repro.serve import ServiceConfig
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


class TestFromDict:
    def test_an_int_counts_as_a_float(self):
        config = ServiceConfig.from_dict({**_config().to_dict(),
                                          "duration_s": 4})
        assert config.duration_s == 4

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

    def test_rejects_a_non_object(self):
        with pytest.raises(ServeError, match="JSON object"):
            ServiceConfig.from_dict([1, 2])


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
