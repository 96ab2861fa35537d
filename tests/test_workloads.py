"""Tests for the workload catalogs (micro-bench, TPC-H, S/4HANA)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.storage.datagen import DataGenerator
from repro.units import MiB
from repro.workloads.microbench import (
    DICT_40_MIB,
    GROUP_SIZES,
    PRIMARY_KEY_SIZES,
    query1,
    query2,
    query3,
)
from repro.workloads.s4hana import (
    ACDOCA_ROWS,
    acdoca_catalog,
    build_functional_acdoca,
    oltp_query_13_columns,
    oltp_query_6_columns,
    oltp_query_n_columns,
)
from repro.workloads.tpch import (
    LINEITEM_ROWS,
    all_queries,
    tpch_query,
)


class TestMicrobenchConfigs:
    def test_query1_profile(self):
        profile = query1().profile()
        assert profile.tuples == 1e9
        assert profile.stream_bytes_per_tuple == pytest.approx(2.5,
                                                               rel=0.01)

    def test_query2_dictionary_sizes(self):
        for distinct, expected_mib in ((10**6, 4), (10**7, 40),
                                       (10**8, 400)):
            profile = query2(distinct, 1000).profile(workers=22)
            assert profile.region("dictionary").total_bytes == (
                pytest.approx(expected_mib * MiB, rel=0.1)
            )

    def test_query3_bit_vector_sizes(self):
        assert query3(10**8).bit_vector_bytes() == 12_500_000

    def test_paper_sweep_constants(self):
        assert GROUP_SIZES == (100, 1000, 10000, 100000, 1000000)
        assert PRIMARY_KEY_SIZES == (10**6, 10**7, 10**8, 10**9)

    def test_functional_generation(self):
        generator = DataGenerator(1)
        data = query1().generate(generator, scale_rows=1000)
        assert len(data["X"]) == 1000
        values, groups = query3(10**6).generate(generator, 100, 500)
        assert len(values) == 100 and len(groups) == 500

    def test_generation_validation(self):
        with pytest.raises(WorkloadError):
            query1().generate(DataGenerator(1), 0)


class TestTpchCatalog:
    def test_all_22_queries_present(self):
        numbers = [query.number for query in all_queries()]
        assert numbers == list(range(1, 23))

    def test_lookup(self):
        assert tpch_query(7).number == 7
        with pytest.raises(WorkloadError):
            tpch_query(23)

    def test_q1_uses_extendedprice_dictionary(self):
        # Paper Sec. VI-D: L_EXTENDEDPRICE ~29 MiB dictionary.
        profile = tpch_query(1).profile(workers=22)
        price = profile.region("dict_l_extendedprice")
        assert price.total_bytes == 29 * MiB

    def test_sensitive_queries_decode_prices_heavily(self):
        """Q1/Q7/Q8/Q9 must probe the price dictionary at far higher
        rates than the other price-touching queries — the property
        behind Fig. 11's winners."""
        heavy = {1, 7, 8, 9}
        rates = {}
        for query in all_queries():
            for access in query.dict_accesses:
                if access.name == "dict_l_extendedprice":
                    rates[query.number] = access.accesses_per_tuple
        heavy_min = min(rates[n] for n in heavy)
        light_max = max(
            (rate for number, rate in rates.items()
             if number not in heavy),
            default=0.0,
        )
        assert heavy_min > 3 * light_max

    def test_profiles_build_for_all_queries(self):
        for query in all_queries():
            profile = query.profile(workers=22)
            assert profile.tuples > 0
            assert profile.streams

    def test_lineitem_scale(self):
        assert LINEITEM_ROWS == 600_000_000  # SF 100

    def test_validation(self):
        from repro.workloads.tpch import TpchQuery
        with pytest.raises(WorkloadError):
            TpchQuery(0, 100, 1.0)
        with pytest.raises(WorkloadError):
            TpchQuery(1, 0, 1.0)


class TestS4HanaCatalog:
    def test_acdoca_scale(self):
        catalog = acdoca_catalog()
        assert catalog["rows"] == ACDOCA_ROWS == 151_000_000
        assert catalog["columns"] == 336

    def test_13_column_query(self):
        config = oltp_query_13_columns()
        assert config.projected_columns == 13
        profile = config.profile()
        # 13 dictionary regions + the index region.
        assert len(profile.regions) == 14

    def test_6_column_query_smaller_working_set(self):
        large = oltp_query_13_columns().working_set_bytes
        small = oltp_query_6_columns().working_set_bytes
        assert small < large

    def test_column_sweep(self):
        sizes = [
            oltp_query_n_columns(n).working_set_bytes
            for n in range(2, 14)
        ]
        assert sizes == sorted(sizes)  # monotone in column count

    def test_column_sweep_validation(self):
        with pytest.raises(WorkloadError):
            oltp_query_n_columns(0)
        with pytest.raises(WorkloadError):
            oltp_query_n_columns(14)

    def test_functional_acdoca_point_query(self):
        table, data = build_functional_acdoca(rows=2000,
                                              payload_columns=3)
        from repro.operators.point_select import PointSelect
        key = int(data["K0"][17])
        select = PointSelect(
            table, ["C00", "C01"], {"K0": key}
        )
        result = select.execute()
        expected_rows = np.nonzero(data["K0"] == key)[0]
        assert np.array_equal(result["C00"], data["C00"][expected_rows])


class TestConcurrencyHarness:
    def test_isolated_baseline_cached(self, spec):
        from repro.workloads.mixed import ConcurrencyExperiment
        from repro.obs import NULL_TRACER, observing

        experiment = ConcurrencyExperiment(spec)
        profile = query1().profile()
        with observing(NULL_TRACER) as (_, metrics):
            first = experiment.isolated(profile)
            second = experiment.isolated(profile)
        assert first == second
        # The content cache is the baseline memo: one solve, one hit.
        counters = metrics.snapshot()["counters"]
        assert counters["simulator.solves"] == 1
        assert counters["sim.cache.hits"] == 1

    def test_concurrent_requires_two(self, spec):
        from repro.workloads.mixed import (
            ConcurrencyExperiment,
            WorkloadQuery,
        )
        experiment = ConcurrencyExperiment(spec)
        with pytest.raises(WorkloadError):
            experiment.concurrent(
                [WorkloadQuery("one", query1().profile())]
            )

    def test_llc_sweep_normalized_to_full(self, spec):
        from repro.workloads.mixed import ConcurrencyExperiment
        experiment = ConcurrencyExperiment(spec)
        points = experiment.llc_sweep(
            query1().profile(), ways_list=[2, 20]
        )
        assert points[-1] == (1.0, pytest.approx(1.0))

    def test_llc_sweep_validates_ways(self, spec):
        from repro.workloads.mixed import ConcurrencyExperiment
        experiment = ConcurrencyExperiment(spec)
        with pytest.raises(WorkloadError):
            experiment.llc_sweep(query1().profile(), ways_list=[0])
