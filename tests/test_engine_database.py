"""End-to-end tests for the Database facade."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.errors import SqlPlanError, StorageError
from repro.storage.datagen import DataGenerator


@pytest.fixture
def db():
    return Database()


@pytest.fixture
def loaded_db(db):
    generator = DataGenerator(21)
    db.execute("CREATE COLUMN TABLE A ( X INT )")
    db.load("A", {"X": generator.scan_table(5000, 200)})
    db.execute("CREATE COLUMN TABLE B ( V INT, G INT )")
    db.load("B", generator.aggregation_table(5000, 100, 10))
    db.execute("CREATE COLUMN TABLE R ( P INT, PRIMARY KEY(P) )")
    db.execute("CREATE COLUMN TABLE S ( F INT )")
    primary, foreign = generator.join_tables(500, 2000)
    db.load("R", {"P": primary})
    db.load("S", {"F": foreign})
    return db


class TestDdl:
    def test_create_table(self, db):
        table = db.execute("CREATE COLUMN TABLE T ( X INT )")
        assert table.name == "T"
        assert db.table_names() == ["T"]

    def test_duplicate_table_rejected(self, db):
        db.execute("CREATE COLUMN TABLE T ( X INT )")
        with pytest.raises(StorageError):
            db.execute("CREATE COLUMN TABLE T ( X INT )")

    def test_primary_key_propagated(self, db):
        table = db.execute(
            "CREATE COLUMN TABLE R ( P INT, PRIMARY KEY(P) )"
        )
        assert table.schema.primary_key == "P"

    def test_drop_table(self, db):
        db.execute("CREATE COLUMN TABLE T ( X INT )")
        db.drop_table("T")
        assert db.table_names() == []

    def test_load_unknown_table(self, db):
        with pytest.raises(StorageError):
            db.load("NOPE", {"X": np.array([1])})


class TestQueries:
    def test_scan(self, loaded_db):
        values = loaded_db.table("A").column("X").materialize()
        result = loaded_db.execute(
            "SELECT COUNT(*) FROM A WHERE A.X > ?", [100]
        )
        assert result.matches == int((values > 100).sum())

    def test_aggregation(self, loaded_db):
        result = loaded_db.execute(
            "SELECT MAX(B.V), B.G FROM B GROUP BY B.G"
        )
        groups = loaded_db.table("B").column("G").materialize()
        assert result.num_groups == len(np.unique(groups))

    def test_join(self, loaded_db):
        result = loaded_db.execute(
            "SELECT COUNT(*) FROM R, S WHERE R.P = S.F"
        )
        assert result.matches == 2000  # FKs drawn from the PK domain

    def test_point_select_runs_on_oltp_pool(self, loaded_db):
        key = int(loaded_db.table("R").column("P").materialize()[0])
        loaded_db.execute("SELECT P FROM R WHERE P = ?", [key])
        assert loaded_db.scheduler.dispatch_log[-1].pool == "oltp"

    def test_olap_queries_run_on_olap_pool(self, loaded_db):
        loaded_db.execute("SELECT COUNT(*) FROM A WHERE A.X > ?", [1])
        assert loaded_db.scheduler.dispatch_log[-1].pool == "olap"

    def test_unknown_table_in_query(self, loaded_db):
        with pytest.raises(SqlPlanError):
            loaded_db.execute("SELECT COUNT(*) FROM NOPE WHERE X > 1")


class TestCachePartitioningSwitch:
    def test_disabled_by_default(self, db):
        assert not db.cache_partitioning_enabled

    def test_enable_affects_dispatch(self, loaded_db, spec):
        loaded_db.enable_cache_partitioning()
        loaded_db.execute("SELECT COUNT(*) FROM A WHERE A.X > ?", [1])
        assert loaded_db.scheduler.dispatch_log[-1].mask == 0x3
        # Each operator gets its CUID's mask: the aggregation keeps the
        # whole cache, and the join's small bit vector makes it a
        # polluter.
        loaded_db.execute("SELECT MAX(B.V), B.G FROM B GROUP BY B.G")
        assert loaded_db.scheduler.dispatch_log[-1].mask == spec.full_mask
        loaded_db.execute("SELECT COUNT(*) FROM R, S WHERE R.P = S.F")
        assert loaded_db.scheduler.dispatch_log[-1].mask == 0x3

    def test_results_identical_with_partitioning(self, loaded_db):
        def run_all():
            scan = loaded_db.execute(
                "SELECT COUNT(*) FROM A WHERE A.X > ?", [100]
            )
            agg = loaded_db.execute(
                "SELECT MAX(B.V), B.G FROM B GROUP BY B.G"
            )
            join = loaded_db.execute(
                "SELECT COUNT(*) FROM R, S WHERE R.P = S.F"
            )
            return (
                scan.matches,
                agg.groups.tolist(),
                agg.aggregates.tolist(),
                join.matches,
            )

        baseline = run_all()
        loaded_db.enable_cache_partitioning()
        assert run_all() == baseline

    def test_disable_restores_full_mask(self, loaded_db, spec):
        loaded_db.enable_cache_partitioning()
        loaded_db.execute("SELECT COUNT(*) FROM A WHERE A.X > ?", [1])
        loaded_db.disable_cache_partitioning()
        loaded_db.execute("SELECT COUNT(*) FROM A WHERE A.X > ?", [1])
        assert loaded_db.scheduler.dispatch_log[-1].mask == spec.full_mask


class TestExplain:
    def test_explain_scan(self, loaded_db):
        text = loaded_db.explain(
            "SELECT COUNT(*) FROM A WHERE A.X > ?", [5]
        )
        assert "ColumnScan" in text
        assert "column_scan" in text

    def test_explain_shows_mask_when_partitioned(self, loaded_db):
        loaded_db.enable_cache_partitioning()
        text = loaded_db.explain(
            "SELECT COUNT(*) FROM A WHERE A.X > ?", [5]
        )
        assert "mask=0x3" in text

    def test_explain_create(self, db):
        assert "CreateTable" in db.explain(
            "CREATE COLUMN TABLE T ( X INT )"
        )


class TestConfiguration:
    def test_oltp_pool_sizing(self):
        db = Database(oltp_cores=4)
        assert db.scheduler.oltp_pool.size == 4
        assert db.scheduler.olap_pool.size == db.spec.cores - 4

    def test_invalid_oltp_cores(self):
        with pytest.raises(StorageError):
            Database(oltp_cores=0)
