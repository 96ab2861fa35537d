"""Sanity tests for the top-level public API."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        """Every name in ``repro.__all__`` and in each subpackage's
        ``__all__`` exists, so no deleted symbol lingers in an export
        list."""
        packages = [repro] + [
            importlib.import_module(f"repro.{info.name}")
            for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg
        ]
        assert len(packages) > 10
        for package in packages:
            for name in package.__all__:
                assert hasattr(package, name), (package.__name__, name)

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_core_types_importable_from_top_level(self):
        assert repro.Database is not None
        assert repro.CachePartitioning is not None
        assert repro.WorkloadSimulator is not None
        assert repro.paper_scheme().name == "paper_default"


class TestReadmeQuickstart:
    def test_readme_snippet_runs(self):
        """The README's quickstart must stay executable verbatim."""
        db = repro.Database()
        db.execute("CREATE COLUMN TABLE A ( X INT )")
        rng = np.random.default_rng(1)
        db.load("A", {"X": rng.integers(1, 10**6, size=100_000)})
        with repro.CachePartitioning(db):
            result = db.execute(
                "SELECT COUNT(*) FROM A WHERE A.X > ?", [500_000]
            )
            explained = db.explain(
                "SELECT COUNT(*) FROM A WHERE A.X > ?", [500_000]
            )
        assert result.matches > 0
        assert "mask=0x3" in explained


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors
        for name in dir(errors):
            candidate = getattr(errors, name)
            if (
                isinstance(candidate, type)
                and issubclass(candidate, Exception)
                and candidate is not errors.ReproError
                and candidate.__module__ == "repro.errors"
            ):
                assert issubclass(candidate, errors.ReproError), name

    def test_library_raises_catchable_errors(self):
        db = repro.Database()
        with pytest.raises(repro.ReproError):
            db.execute("SELECT COUNT(*) FROM MISSING WHERE X > 1")
        with pytest.raises(repro.ReproError):
            db.execute("NOT SQL AT ALL")
