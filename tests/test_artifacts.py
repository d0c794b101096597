"""The unified BENCH_*.json artifact layer (``sim/artifacts.py``):
schema-v1 round-trips, ragged-row rejection, and the committed artifacts'
conformance (every writer in tree must stamp the wall clock)."""

import ast
import glob
import json
import os

import pytest

from repro.sim.artifacts import (
    SCHEMA_VERSION,
    bench_artifact,
    write_bench_artifact,
)
from repro.sim.runner import SeedOutcome, aggregate_outcomes

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ROWS = [
    {"workload": "a", "txns": 100, "ratio": 3.5},
    {"workload": "b", "txns": 200, "ratio": 4.0},
]


class TestRoundTrip:
    def test_write_then_load_preserves_payload(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        payload = write_bench_artifact(
            path, "unit", ROWS, scale=0.5, wall_s=1.23456,
            extra={"note": "round-trip"},
        )
        loaded = json.loads(path.read_text())
        assert loaded == payload
        assert loaded["schema"] == SCHEMA_VERSION == 1
        assert loaded["bench"] == "unit"
        assert set(loaded) == {
            "bench", "schema", "scale", "wall_s", "rows", "extra",
        }
        assert loaded["scale"] == 0.5
        assert loaded["wall_s"] == 1.235  # rounded to ms
        assert loaded["rows"] == ROWS
        assert loaded["extra"] == {"note": "round-trip"}

    def test_optional_fields_omitted_when_absent(self):
        payload = bench_artifact("unit", ROWS)
        assert "wall_s" not in payload
        assert "extra" not in payload

    def test_rows_are_copied_not_aliased(self):
        rows = [dict(r) for r in ROWS]
        payload = bench_artifact("unit", rows)
        rows.append({"workload": "c"})
        assert len(payload["rows"]) == 2

    def test_missing_parent_directories_are_created(self, tmp_path):
        """``--out path/to/new_dir/file.json`` must not crash the writer
        at the end of a bench run: missing parents are created."""
        path = tmp_path / "new_dir" / "nested" / "BENCH_unit.json"
        assert not path.parent.exists()
        payload = write_bench_artifact(path, "unit", ROWS, wall_s=0.1)
        assert json.loads(path.read_text()) == payload

    def test_existing_parent_directory_is_reused(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        write_bench_artifact(path, "unit", ROWS, wall_s=0.1)
        write_bench_artifact(path, "unit", ROWS, wall_s=0.2)  # no EEXIST
        assert json.loads(path.read_text())["wall_s"] == 0.2


class TestRowValidation:
    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError, match="do not match row 0"):
            bench_artifact(
                "unit",
                [{"workload": "a", "txns": 1}, {"workload": "b", "ticks": 2}],
            )

    def test_non_mapping_row_rejected(self):
        with pytest.raises(TypeError, match="not a mapping"):
            bench_artifact("unit", [("workload", "a")])

    def test_non_string_key_rejected(self):
        with pytest.raises(TypeError, match="non-string key"):
            bench_artifact("unit", [{1: "a"}])

    def test_failed_seeds_key_is_optional_per_row(self):
        payload = bench_artifact(
            "unit",
            [
                {"workload": "a", "txns": 1, "failed_seeds": [[1, "boom"]]},
                {"workload": "b", "txns": 2},
            ],
        )
        assert len(payload["rows"]) == 2

    def test_empty_rows_allowed(self):
        assert bench_artifact("unit", [])["rows"] == []


class TestCellRows:
    def test_a_cell_with_a_failed_seed_is_written_beside_a_green_one(
        self, tmp_path
    ):
        """``CellResult.row()`` lists ``failed_seeds`` only when a seed
        failed, so the red cell's row has one key more than the green
        one's; the artifact must still take both."""
        ran = SeedOutcome(seed=0, summary={"ticks": 10.0}, serializable=True)
        green = aggregate_outcomes("2PL", "w", [ran])
        red = aggregate_outcomes(
            "2PL", "w", [ran, SeedOutcome(seed=1, error="exceeded 2 ticks")],
        )
        path = tmp_path / "BENCH_unit.json"
        write_bench_artifact(
            path, "unit", [green.row(), red.row()], wall_s=0.1,
        )
        rows = json.loads(path.read_text())["rows"]
        assert "failed_seeds" not in rows[0]
        assert rows[1]["failed_seeds"] == [[1, "exceeded 2 ticks"]]


class TestCommittedArtifacts:
    """Every BENCH_*.json currently in tree conforms to schema v1 and
    records the wall clock."""

    def _artifacts(self):
        paths = sorted(glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")))
        assert paths, "no committed BENCH_*.json artifacts found"
        return paths

    def test_schema_and_wall_clock_present(self):
        for path in self._artifacts():
            with open(path) as fh:
                doc = json.load(fh)
            name = os.path.basename(path)
            assert doc.get("schema") == SCHEMA_VERSION, name
            assert isinstance(doc.get("wall_s"), (int, float)), (
                f"{name} lacks the wall_s stamp"
            )
            assert doc.get("rows"), f"{name} has no rows"
            bench_artifact(doc["bench"], doc["rows"])  # re-validates rows

    def test_every_writer_call_site_passes_wall_s(self):
        """AST-scan every in-tree caller of write_bench_artifact: each call
        must pass a wall_s keyword (so no future artifact can regress to
        clockless)."""
        callers = []
        for pattern in ("benchmarks/*.py", "src/repro/*.py", "src/repro/*/*.py"):
            for path in sorted(glob.glob(os.path.join(REPO_ROOT, pattern))):
                with open(path) as fh:
                    tree = ast.parse(fh.read(), filename=path)
                for node in ast.walk(tree):
                    if not isinstance(node, ast.Call):
                        continue
                    fname = (
                        node.func.id if isinstance(node.func, ast.Name)
                        else getattr(node.func, "attr", None)
                    )
                    if fname != "write_bench_artifact":
                        continue
                    callers.append(path)
                    kwargs = {kw.arg for kw in node.keywords}
                    assert "wall_s" in kwargs, (
                        f"{path}:{node.lineno} writes an artifact without "
                        "a wall_s stamp"
                    )
        assert callers, "no write_bench_artifact call sites found in tree"
