"""The ``python -m repro.bench`` CLI surface: argument validation, the
``scaling`` bench (the only bench it runs; the comparable grids are run
and asserted by the tier-1 benches under ``benchmarks/``), and the
``--compare`` artifact-diff mode CI uses as its regression gate."""

import json

import pytest

from repro import bench


class TestArgValidation:
    @pytest.mark.parametrize("argv, message", [
        ([], "a bench is required"),
        # The retired grid presets and service bench are no longer
        # choices: tier-1 benches and the e2e service workloads run them.
        *[([name], f"invalid choice: '{name}'")
          for name in ("stress", "deadlock", "traversal", "service")],
    ])
    def test_scaling_is_the_only_bench(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            bench.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-0.5", "nan"])
    def test_non_positive_scale_rejected_at_parse_time(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            bench.build_parser().parse_args(["scaling", "--scale", value])
        assert exc.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    def test_fractional_scale_accepted(self):
        args = bench.build_parser().parse_args(["scaling", "--scale", "0.05"])
        assert args.scale == 0.05

    @pytest.mark.parametrize(
        "flag", ["--scale", "--arrival-rate", "--max-wall-regression"]
    )
    def test_non_numeric_values_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            bench.build_parser().parse_args(["scaling", flag, "two"])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err

    def test_defaults_survive_validation(self):
        args = bench.build_parser().parse_args(["scaling"])
        assert (args.bench, args.scale, args.arrival_rate) == ("scaling", 1.0, None)
        assert (args.out, args.compare, args.max_wall_regression) == (
            None, None, None,
        )

    def test_help_lists_one_bench_and_five_flags(self):
        text = bench.build_parser().format_help()
        assert "{scaling}" in text
        flags = {
            action.option_strings[0]
            for action in bench.build_parser()._actions
            if action.option_strings and action.dest != "help"
        }
        assert flags == {
            "--scale", "--arrival-rate", "--out", "--compare",
            "--max-wall-regression",
        }

    @pytest.mark.parametrize(
        "flag",
        ["--shards", "--shard-workers", "--executor",
         "--workers", "--seeds", "--list"],
    )
    def test_no_shard_executor_or_grid_flag_exists(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            bench.build_parser().parse_args(["scaling", flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


class TestScalingBench:
    def test_writes_one_row_per_size_with_the_curve_columns(self, tmp_path):
        out = tmp_path / "scaling.json"
        assert bench.main(["scaling", "--scale", "0.01", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["bench"] == "scaling"
        # One row set per policy, each over every point, in that order.
        assert [(row["policy"], row["txns"]) for row in doc["rows"]] == [
            (policy().name, bench._scaled(txns, 0.01))
            for policy, _ in bench._SCALING_POLICIES
            for txns, _ in bench._SCALING_POINTS
        ]
        assert {row["policy"] for row in doc["rows"]} == {"2PL", "Altruistic"}
        for row in doc["rows"]:
            assert list(row) == bench._SCALING_COLUMNS
            assert row["failures"] == 0
            assert row["serializable"] is True
            assert row["rule_violations"] == 0
            assert row["committed"] == row["txns"]
            assert row["us_per_tick"] == pytest.approx(
                1e6 * row["wall_s"] / row["ticks"], rel=0.01
            )
        extra = doc["extra"]
        assert extra["arrival_rate"] == 0.085
        assert {"python", "cpu_count", "git_sha"} <= set(extra)

    def test_scale_shrinks_with_floor(self):
        assert bench._scaled(bench._SCALING_POINTS[0][0], 0.0001) == 50

    def test_arrival_rate_overloads_the_population(self, tmp_path):
        means = {}
        for rate in ("0.085", "0.5"):
            out = tmp_path / f"scaling_{rate}.json"
            assert bench.main(
                ["scaling", "--scale", "0.01", "--arrival-rate", rate,
                 "--out", str(out)]
            ) == 0
            doc = json.loads(out.read_text())
            assert doc["extra"]["arrival_rate"] == float(rate)
            means[rate] = doc["rows"][-1]["mean_active"]
        assert means["0.5"] > 2 * means["0.085"]

    @pytest.mark.parametrize("value", ["0", "-0.5", "nan"])
    def test_arrival_rate_is_rejected_when_non_positive(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            bench.build_parser().parse_args(
                ["scaling", "--arrival-rate", value]
            )
        assert exc.value.code == 2
        assert "must be > 0" in capsys.readouterr().err


def _artifact(tmp_path, name, rows, *, bench_name="grid_stress",
              wall_s=10.0, schema=1):
    doc = {
        "bench": bench_name,
        "schema": schema,
        "scale": 1.0,
        "rows": rows,
        "wall_s": wall_s,
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _row(policy="2PL", workload="stress", wall_s=1.0, **extra):
    row = {
        "policy": policy,
        "workload": workload,
        "wall_s": wall_s,
        "committed": 100,
    }
    row.update(extra)
    return row


class TestCompare:
    """``--compare OLD.json NEW.json``: the artifact-diff regression gate
    (replaces CI's ad-hoc wall-clock guards)."""

    def test_identical_artifacts_report_no_differences(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row()])
        new = _artifact(tmp_path, "new.json", [_row()])
        assert bench.main(["--compare", old, new]) == 0
        assert "no numeric differences" in capsys.readouterr().out

    def test_deltas_reported_without_threshold_exit_zero(
        self, tmp_path, capsys
    ):
        old = _artifact(tmp_path, "old.json", [_row(wall_s=1.0)])
        new = _artifact(tmp_path, "new.json", [_row(wall_s=2.0)])
        assert bench.main(["--compare", old, new]) == 0
        out = capsys.readouterr().out
        assert "wall_s" in out
        assert "+100.0%" in out

    def test_wall_regression_beyond_threshold_fails(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row(wall_s=1.0)])
        new = _artifact(tmp_path, "new.json", [_row(wall_s=2.0)])
        assert bench.main(
            ["--compare", old, new, "--max-wall-regression", "0.5"]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_wall_regression_within_threshold_passes(self, tmp_path):
        old = _artifact(tmp_path, "old.json", [_row(wall_s=1.0)])
        new = _artifact(tmp_path, "new.json", [_row(wall_s=1.3)])
        assert bench.main(
            ["--compare", old, new, "--max-wall-regression", "0.5"]
        ) == 0

    def test_artifact_level_wall_gated_too(self, tmp_path, capsys):
        # The harness wall sits at the top level, outside the rows; the
        # gate must catch a regression there even with identical rows.
        old = _artifact(tmp_path, "old.json", [_row()], wall_s=10.0)
        new = _artifact(tmp_path, "new.json", [_row()], wall_s=30.0)
        assert bench.main(
            ["--compare", old, new, "--max-wall-regression", "0.5"]
        ) == 1
        assert "artifact wall_s" in capsys.readouterr().out

    def test_bench_mismatch_is_a_usage_failure(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row()])
        new = _artifact(
            tmp_path, "new.json", [_row()], bench_name="scaling"
        )
        assert bench.main(["--compare", old, new]) == 2
        assert "mismatch" in capsys.readouterr().out

    def test_row_identity_mismatch_is_a_usage_failure(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row(policy="2PL")])
        new = _artifact(tmp_path, "new.json", [_row(policy="DDAG")])
        assert bench.main(["--compare", old, new]) == 2
        assert "identity" in capsys.readouterr().out

    def test_scaling_rows_are_identified_by_their_size(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row(txns=5000)])
        new = _artifact(tmp_path, "new.json", [_row(txns=500)])
        assert bench.main(["--compare", old, new]) == 2
        assert "identity 'txns'" in capsys.readouterr().out

    def test_row_count_mismatch_is_a_usage_failure(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row(), _row(workload="deadlock_storm")])
        new = _artifact(tmp_path, "new.json", [_row()])
        assert bench.main(["--compare", old, new]) == 2
        assert "row count" in capsys.readouterr().out

    def test_one_sided_keys_are_skipped_not_fatal(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row(spill_fraction=0.1)])
        new = _artifact(tmp_path, "new.json", [_row()])
        assert bench.main(["--compare", old, new]) == 0
        assert "(skipped)" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", [
        "missing", "malformed", "not_an_object", "row_not_an_object",
    ])
    def test_an_input_that_is_not_an_artifact_is_a_usage_failure(
        self, tmp_path, capsys, bad
    ):
        """Exit 1 means "wall_s regressed" to the CI gate, so an input
        that cannot be compared exits 2, without a traceback, in either
        position."""
        good = _artifact(tmp_path, "good.json", [_row()])
        path = tmp_path / "bad.json"
        if bad == "malformed":
            path.write_text('{"bench": ')
        elif bad == "not_an_object":
            path.write_text("[1, 2]")
        elif bad == "row_not_an_object":
            _artifact(tmp_path, "bad.json", [_row(), 7])
        for argv in ([good, str(path)], [str(path), good]):
            assert bench.main(["--compare", *argv]) == 2
            out = capsys.readouterr().out
            assert out.startswith("compare: ") and str(path) in out

    def test_compare_rejects_a_bench(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row()])
        new = _artifact(tmp_path, "new.json", [_row()])
        with pytest.raises(SystemExit) as exc:
            bench.main(["scaling", "--compare", old, new])
        assert exc.value.code == 2
        assert "--compare takes no bench" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-0.5", "nan"])
    def test_nonpositive_threshold_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            bench.build_parser().parse_args(
                ["--compare", "a.json", "b.json",
                 "--max-wall-regression", value]
            )
        assert exc.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    def test_compare_needs_two_artifacts(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench.main(["--compare", "a.json"])
        assert exc.value.code == 2
        assert "expected 2 arguments" in capsys.readouterr().err
