"""Command-line interface: ``repro quickstart / sweep / table1``."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

#: Fast settings shared by every CLI invocation under test.
FAST = ["--small", "--grid", "16", "--cycles", "6"]


def run_cli(args, tmp_path):
    code = main(args + FAST + ["--out", str(tmp_path)])
    assert code == 0
    return code


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.full is True  # Figure 6 is the paper-sized benchmark
        assert 0.15 in args.overheads
        assert args.strategies == ["default", "eri", "hw"]

    def test_quickstart_defaults_to_small(self):
        args = build_parser().parse_args(["quickstart"])
        assert args.full is False
        assert args.overhead == pytest.approx(0.15)
        assert args.strategy == "eri"

    def test_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--strategies", "bogus"])

    def test_unknown_strategy_exits_2_with_suggestion(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["sweep", "--strategies", "gradiant"])
        assert excinfo.value.code == 2
        assert "did you mean 'gradient'" in capsys.readouterr().err

    def test_bad_strategy_param_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["sweep", "--strategies", "hw:rings=9"])
        assert excinfo.value.code == 2
        assert "has no parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.1"])
    @pytest.mark.parametrize(
        "command, flag",
        [("quickstart", "--overhead"), ("sweep", "--overheads"),
         ("submit", "--overheads")],
    )
    def test_bad_overhead_exits_2(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, f"{flag}={value}"])
        assert excinfo.value.code == 2
        assert "finite and non-negative" in capsys.readouterr().err

    def test_comma_separated_specs_keep_param_commas(self):
        args = build_parser().parse_args(
            ["sweep", "--strategies", "default,hw:ring_um=8,max_source_units=3,hybrid"]
        )
        assert args.strategies == [
            ["default", "hw:max_source_units=3,ring_um=8.0", "hybrid"]
        ]

    def test_quickstart_accepts_any_registered_spec(self):
        args = build_parser().parse_args(
            ["quickstart", "--strategy", "gradient:exponent=2"]
        )
        assert args.strategy == "gradient:exponent=2.0"


class TestQuickstart(object):
    def test_writes_json_record(self, tmp_path, capsys):
        run_cli(["quickstart", "--overhead", "0.2"], tmp_path)
        out = capsys.readouterr().out
        assert "reduction" in out
        payload = json.loads((tmp_path / "quickstart.json").read_text())
        assert payload["metadata"]["command"] == "quickstart"
        (record,) = payload["records"]
        assert record["strategy"] == "eri"
        assert record["requested_overhead"] == pytest.approx(0.2)
        assert record["temperature_reduction"] > 0.0
        assert record["timing_overhead"] is not None


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sweep")
        main(["sweep", "--overheads", "0.1", "0.15", "--jobs", "1", "--csv"]
             + FAST + ["--out", str(out)])
        return out

    def test_writes_grid_json(self, sweep_dir):
        payload = json.loads((sweep_dir / "figure6.json").read_text())
        records = payload["records"]
        assert len(records) == 6  # 3 strategies x 2 overheads
        strategies = [r["strategy"] for r in records]
        assert strategies == ["default"] * 2 + ["eri"] * 2 + ["hw"] * 2
        assert all(r["temperature_reduction"] > 0.0 for r in records)
        assert payload["metadata"]["solver_cache"]["misses"] > 0

    def test_targeted_competitive_at_reference_point(self, sweep_dir):
        """On the fast benchmark the targeted schemes match or beat Default.

        The strict ERI >= HW >= Default ordering of Figure 6 is asserted on
        the paper-sized benchmark in ``benchmarks/test_fig6_efficiency.py``;
        at this coarse grid/small circuit the ERI/HW gap sits inside the
        row-snapping noise, so only the default-versus-targeted relation is
        stable enough to pin down.
        """
        payload = json.loads((sweep_dir / "figure6.json").read_text())
        by_point = {
            (r["strategy"], r["requested_overhead"]): r["temperature_reduction"]
            for r in payload["records"]
        }
        default = by_point[("default", 0.15)]
        assert by_point[("eri", 0.15)] >= 0.95 * default
        assert by_point[("hw", 0.15)] >= 0.95 * default

    def test_writes_csv_next_to_json(self, sweep_dir):
        lines = (sweep_dir / "figure6.csv").read_text().strip().splitlines()
        assert len(lines) == 7


class TestStrategies:
    def test_lists_registry(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("default", "eri", "hw", "hybrid", "gradient"):
            assert name in out
        assert "spec grammar" in out


class TestHybridSweep:
    def test_one_point_hybrid_sweep(self, tmp_path):
        run_cli(
            ["sweep", "--strategies", "hybrid", "--overheads", "0.15", "--jobs", "1"],
            tmp_path,
        )
        payload = json.loads((tmp_path / "figure6.json").read_text())
        (record,) = payload["records"]
        assert record["strategy"] == "hybrid"
        assert record["strategy_params"] == {}
        assert record["temperature_reduction"] > 0.0
        assert payload["metadata"]["strategies"] == ["hybrid"]

    def test_parameterized_sweep_records_params(self, tmp_path):
        run_cli(
            ["sweep", "--strategies", "gradient:exponent=2", "--overheads", "0.15",
             "--jobs", "1", "--csv"],
            tmp_path,
        )
        payload = json.loads((tmp_path / "figure6.json").read_text())
        (record,) = payload["records"]
        assert record["strategy"] == "gradient:exponent=2.0"
        assert record["strategy_params"] == {"exponent": 2.0}
        header = (tmp_path / "figure6.csv").read_text().splitlines()[0]
        assert "strategy_params" in header


class TestTable1:
    def test_writes_paired_rows(self, tmp_path):
        run_cli(["table1", "--rows", "3", "6"], tmp_path)
        payload = json.loads((tmp_path / "table1.json").read_text())
        records = payload["records"]
        assert [r["strategy"] for r in records] == ["default", "default", "eri", "eri"]
        assert records[2]["inserted_rows"] == 3
        assert records[3]["inserted_rows"] == 6
        assert payload["metadata"]["row_counts"] == [3, 6]
