"""Tests for the hedgecut-experiments command-line interface."""

import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_every_experiment_is_addressable(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_all_keyword(self):
        args = build_parser().parse_args(["all"])
        assert args.experiment == "all"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_dataset_filter(self):
        args = build_parser().parse_args(["figure4b", "--datasets", "income", "heart"])
        assert args.datasets == ["income", "heart"]

    def test_scale_and_trees(self):
        args = build_parser().parse_args(["figure3", "--scale", "0.5", "--trees", "20"])
        assert args.scale == 0.5
        assert args.trees == 20


class TestMain:
    def test_table1_prints_rows(self, capsys):
        exit_code = main(["table1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "income" in output

    def test_main_returns_zero(self):
        assert main(["table1"]) == 0


class TestServe:
    def test_inprocess_serve_at_small_scale(self, capsys):
        """More requests than dataset rows: the deletion pool is sized to
        the deletions actually scheduled, and none overruns the budget."""
        exit_code = main(
            [
                "serve",
                "--datasets", "income",
                "--scale", "0.002",
                "--trees", "2",
                "--serving", "inprocess",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "serving mode     inprocess (strong)" in output
        assert "budget-skipped" in output
        assert "readers" not in output
