"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import WORKLOADS, build_network, build_parser, main
from repro.serve import DEFAULT_REPLICAS


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["workloads"])
        assert args.command == "workloads"

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_chip_arguments_have_paper_defaults(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.rows == 128 and args.columns == 128
        assert args.batch == 32 and args.cores == 2
        assert args.input_sram_mb == pytest.approx(26.3)

    def test_build_network_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            build_network("resnet999")

    def test_every_registered_workload_builds(self):
        for name in WORKLOADS:
            assert build_network(name).total_macs > 0


class TestCommands:
    def test_evaluate_text_report(self, capsys):
        code = main(["evaluate", "--network", "lenet5", "--rows", "16", "--columns", "16",
                     "--batch", "2", "--input-sram-mb", "0.5"])
        assert code == 0
        output = capsys.readouterr().out
        assert "IPS" in output and "Power breakdown" in output

    def test_evaluate_json_summary(self, capsys):
        code = main(["evaluate", "--network", "lenet5", "--rows", "16", "--columns", "16",
                     "--batch", "2", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 16
        assert summary["ips"] > 0

    def test_compare_prints_both_systems(self, capsys):
        code = main(["compare", "--network", "lenet5", "--rows", "32", "--columns", "32",
                     "--batch", "4"])
        assert code == 0
        output = capsys.readouterr().out
        assert "This work" in output and "NVIDIA A100" in output

    def test_workloads_lists_all_networks(self, capsys):
        code = main(["workloads"])
        assert code == 0
        output = capsys.readouterr().out
        for name in ("resnet50", "vgg16", "lenet5"):
            assert name in output

    def test_figure_writes_csv(self, tmp_path, capsys):
        output_file = tmp_path / "fig7a.csv"
        code = main(["figure", "--name", "fig7a", "--network", "lenet5",
                     "--output", str(output_file)])
        assert code == 0
        content = output_file.read_text()
        assert "batch_size" in content.splitlines()[0]

    def test_figure_table1_prints_json(self, capsys):
        code = main(["figure", "--name", "table1", "--network", "lenet5"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "rows" in data and "ratios" in data

    def test_infer_json_summary(self, capsys):
        code = main(["infer", "--network", "lenet5", "--images", "2",
                     "--rows", "32", "--columns", "32", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["images"] == 2
        assert data["programming_events"] > 0
        assert 0.0 <= data["top1_match_rate"] <= 1.0
        assert data["images_per_second"] > 0

    def test_infer_text_report_mentions_cache(self, capsys):
        code = main(["infer", "--network", "lenet5", "--images", "2",
                     "--rows", "32", "--columns", "32"])
        assert code == 0
        output = capsys.readouterr().out
        assert "PCM programming events" in output
        assert "images/s" in output

    def test_infer_rejects_non_positive_images(self):
        with pytest.raises(SystemExit):
            main(["infer", "--network", "lenet5", "--images", "0"])

    @pytest.mark.multicore
    def test_infer_workers_thread_matches_serial(self, capsys):
        base = ["infer", "--network", "lenet5", "--images", "4",
                "--rows", "32", "--columns", "32", "--json"]
        assert main(base) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(base + ["--workers", "thread"]) == 0
        threaded = json.loads(capsys.readouterr().out)
        assert threaded["workers"] == "thread"
        assert threaded["mean_relative_error"] == serial["mean_relative_error"]
        assert threaded["top1_match_rate"] == serial["top1_match_rate"]
        # Every replica dispatches every layer once per batch for its chunk.
        replicas = min(DEFAULT_REPLICAS, 4)
        assert threaded["per_core_tile_dispatches"] == [
            replicas * count for count in serial["per_core_tile_dispatches"]
        ]
        assert sum(threaded["per_core_tile_dispatches"]) > 0

    @pytest.mark.multicore
    def test_infer_text_report_mentions_core_dispatches(self, capsys):
        code = main(["infer", "--network", "lenet5", "--images", "2",
                     "--rows", "32", "--columns", "32", "--workers", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "tile GEMMs per crossbar core (workers=thread:2)" in output

    def test_infer_rejects_bad_workers(self):
        with pytest.raises(SystemExit):
            main(["infer", "--network", "lenet5", "--images", "1", "--workers", "0"])
        with pytest.raises(SystemExit):
            main(["infer", "--network", "lenet5", "--images", "1", "--workers", "bogus"])
