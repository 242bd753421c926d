"""End-to-end tests of the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.datasets.io import load_dataset


@pytest.fixture(scope="module")
def generated_dataset(tmp_path_factory):
    """A tiny D1 archive generated through the CLI itself."""
    directory = tmp_path_factory.mktemp("cli-data")
    path = directory / "d1.npz"
    code = main(
        [
            "generate",
            "d1",
            str(path),
            "--modules",
            "3",
            "--soundings",
            "4",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def trained_model(generated_dataset, tmp_path_factory):
    """A model trained through the CLI on split S1 at stride 16."""
    model_dir = tmp_path_factory.mktemp("cli-model") / "model"
    code = main(
        [
            "train", str(generated_dataset), str(model_dir),
            "--split", "S1", "--stride", "16",
            "--epochs", "2", "--batch-size", "16",
        ]
    )
    assert code == 0
    return model_dir


class TestParser:
    def test_parser_knows_every_subcommand(self):
        parser = build_parser()
        minimal_arguments = {
            "generate": ["d1", "out.npz"],
            "info": ["data.npz"],
            "train": ["data.npz", "model-dir"],
            "evaluate": ["data.npz", "model-dir"],
            "authenticate": ["data.npz", "model-dir"],
            "serve": ["data.npz", "model-dir"],
            "probe": ["data.npz"],
        }
        for command, extra in minimal_arguments.items():
            args = parser.parse_args([command, *extra])
            assert args.command == command

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_accepts_every_backend(self):
        parser = build_parser()
        for backend in ("threads", "processes"):
            args = parser.parse_args(
                ["serve", "data.npz", "model-dir", "--backend", backend]
            )
            assert args.backend == backend
        # Workers default to None: the service picks the heuristic count
        # (1 on a single core, where more shards are slower).
        assert parser.parse_args(["serve", "data.npz", "model-dir"]).workers is None
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "data.npz", "model-dir", "--backend", "x"])


class TestGenerateAndInfo:
    def test_generate_writes_a_loadable_archive(self, generated_dataset):
        dataset = load_dataset(generated_dataset)
        assert dataset.num_samples == 3 * 9 * 4 * 2
        assert dataset.module_ids == [0, 1, 2]

    def test_info_summarises_the_archive(self, generated_dataset, capsys):
        code = main(["info", str(generated_dataset)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "traces" in captured
        assert "V~ shape" in captured

    def test_info_on_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["info", str(tmp_path / "missing.npz")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestProbeTrainEvaluate:
    def test_probe_reports_accuracy(self, generated_dataset, capsys):
        code = main(
            [
                "probe",
                str(generated_dataset),
                "--split",
                "S1",
                "--stride",
                "16",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "linear-probe accuracy" in captured
        assert "%" in captured

    def test_train_then_evaluate_round_trip(self, generated_dataset, tmp_path, capsys):
        model_dir = tmp_path / "model"
        code = main(
            [
                "train",
                str(generated_dataset),
                str(model_dir),
                "--split",
                "S1",
                "--stride",
                "16",
                "--epochs",
                "2",
                "--batch-size",
                "16",
            ]
        )
        assert code == 0
        summary = json.loads((model_dir / "training_summary.json").read_text())
        assert summary["split"] == "S1"
        assert (model_dir / "weights.npz").exists()

        code = main(
            [
                "evaluate",
                str(generated_dataset),
                str(model_dir),
                "--split",
                "S1",
                "--stride",
                "16",
                "--num-classes",
                "3",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "accuracy" in captured

        code = main(
            [
                "authenticate",
                str(generated_dataset),
                str(model_dir),
                "--split",
                "S1",
                "--stride",
                "16",
                "--num-classes",
                "3",
                "--batch-size",
                "8",
                "--window",
                "4",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "micro-batches" in captured
        assert "frames/s" in captured
        assert "verdict module" in captured

        code = main(
            [
                "serve",
                str(generated_dataset),
                str(model_dir),
                "--split",
                "S1",
                "--stride",
                "16",
                "--num-classes",
                "3",
                "--workers",
                "2",
                "--queue-depth",
                "16",
                "--batch-size",
                "8",
                "--window",
                "4",
                "--stats-every",
                "16",
                "--repeat",
                "2",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "2 workers on the threads backend (queue depth 16" in captured
        assert "[stats]" in captured
        assert "worker 0:" in captured
        assert "worker 1:" in captured
        assert "frame accuracy" in captured
        assert "verdict module" in captured

        code = main(
            [
                "serve",
                str(generated_dataset),
                str(model_dir),
                "--split",
                "S1",
                "--stride",
                "16",
                "--num-classes",
                "3",
                "--workers",
                "2",
                "--backend",
                "processes",
                "--queue-depth",
                "16",
                "--batch-size",
                "8",
                "--window",
                "4",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "2 workers on the processes backend" in captured
        assert "(processes backend" in captured
        assert "worker 0:" in captured
        assert "worker 1:" in captured
        assert "verdict module" in captured

    def test_authenticate_compute_backends_and_profile(
        self, generated_dataset, tmp_path, capsys
    ):
        model_dir = tmp_path / "model"
        code = main(
            [
                "train", str(generated_dataset), str(model_dir),
                "--split", "S1", "--stride", "16",
                "--epochs", "2", "--batch-size", "16",
            ]
        )
        assert code == 0
        capsys.readouterr()

        base = [
            "authenticate", str(generated_dataset), str(model_dir),
            "--split", "S1", "--stride", "16",
            "--num-classes", "3", "--batch-size", "8",
        ]
        for compute, flags in (("fp64", []), ("fp32", ["--compute", "fp32"])):
            code = main(base + flags)
            captured = capsys.readouterr().out
            assert code == 0
            assert f"compute {compute}" in captured
            assert "per-layer forward profile" not in captured

        code = main(base + ["--compute", "fp32", "--profile"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "per-layer forward profile:" in captured
        assert "ms/call" in captured

        code = main(
            [
                "serve", str(generated_dataset), str(model_dir),
                "--split", "S1", "--stride", "16",
                "--num-classes", "3", "--workers", "2",
                "--batch-size", "8", "--compute", "fp32",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "compute fp32" in captured

    def test_authenticate_codeword_fast_path(
        self, generated_dataset, trained_model, capsys
    ):
        base = [
            "authenticate", str(generated_dataset), str(trained_model),
            "--split", "S1", "--stride", "16",
            "--num-classes", "3", "--batch-size", "8",
        ]
        for precision in ("exact", "fast"):
            code = main(base + ["--precision", precision])
            captured = capsys.readouterr().out
            assert code == 0
            assert f"precision {precision}" in captured
            assert "verdict module" in captured

        code = main(base + ["--precision", "fast", "--profile"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "per-stage preprocessing profile:" in captured
        assert "reconstruct" in captured
        assert "ms/batch" in captured

    def test_authenticate_profile_reports_every_stage(
        self, generated_dataset, trained_model, capsys
    ):
        """A plain ``authenticate`` streams codewords, so the split is rebuilt
        from them (the ``reconstruct`` stage) and ``--precision`` applies."""
        code = main(
            [
                "authenticate", str(generated_dataset), str(trained_model),
                "--split", "S1", "--stride", "16", "--num-classes", "3",
                "--profile",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        profile = captured.split("per-stage preprocessing profile:")[1]
        profile = profile.split("per-layer forward profile:")[0]
        stages = [line.split()[0] for line in profile.strip().splitlines()]
        assert stages == ["reconstruct", "features", "inference"]

    def test_unknown_precision_rejected_by_parser(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["authenticate", "data.npz", "model-dir", "--precision", "fp16"]
            )

    def test_unknown_compute_backend_rejected_by_parser(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["authenticate", "data.npz", "model-dir", "--compute", "fp16"]
            )

    def test_removed_compute_backends_rejected_by_parser(self):
        parser = build_parser()
        for command in ("authenticate", "serve"):
            for compute in ("int8", "exact"):
                with pytest.raises(SystemExit):
                    parser.parse_args(
                        [command, "data.npz", "model-dir", "--compute", compute]
                    )

    def test_serve_rejects_invalid_repeat(self, generated_dataset, tmp_path, capsys):
        code = main(
            [
                "serve",
                str(generated_dataset),
                str(tmp_path / "missing-model"),
                "--repeat",
                "0",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_split_is_reported_as_error(self, generated_dataset):
        with pytest.raises(SystemExit):
            # argparse rejects the invalid choice before our handler runs.
            main(["probe", str(generated_dataset), "--split", "S9"])
