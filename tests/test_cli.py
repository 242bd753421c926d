"""End-to-end tests of the command-line interface."""

import json
import re
from dataclasses import replace

import pytest

from repro.cli import build_parser, main
from repro.datasets.io import load_dataset, save_dataset


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
        assert sorted(path.name for path in model_dir.iterdir()) == [
            "model.npz",
            "training_summary.json",
        ]

        code = main(
            [
                "evaluate",
                str(generated_dataset),
                str(model_dir),
                "--split",
                "S1",
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

    @pytest.mark.parametrize(
        "rule_args, backend",
        [(["centroid_distance", "--far", "0.1"], "processes"), ([], "threads")],
    )
    def test_serve_open_set_calibrates_and_rejects(
        self, generated_dataset, trained_model, capsys, rule_args, backend
    ):
        """``serve --open-set`` calibrates a FAR threshold on synthetic
        spoofed frames, then reports how many served frames it rejected.
        With ``--swap-demo`` the periodic stats, the open-set line, the drift
        lines and the verdicts report on the swapped-in version."""
        code = main(
            [
                "serve", str(generated_dataset), str(trained_model),
                "--split", "S1", "--workers", "1", "--batch-size", "8",
                "--window", "4", "--backend", backend, "--open-set", *rule_args,
                "--swap-demo", "--stats-every", "8",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        rule = rule_args[0] if rule_args else "max_softmax"
        far = "10.0" if rule_args else "5.0"
        assert re.search(
            rf"^open-set: {rule} scoring, threshold \d\.\d{{6}} calibrated for "
            rf"{far}% FAR on \d+ synthetic spoofed frames$",
            captured,
            re.MULTILINE,
        )
        assert re.search(
            r"^\[swap\] model version 1 installed at frame 13 ", captured, re.MULTILINE
        )
        lines = captured.splitlines()
        stats_lines = [line for line in lines if line.startswith("[stats] ")]
        assert len(stats_lines) == 27 // 8
        for line in stats_lines:
            assert re.search(r" rejected=\d+ reject_rate=\d\.\d\d", line), line
        assert re.search(
            r"^  open-set: \d+ of 27 frames rejected \(\d+\.\d%\), model version 1$",
            captured,
            re.MULTILINE,
        )
        drifting = re.findall(r"^  drift (module-\d\d): score ", captured, re.MULTILINE)
        assert drifting == ["module-00", "module-01", "module-02"]
        for line in lines:
            if ": verdict module " in line:
                assert line.endswith(", model v1)"), line

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
            "--split", "S1", "--batch-size", "8",
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
                "--split", "S1", "--workers", "2",
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
            "--split", "S1", "--batch-size", "8",
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
                "--split", "S1", "--profile",
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

    def test_split_of_another_geometry_exits_2(
        self, generated_dataset, trained_model, tmp_path, capsys
    ):
        """The artifact records the trained (K, M, N_SS); a split of another
        geometry is refused instead of being fed to the wrong model."""
        dataset = load_dataset(generated_dataset)
        narrow = replace(
            dataset,
            traces=[
                replace(
                    trace,
                    samples=[
                        replace(sample, v_tilde=sample.v_tilde[:200])
                        for sample in trace.samples
                    ],
                )
                for trace in dataset.traces
            ],
        )
        path = save_dataset(narrow, tmp_path / "narrow.npz")
        for command in ("evaluate", "authenticate", "serve"):
            code = main([command, str(path), str(trained_model), "--split", "S1"])
            assert code == 2
            error = capsys.readouterr().err
            assert "(K, M, N_SS) = (200, 3, 2)" in error
            assert "(234, 3, 2)" in error

    def test_model_options_are_gone_from_the_model_commands(self):
        parser = build_parser()
        for command in ("evaluate", "authenticate", "serve"):
            for option in (
                ["--num-classes", "3"],
                ["--paper-model"],
                ["--stride", "16"],
                ["--stream", "0"],
                ["--seed", "1"],
            ):
                with pytest.raises(SystemExit):
                    parser.parse_args([command, "data.npz", "model-dir", *option])

    def test_unknown_split_is_reported_as_error(self, generated_dataset):
        with pytest.raises(SystemExit):
            # argparse rejects the invalid choice before our handler runs.
            main(["probe", str(generated_dataset), "--split", "S9"])
