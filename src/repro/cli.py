"""Command-line interface of the DeepCSI reproduction.

Seven sub-commands cover the everyday workflow without writing Python:

* ``repro-csi generate`` -- synthesise dataset D1 or D2 and store it as a
  compressed ``.npz`` archive.
* ``repro-csi info`` -- summarise a stored dataset.
* ``repro-csi train`` -- train a DeepCsiClassifier on a Table-I/II split of
  a stored dataset and persist the model.
* ``repro-csi evaluate`` -- evaluate a stored model on a stored dataset split
  and print the confusion matrix.
* ``repro-csi authenticate`` -- quantise a dataset split to angle codewords
  and stream it through the batched
  :class:`~repro.core.engine.InferenceEngine` (micro-batched hot path);
  report per-module verdicts plus throughput.
* ``repro-csi serve`` -- emulate the always-on observer: interleave the
  split's modules into one multi-source stream and push it through the
  sharded :class:`~repro.core.service.StreamingService` worker pool
  (async ingestion, periodic stats dumps, per-source verdicts); with
  ``--open-set`` frames are scored against a FAR-calibrated threshold so
  verdicts can resolve to UNKNOWN, per-source drift is monitored, and
  ``--swap-demo`` hot-swaps the model mid-stream without dropping a frame.
* ``repro-csi probe`` -- run the cheap linear separability probe on a split
  (useful to sanity-check a dataset before paying for CNN training).
* ``repro-csi lint`` -- run the repro-lint static-analysis suite (lock
  discipline, hot-path allocations, dtype contracts, shm/process safety)
  over the project sources; exits non-zero on any violation.

Every sub-command is a thin layer over the library API, so anything the CLI
does can also be scripted.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.separability import linear_probe_accuracy
from repro.core.backends import BACKEND_NAMES
from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.engine import PRECISION_NAMES, UNKNOWN_MODULE_ID, InferenceEngine
from repro.core.lifecycle import DriftConfig
from repro.core.openset import (
    SCORING_RULES,
    OpenSetPolicy,
    calibrate_threshold_far,
    enroll_centroids,
    score_samples,
)
from repro.core.service import ServiceError, StreamingService, resolve_num_workers
from repro.core.model import FAST_MODEL_CONFIG, PAPER_MODEL_CONFIG
from repro.datasets.containers import FeedbackDataset, FeedbackSample
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.datasets.generator import (
    DatasetConfig,
    generate_dataset_d1,
    generate_dataset_d2,
)
from repro.datasets.io import load_dataset, save_dataset
from repro.datasets.adversarial import spoofed_feedback_samples
from repro.feedback.givens import compress_v_matrix
from repro.feedback.quantization import QuantizationConfig, QuantizedAngles, quantize_angles
from repro.datasets.splits import (
    D1_SPLITS,
    D2_SPLITS,
    d1_split,
    d2_split,
)
from repro.nn.compute import COMPUTE_NAMES
from repro.nn.training import TrainingConfig

#: Names accepted by the ``--split`` options.
SPLIT_NAMES = tuple(D1_SPLITS) + tuple(D2_SPLITS)


class CliError(ValueError):
    """Raised for invalid command-line usage (converted to exit code 2)."""


def _dataset_config(args: argparse.Namespace) -> DatasetConfig:
    return DatasetConfig(
        num_modules=args.modules,
        soundings_per_trace=args.soundings,
        snr_db=args.snr_db,
        base_seed=args.seed,
        correlation_length_m=args.correlation_length,
        rician_k=args.rician_k,
    )


def _apply_split(
    dataset: FeedbackDataset, split_name: str, beamformee_id: int
) -> Tuple[List[FeedbackSample], List[FeedbackSample]]:
    if split_name in D1_SPLITS:
        return d1_split(dataset, D1_SPLITS[split_name], beamformee_id=beamformee_id)
    if split_name in D2_SPLITS:
        return d2_split(dataset, D2_SPLITS[split_name], beamformee_id=beamformee_id)
    raise CliError(f"unknown split {split_name!r}; expected one of {SPLIT_NAMES}")


def _feature_config(samples: Sequence[FeedbackSample], stride: int, stream: int) -> FeatureConfig:
    num_subcarriers = samples[0].num_subcarriers
    return FeatureConfig(
        stream_indices=(stream,),
        subcarrier_positions=strided_subcarriers(num_subcarriers, stride),
    )


# --------------------------------------------------------------------------- #
# Sub-command implementations
# --------------------------------------------------------------------------- #
def _cmd_generate(args: argparse.Namespace) -> int:
    config = _dataset_config(args)
    if args.dataset == "d1":
        dataset = generate_dataset_d1(config)
    else:
        dataset = generate_dataset_d2(config)
    path = save_dataset(dataset, args.output)
    print(dataset.summary())
    print(f"stored {dataset.num_samples} samples in {path}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset_path)
    print(dataset.summary())
    sample = dataset.traces[0].samples[0]
    print(
        f"  V~ shape:  K={sample.num_subcarriers}, M={sample.num_tx_antennas}, "
        f"N_SS={sample.num_streams}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset_path)
    train, test = _apply_split(dataset, args.split, args.beamformee)
    feature = _feature_config(train, args.stride, args.stream)
    num_classes = max(s.module_id for s in train + test) + 1
    config = ClassifierConfig(
        num_classes=num_classes,
        feature=feature,
        model=PAPER_MODEL_CONFIG if args.paper_model else FAST_MODEL_CONFIG,
        training=TrainingConfig(epochs=args.epochs, batch_size=args.batch_size),
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    classifier = DeepCsiClassifier(config)
    history = classifier.fit(train)
    report = classifier.evaluate(test, label=f"{args.split} / beamformee {args.beamformee}")
    classifier.save(args.model_dir)
    summary = {
        "split": args.split,
        "train_samples": len(train),
        "test_samples": len(test),
        "epochs_run": history.num_epochs,
        "test_accuracy": report.accuracy,
    }
    (Path(args.model_dir) / "training_summary.json").write_text(
        json.dumps(summary, indent=2)
    )
    print(report)
    print(f"model stored in {args.model_dir}")
    return 0


def _load_classifier(
    args: argparse.Namespace, samples: Sequence[FeedbackSample]
) -> DeepCsiClassifier:
    """Restore the stored model; refuse a split of another ``(K, M, N_SS)``."""
    classifier = DeepCsiClassifier.load(args.model_dir)
    geometry = samples[0].v_tilde.shape
    if geometry != classifier.geometry:
        raise CliError(
            f"split {args.split} has (K, M, N_SS) = {geometry}, but the model "
            f"was trained on {classifier.geometry}"
        )
    return classifier


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset_path)
    _, test = _apply_split(dataset, args.split, args.beamformee)
    classifier = _load_classifier(args, test)
    report = classifier.evaluate(test, label=f"{args.split} / beamformee {args.beamformee}")
    print(report)
    return 0


def _codewords(samples: Sequence[FeedbackSample]) -> List[QuantizedAngles]:
    """Quantise every sample's ``V~`` as an 802.11ac beamformee sends it.

    The streaming path takes frames or their angle codewords, so a split is
    Givens-compressed and quantised at the edge; the engines rebuild ``V~``
    from the integer codewords on their trig-LUT path.
    """
    quantization = QuantizationConfig()
    return [
        quantize_angles(compress_v_matrix(sample.v_tilde), quantization)
        for sample in samples
    ]


def _cmd_authenticate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset_path)
    _, test = _apply_split(dataset, args.split, args.beamformee)
    classifier = _load_classifier(args, test)
    engine = InferenceEngine(
        classifier,
        batch_size=args.batch_size,
        max_latency_frames=args.max_latency_frames,
        vote_window=args.window,
        compute=args.compute,
        precision=args.precision,
        profile=args.profile,
    )
    results = []
    for sample, observation in zip(test, _codewords(test)):
        results.extend(
            engine.submit(observation, source=f"module-{sample.module_id:02d}")
        )
    results.extend(engine.flush())

    labels = [sample.module_id for sample in test]
    correct = sum(
        result.predicted_module_id == labels[result.sequence] for result in results
    )
    stats = engine.stats
    print(
        f"authenticated {stats.frames_out} frames in {stats.batches} "
        f"micro-batches (batch size {args.batch_size}, "
        f"mean {stats.mean_batch_size:.1f}, compute {engine.compute}, "
        f"precision {engine.precision})"
    )
    print(
        f"  throughput: {stats.frames_per_second:.1f} frames/s "
        f"({stats.inference_seconds * 1000.0:.1f} ms inference)"
    )
    print(f"  frame accuracy: {100.0 * correct / len(results):.2f}%")
    for source in engine.sources:
        verdict = engine.verdict(source)
        print(
            f"  {source}: verdict module {verdict.module_id} "
            f"(confidence {verdict.confidence:.2f}, "
            f"{verdict.num_votes}/{verdict.window_size} votes in window)"
        )
    if args.profile:
        stage_total_ns = sum(entry.total_ns for entry in stats.stage_profile) or 1
        print("  per-stage preprocessing profile:")
        for stage in stats.stage_profile:
            print(
                f"    {stage.name:<12s} "
                f"{stage.calls:>5d} batches  "
                f"{stage.total_ns / 1e6:>9.2f} ms total  "
                f"{stage.mean_ms:>7.3f} ms/batch  "
                f"{100.0 * stage.total_ns / stage_total_ns:>5.1f}%"
            )
        total_ns = sum(entry.total_ns for entry in stats.layer_profile) or 1
        print("  per-layer forward profile:")
        for entry in stats.layer_profile:
            print(
                f"    [{entry.index:02d}] {entry.name:<20s} "
                f"{entry.calls:>5d} calls  "
                f"{entry.total_ns / 1e6:>9.2f} ms total  "
                f"{entry.mean_ms:>7.3f} ms/call  "
                f"{100.0 * entry.total_ns / total_ns:>5.1f}%"
            )
    return 0


def _interleave_by_module(
    samples: Sequence[FeedbackSample],
) -> List[Tuple[str, FeedbackSample]]:
    """Round-robin the samples of every module into one multi-source stream.

    Emulates the traffic an always-on observer sees: many beamformers sound
    concurrently, so consecutive captured frames usually belong to different
    sources.
    """
    groups: dict = {}
    for sample in samples:
        groups.setdefault(f"module-{sample.module_id:02d}", []).append(sample)
    names = sorted(groups)
    stream: List[Tuple[str, FeedbackSample]] = []
    position = 0
    while True:
        row = [
            (name, groups[name][position])
            for name in names
            if position < len(groups[name])
        ]
        if not row:
            return stream
        stream.extend(row)
        position += 1


def _build_open_set(
    args: argparse.Namespace,
    classifier: DeepCsiClassifier,
    train: Sequence[FeedbackSample],
) -> Optional[OpenSetPolicy]:
    """Calibrate the serve command's open-set policy (or ``None``)."""
    if args.open_set is None:
        return None
    if not 0.0 <= args.far < 1.0:
        raise CliError("--far must be in [0, 1)")
    if args.open_set == "centroid_distance":
        policy = enroll_centroids(classifier, train)
    else:
        policy = OpenSetPolicy(scoring=args.open_set)
    impostors = spoofed_feedback_samples(
        sorted({sample.module_id for sample in train}),
        shape=train[0].v_tilde.shape,
    )
    threshold = calibrate_threshold_far(
        score_samples(classifier, policy, impostors), target_false_accept_rate=args.far
    )
    policy = replace(policy, threshold=threshold)
    print(
        f"open-set: {args.open_set} scoring, threshold {threshold:.6f} "
        f"calibrated for {100.0 * args.far:.1f}% FAR on "
        f"{len(impostors)} synthetic spoofed frames"
    )
    # Surface the cost of that FAR target on legitimate traffic: when the
    # scoring rule cannot separate spoofed from enrolled frames (max_softmax
    # saturates on a confidently-trained model), hitting the FAR bound can
    # push the implied false-reject rate towards 100% -- the operator should
    # see that at calibration time, not discover it in the verdict stream.
    genuine = score_samples(classifier, policy, train)
    implied_frr = float((genuine < threshold).mean())
    if implied_frr > 0.5:
        print(
            f"open-set: WARNING threshold rejects {100.0 * implied_frr:.1f}% "
            f"of enrolled training frames; the {args.open_set} scores do not "
            "separate spoofed traffic at this FAR target -- consider another "
            "scoring rule (--open-set) or a looser --far"
        )
    return policy


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.repeat < 1:
        raise CliError("--repeat must be >= 1")
    dataset = load_dataset(args.dataset_path)
    train, test = _apply_split(dataset, args.split, args.beamformee)
    classifier = _load_classifier(args, test)
    if args.compute is not None:
        # Before the open-set calibration, so the threshold is scored with
        # the same forward the shards run.
        classifier.set_compute(args.compute)
    open_set = _build_open_set(args, classifier, train)
    interleaved = _interleave_by_module(test)
    codewords = _codewords([sample for _, sample in interleaved])
    stream = [
        (source, quantized)
        for (source, _), quantized in zip(interleaved, codewords)
    ] * args.repeat
    labels = [sample.module_id for _, sample in interleaved] * args.repeat
    workers = resolve_num_workers(args.workers, args.backend)
    swap_at = len(stream) // 2 if args.swap_demo else 0
    print(
        f"serving {len(stream)} frames from "
        f"{len({source for source, _ in stream})} sources through "
        f"{workers} workers on the {args.backend} backend "
        f"(queue depth {args.queue_depth}, batch size {args.batch_size}, "
        f"compute {classifier.compute_name})"
    )
    with StreamingService(
        classifier,
        num_workers=workers,
        queue_depth=args.queue_depth,
        batch_size=args.batch_size,
        max_latency_frames=args.max_latency_frames,
        vote_window=args.window,
        open_set=open_set,
        drift=DriftConfig() if open_set is not None else None,
        backend=args.backend,
        precision=args.precision,
    ) as service:
        results = []
        for submitted, (source, quantized) in enumerate(stream, start=1):
            service.submit(quantized, source=source)
            results.extend(service.collect())
            if swap_at and submitted == swap_at:
                version = service.swap_model(classifier)
                print(
                    f"[swap] model version {version} installed at frame "
                    f"{submitted} with the stream still flowing; every later "
                    f"verdict carries the new version stamp"
                )
            if args.stats_every and submitted % args.stats_every == 0:
                stats = service.stats
                line = (
                    f"[stats] in={stats.frames_in} out={stats.frames_out} "
                    f"batches={stats.batches} "
                    f"inference_fps={stats.frames_per_second:.1f} "
                    f"wall_fps={stats.wall_frames_per_second:.1f} "
                    f"queue_full_waits={stats.queue_full_waits}"
                )
                if open_set is not None:
                    line += (
                        f" rejected={stats.frames_rejected} "
                        f"reject_rate={stats.rejection_rate:.2f}"
                    )
                    drifting = [
                        status.source
                        for status in service.drift_snapshot()
                        if status.drifting
                    ]
                    if drifting:
                        line += f" drifting={','.join(drifting)}"
                print(line)
        service.flush()
        results.extend(service.collect())
        stats = service.stats
        drift = service.drift_snapshot()
        sources = service.sources
        verdicts = {source: service.verdict(source) for source in sources}

    correct = sum(
        result.predicted_module_id == labels[result.sequence] for result in results
    )
    print(
        f"served {stats.frames_out} frames in {stats.batches} micro-batches "
        f"across {service.num_workers} workers ({service.backend_name} backend, "
        f"compute {classifier.compute_name}, precision {service.precision}, "
        f"mean batch {stats.mean_batch_size:.1f})"
    )
    print(
        f"  throughput: {stats.frames_per_second:.1f} frames/s inference, "
        f"{stats.wall_frames_per_second:.1f} frames/s wall "
        f"({stats.queue_full_waits} backpressure stalls)"
    )
    for index, worker in enumerate(stats.worker_stats):
        print(
            f"  worker {index}: {worker.frames_out} frames in "
            f"{worker.batches} batches ({worker.frames_per_second:.1f} frames/s)"
        )
    print(f"  frame accuracy: {100.0 * correct / len(results):.2f}%")
    if open_set is not None:
        print(
            f"  open-set: {stats.frames_rejected} of {stats.frames_out} frames "
            f"rejected ({100.0 * stats.rejection_rate:.1f}%), "
            f"model version {service.model_version}"
        )
        for status in drift:
            print(
                f"  drift {status.source}: score {status.score:.3f} vs "
                f"baseline {status.baseline:.3f} over {status.samples} frames"
                f"{' ** DRIFTING **' if status.drifting else ''}"
            )
    for source in sources:
        verdict = verdicts[source]
        if verdict.module_id == UNKNOWN_MODULE_ID:
            print(
                f"  {source}: verdict UNKNOWN "
                f"(mean rejection {verdict.confidence:.2f}, "
                f"{verdict.num_rejected}/{verdict.window_size} rejected in window)"
            )
            continue
        line = (
            f"  {source}: verdict module {verdict.module_id} "
            f"(confidence {verdict.confidence:.2f}, "
            f"{verdict.num_votes}/{verdict.window_size} votes in window"
        )
        if open_set is not None or verdict.model_version:
            line += f", model v{verdict.model_version}"
        print(line + ")")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint.cli import run_lint_command

    return run_lint_command(args)


def _cmd_probe(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset_path)
    train, test = _apply_split(dataset, args.split, args.beamformee)
    feature = _feature_config(train, args.stride, args.stream)
    accuracy = linear_probe_accuracy(train, test, feature_config=feature)
    print(
        f"linear-probe accuracy on {args.split} (beamformee {args.beamformee}, "
        f"stream {args.stream}): {100.0 * accuracy:.2f}%"
    )
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset_path", help="path of a dataset .npz archive")
    parser.add_argument("--split", default="S1", choices=SPLIT_NAMES)
    parser.add_argument("--beamformee", type=int, default=1, choices=(1, 2))


def _add_feature_arguments(parser: argparse.ArgumentParser) -> None:
    """The input selection a new model is trained (or probed) on."""
    parser.add_argument("--stride", type=int, default=4, help="keep every N-th sub-carrier")
    parser.add_argument("--stream", type=int, default=0, help="spatial stream used as input")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for the tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-csi",
        description="DeepCSI reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="synthesise dataset D1 or D2")
    generate.add_argument("dataset", choices=("d1", "d2"))
    generate.add_argument("output", help="target .npz path")
    generate.add_argument("--modules", type=int, default=10)
    generate.add_argument("--soundings", type=int, default=20)
    generate.add_argument("--snr-db", type=float, default=28.0)
    generate.add_argument("--seed", type=int, default=2022)
    generate.add_argument("--correlation-length", type=float, default=0.15)
    generate.add_argument("--rician-k", type=float, default=0.5)
    generate.set_defaults(handler=_cmd_generate)

    info = subparsers.add_parser("info", help="summarise a stored dataset")
    info.add_argument("dataset_path")
    info.set_defaults(handler=_cmd_info)

    train = subparsers.add_parser("train", help="train a DeepCSI classifier")
    _add_dataset_arguments(train)
    _add_feature_arguments(train)
    train.add_argument("model_dir", help="directory the trained model is stored in")
    train.add_argument("--epochs", type=int, default=15)
    train.add_argument("--batch-size", type=int, default=32)
    train.add_argument("--learning-rate", type=float, default=2e-3)
    train.add_argument(
        "--paper-model",
        action="store_true",
        help="use the full 5x128 paper architecture instead of the fast one",
    )
    train.set_defaults(handler=_cmd_train)

    evaluate = subparsers.add_parser("evaluate", help="evaluate a stored model")
    _add_dataset_arguments(evaluate)
    evaluate.add_argument("model_dir")
    evaluate.set_defaults(handler=_cmd_evaluate)

    authenticate = subparsers.add_parser(
        "authenticate",
        help="stream a dataset split through the batched inference engine",
    )
    _add_dataset_arguments(authenticate)
    authenticate.add_argument("model_dir")
    authenticate.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="micro-batch size of the inference engine",
    )
    authenticate.add_argument(
        "--max-latency-frames",
        type=int,
        default=None,
        help="force a partial batch after this many buffered frames",
    )
    authenticate.add_argument(
        "--window",
        type=int,
        default=16,
        help="per-source ring-buffer length for the windowed majority vote",
    )
    authenticate.add_argument(
        "--compute",
        default=None,
        choices=COMPUTE_NAMES,
        help="inference compute backend: fp32 (arena float32 forward); "
        "omit for the fp64 reference path",
    )
    authenticate.add_argument(
        "--precision",
        default="exact",
        choices=PRECISION_NAMES,
        help="preprocessing precision of the codeword fast path: exact "
        "(float64 trig LUTs, bitwise identical to the legacy pipeline) or "
        "fast (complex64/float32 tables)",
    )
    authenticate.add_argument(
        "--profile",
        action="store_true",
        help="accumulate and print per-stage preprocessing and per-layer "
        "forward timings",
    )
    authenticate.set_defaults(handler=_cmd_authenticate)

    serve = subparsers.add_parser(
        "serve",
        help="run the sharded multi-worker streaming service on a split",
    )
    _add_dataset_arguments(serve)
    serve.add_argument("model_dir")
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="number of sharded inference workers (default: auto - 1 on a "
        "single core, up to 4 on multi-core hosts)",
    )
    serve.add_argument(
        "--backend",
        default="threads",
        choices=BACKEND_NAMES,
        help="execution backend of the worker shards: in-process threads, or "
        "processes fed through shared-memory ring buffers (multi-core)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=256,
        help="per-shard ingestion queue bound (backpressure beyond this)",
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="micro-batch size of every shard's inference engine",
    )
    serve.add_argument(
        "--max-latency-frames",
        type=int,
        default=None,
        help="force a partial batch after this many buffered frames per shard",
    )
    serve.add_argument(
        "--window",
        type=int,
        default=16,
        help="per-source ring-buffer length for the windowed majority vote",
    )
    serve.add_argument(
        "--open-set",
        nargs="?",
        const="max_softmax",
        default=None,
        choices=SCORING_RULES,
        metavar="RULE",
        help="reject frames whose known-ness score falls below a calibrated "
        "threshold so windowed verdicts can resolve to UNKNOWN; the optional "
        f"value picks the scoring rule out of {SCORING_RULES} "
        "(default max_softmax); also enables the per-source drift monitor",
    )
    serve.add_argument(
        "--far",
        type=float,
        default=0.05,
        help="target false-accept rate the open-set threshold is calibrated "
        "for, against synthetic spoofed impostor traffic (default 0.05)",
    )
    serve.add_argument(
        "--swap-demo",
        action="store_true",
        help="hot-swap the model (same weights, bumped version) halfway "
        "through the stream to demonstrate the zero-downtime swap",
    )
    serve.add_argument(
        "--stats-every",
        type=int,
        default=0,
        help="dump service stats every N submitted frames (0 disables)",
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="loop the interleaved stream this many times (sustained load)",
    )
    serve.add_argument(
        "--compute",
        default=None,
        choices=COMPUTE_NAMES,
        help="inference compute backend every shard runs: fp32 (arena "
        "float32 forward); omit for the fp64 reference path",
    )
    serve.add_argument(
        "--precision",
        default="exact",
        choices=PRECISION_NAMES,
        help="preprocessing precision every shard engine applies to the "
        "angle codewords (exact = bitwise float64 LUTs, "
        "fast = complex64/float32)",
    )
    serve.set_defaults(handler=_cmd_serve)

    probe = subparsers.add_parser(
        "probe", help="linear separability probe on a dataset split"
    )
    _add_dataset_arguments(probe)
    _add_feature_arguments(probe)
    probe.set_defaults(handler=_cmd_probe)

    from repro.analysis.lint.cli import build_lint_parser

    lint = subparsers.add_parser(
        "lint",
        help="run the repro-lint static-analysis suite over the sources",
    )
    build_lint_parser(lint)
    lint.set_defaults(handler=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CliError, ServiceError, ValueError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
