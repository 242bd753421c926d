"""Open-set authentication: flagging Wi-Fi modules that were never enrolled.

The paper motivates radio fingerprinting with spectrum-access enforcement: a
monitor must not only recognise the enrolled transmitters but also flag
radios it has never seen.  This example builds that scenario on top of the
DeepCSI classifier:

1. generate a small static dataset with 8 Wi-Fi modules,
2. enrol (train on) the first 6 modules only,
3. calibrate an acceptance threshold on the enrolled modules' feedback,
4. evaluate how well the monitor accepts enrolled modules, classifies them
   correctly, and rejects the 2 never-seen modules.

Run it with::

    python examples/openset_authentication.py

It completes in about a minute on a laptop CPU.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.analysis.ascii_plots import bar_chart
from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.model import FAST_MODEL_CONFIG
from repro.core.openset import (
    OpenSetPolicy,
    calibrate_threshold,
    evaluate_open_set,
    score_samples,
)
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.datasets.generator import DatasetConfig, generate_dataset_d1
from repro.datasets.splits import D1_SPLITS, d1_split
from repro.nn.training import TrainingConfig
from repro.phy.ofdm import sounding_layout

#: Modules the monitor is allowed to authenticate.
ENROLLED_MODULES = (0, 1, 2, 3, 4, 5)
#: Modules that show up on the air but were never enrolled.
UNKNOWN_MODULES = (6, 7)


def main() -> None:
    start = time.time()
    print("Generating a small D1-style dataset with 8 Wi-Fi modules...")
    config = DatasetConfig(num_modules=8, soundings_per_trace=10)
    dataset = generate_dataset_d1(config)

    layout = sounding_layout(config.bandwidth_mhz)
    feature = FeatureConfig(
        stream_indices=(0,),
        subcarrier_positions=strided_subcarriers(layout.num_subcarriers, 4),
    )

    # Enrolled modules follow the S1 protocol (train on the first 80 % of
    # every trace, test on the rest); unknown modules are test-only.
    enrolled = dataset.filter(module_ids=ENROLLED_MODULES)
    unknown = dataset.filter(module_ids=UNKNOWN_MODULES)
    train, known_test = d1_split(enrolled, D1_SPLITS["S1"], beamformee_id=1)
    unknown_test = unknown.samples(beamformee_id=1)

    print(f"Training the DeepCSI classifier on {len(train)} enrolled samples...")
    classifier = DeepCsiClassifier(
        ClassifierConfig(
            num_classes=len(ENROLLED_MODULES),
            feature=feature,
            model=FAST_MODEL_CONFIG,
            training=TrainingConfig(epochs=12, batch_size=32),
            learning_rate=2e-3,
        )
    )
    classifier.fit(train)

    print("Calibrating the acceptance threshold on enrolled-device feedback...")
    policy = OpenSetPolicy(scoring="max_softmax")
    threshold = calibrate_threshold(
        score_samples(classifier, policy, train), target_false_reject_rate=0.05
    )
    policy = replace(policy, threshold=threshold)
    print(f"  threshold = {threshold:.3f} (targets <= 5% false rejections)")

    metrics = evaluate_open_set(classifier, policy, known_test, unknown_test)
    print()
    print("Open-set authentication results")
    print("-------------------------------")
    print(
        bar_chart(
            ["enrolled accepted", "enrolled correctly identified", "unknown accepted"],
            [
                100.0 * (1.0 - metrics.false_reject_rate),
                100.0 * metrics.known_accuracy,
                100.0 * metrics.false_accept_rate,
            ],
            width=40,
            unit="%",
            max_value=100.0,
        )
    )
    print(f"score separation (AUROC): {metrics.auroc:.3f}")
    print()
    print(
        "A deployment would alert on the rejected transmissions: they either "
        "come from a radio outside the enrolled population or from an enrolled "
        "radio observed under heavy channel mismatch."
    )
    print(f"done in {time.time() - start:.0f} s")


if __name__ == "__main__":
    main()
