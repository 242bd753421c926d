"""Spectrum-monitoring scenario: authenticate an AP from sniffed frames.

The paper's motivating use case (Section I) is a spectrum observer that must
verify *which* Wi-Fi device is using the spectrum without holding any
cryptographic material.  This example plays that scenario end to end on the
simulated network:

1. **Enrollment** -- the observer collects compressed-beamforming frames for
   every known AP module (monitor mode, no association needed), reconstructs
   the ``V~`` matrices and trains the DeepCSI classifier.
2. **Online authentication** -- a device claiming to be module 0 starts
   transmitting.  The observer sniffs a handful of fresh sounding exchanges
   and drains them through the streaming
   :class:`~repro.core.engine.InferenceEngine`, whose open-set policy
   rejects any frame classified with a softmax confidence below 0.5.  The
   engine's windowed majority vote names the transmitter, and the claim is
   accepted only when that verdict is the claimed module.  The experiment is
   repeated with a legitimate transmitter (module 0) and with an
   impersonator (module 3 claiming to be module 0).

Run it with::

    python examples/static_authentication.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.engine import InferenceEngine
from repro.core.model import FAST_MODEL_CONFIG
from repro.core.openset import OpenSetPolicy
from repro.datasets.containers import FeedbackSample
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.feedback.capture import MonitorCapture, SoundingSimulator, station_mac
from repro.nn.training import TrainingConfig
from repro.phy.channel import MultipathChannel
from repro.phy.devices import AccessPoint, make_beamformee, make_module_population
from repro.phy.geometry import AP_POSITION_A, beamformee_positions
from repro.phy.ofdm import sounding_layout

NUM_MODULES = 5
ENROLL_SOUNDINGS = 25
ONLINE_SOUNDINGS = 8


def build_network(module, layout, environment_seed=11):
    """The monitored Wi-Fi network: one AP and one associated station."""
    access_point = AccessPoint(module=module, position=AP_POSITION_A)
    bf_position, _ = beamformee_positions(3)
    beamformee = make_beamformee(1, bf_position, num_antennas=2, num_streams=2)
    channel = MultipathChannel(num_scatterers=8, environment_seed=environment_seed)
    return SoundingSimulator(
        access_point=access_point,
        beamformees=[beamformee],
        channel=channel,
        layout=layout,
        pa_flip_probability=0.0,
    )


def sniff_samples(module, layout, num_soundings, seed):
    """Capture frames from the network of ``module`` and label them."""
    simulator = build_network(module, layout)
    capture = MonitorCapture()
    simulator.sound_many(num_soundings, np.random.default_rng(seed), capture=capture)
    samples = []
    for feedback in capture.reconstruct(source_address=station_mac(1)):
        samples.append(
            FeedbackSample(
                v_tilde=feedback.v_tilde,
                module_id=module.module_id,
                beamformee_id=1,
            )
        )
    return samples


def authenticate(classifier, capture, claimed_id):
    """Drain the station's sniffed frames through the engine; print the verdict."""
    source = station_mac(1)
    engine = InferenceEngine(classifier, open_set=OpenSetPolicy(threshold=0.5))
    results = engine.drain(capture.filter(source_address=source))
    verdict = engine.verdict(source)
    accepted = verdict.module_id == claimed_id
    print(f"  per-frame votes: {[result.predicted_module_id for result in results]}")
    print(
        f"  verdict: predicted module {verdict.module_id} "
        f"(confidence {verdict.confidence:.2f}) -> "
        f"{'ACCEPTED' if accepted else 'REJECTED'}"
    )


def main() -> None:
    layout = sounding_layout(80)
    modules = make_module_population(num_modules=NUM_MODULES)

    # ------------------------------------------------------------------ #
    # 1. Enrollment: sniff every known module and train the classifier.
    # ------------------------------------------------------------------ #
    print(f"Enrolling {NUM_MODULES} Wi-Fi modules from sniffed feedback frames...")
    start = time.time()
    enrollment_samples = []
    for module in modules:
        enrollment_samples.extend(
            sniff_samples(module, layout, ENROLL_SOUNDINGS, seed=module.module_id)
        )
    print(
        f"  captured {len(enrollment_samples)} feedback frames in "
        f"{time.time() - start:.1f} s"
    )

    classifier = DeepCsiClassifier(
        ClassifierConfig(
            num_classes=NUM_MODULES,
            feature=FeatureConfig(
                stream_indices=(0,),
                subcarrier_positions=strided_subcarriers(234, 4),
            ),
            model=FAST_MODEL_CONFIG,
            training=TrainingConfig(epochs=12, batch_size=32),
            learning_rate=2e-3,
        )
    )
    start = time.time()
    classifier.fit(enrollment_samples)
    print(f"  enrolled in {time.time() - start:.1f} s\n")

    # ------------------------------------------------------------------ #
    # 2. Online authentication of a legitimate transmitter.
    # ------------------------------------------------------------------ #
    claimed_id = 0
    print(f"Scenario A - legitimate transmitter (module {claimed_id}) claims ID {claimed_id}")
    capture = MonitorCapture()
    build_network(modules[claimed_id], layout).sound_many(
        ONLINE_SOUNDINGS, np.random.default_rng(1000), capture=capture
    )
    authenticate(classifier, capture, claimed_id)
    print()

    # ------------------------------------------------------------------ #
    # 3. Online authentication of an impersonator.
    # ------------------------------------------------------------------ #
    impostor_id = 3
    print(
        f"Scenario B - impersonator (module {impostor_id}) claims ID {claimed_id}"
    )
    capture = MonitorCapture()
    build_network(modules[impostor_id], layout).sound_many(
        ONLINE_SOUNDINGS, np.random.default_rng(2000), capture=capture
    )
    authenticate(classifier, capture, claimed_id)
    print(
        "\nThe legitimate transmitter should be ACCEPTED and the impersonator "
        "REJECTED: the RF fingerprint, not the claimed identity, drives the decision."
    )


if __name__ == "__main__":
    main()
