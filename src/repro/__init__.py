"""DeepCSI reproduction: MU-MIMO Wi-Fi radio fingerprinting from compressed
beamforming feedback.

The package is organised as the paper's system is:

* :mod:`repro.phy` -- Wi-Fi PHY substrate (OFDM, multipath channel, hardware
  impairments, MIMO beamforming, mobility).
* :mod:`repro.feedback` -- the IEEE 802.11ac compressed beamforming
  feedback path (Givens compression, quantisation, frames, capture).
* :mod:`repro.datasets` -- synthetic counterparts of the paper's D1/D2
  datasets, feature extraction and the S1..S6 train/test splits.
* :mod:`repro.nn` -- a from-scratch numpy deep-learning library.
* :mod:`repro.core` -- the DeepCSI classifier, baselines, evaluation and the
  end-to-end authentication pipeline.
* :mod:`repro.experiments` -- one module per figure of the paper's
  evaluation section.

Quickstart::

    from repro.datasets import DatasetConfig, generate_dataset_d1, d1_split, D1_SPLITS
    from repro.core import DeepCsiClassifier, ClassifierConfig

    dataset = generate_dataset_d1(DatasetConfig(num_modules=5, soundings_per_trace=10))
    train, test = d1_split(dataset, D1_SPLITS["S1"], beamformee_id=1)
    classifier = DeepCsiClassifier(ClassifierConfig(num_classes=5))
    classifier.fit(train)
    report = classifier.evaluate(test)
    print(report)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
