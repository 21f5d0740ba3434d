import multiprocessing

import numpy as np
import pytest

from mmdefense.attacks import AttackConfig, NoiseConfig, pgd
from mmdefense.dataio import make_split, synth_digits
from mmdefense.defense import DefensePipeline, train_denoiser
from mmdefense.discrepancy import (FeaturizerView, calibrate_threshold,
                                   optimize_kernel)
from mmdefense.models import train_classifier
from mmdefense.rng import Rng


class DigitSetup:
    """Fully trained desk-scale defense, shared across test modules."""

    def __init__(self):
        rng = Rng(0)
        self.images = synth_digits(rng.fork(), 4000, 4, 8, 0.1)
        self.split = make_split(4000, 0.7, 100, rng.fork())
        self.train = self.images.subset(self.split.train)
        self.test = self.images.subset(self.split.test)
        self.reference = self.images.subset(self.split.val_reference).flat
        self.classifier, self.train_acc = train_classifier(
            self.train, 30, 1e-3, rng.fork())
        self.featurizer = FeaturizerView(self.classifier)
        self.train_attack = AttackConfig(norm="linf", eps=0.1, step=0.02,
                                         iters=10, eot=1, random_start=True)
        self.eval_attack = AttackConfig(norm="linf", eps=0.1, step=0.02,
                                        iters=40, eot=10, random_start=True)
        self.noise = NoiseConfig(0.0, 0.25)
        self.adv_train = pgd(self.classifier, self.train.flat,
                             self.train.labels, self.train_attack, rng.fork())
        self.kernel, self.kernel_trajectory = optimize_kernel(
            self.train.flat, self.adv_train, self.featurizer,
            epochs=200, lr=2e-4, batch_size=100, lam=1e-8, rng=rng.fork())
        calib_pool = np.concatenate([self.train.flat, self.reference])
        self.detector = calibrate_threshold(self.kernel, calib_pool, 100,
                                            0.05, 200, rng.fork())
        self.denoiser, self.denoiser_trajectory = train_denoiser(
            self.train.flat, self.train.labels, self.kernel, self.classifier,
            self.train_attack, self.noise, rng.fork(), alpha=1e-2,
            epochs=60, lr=1e-3, batch_size=100)
        self.pipeline = DefensePipeline(self.detector, self.denoiser,
                                        self.classifier, self.reference)
        self.rng = rng


@pytest.fixture(scope="session")
def digit_setup():
    return DigitSetup()


@pytest.fixture(autouse=True)
def no_leaked_child_process():
    """Fail any test that leaves a live multiprocessing child behind."""
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join()
    assert not leaked, f"test left child processes running: {leaked}"
