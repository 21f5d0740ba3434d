"""The transient memory of the pool path does not grow with the pool: the
draws run in place and `pgd` steps on row blocks.  Peaks are traced with
`tracemalloc`, which sees numpy's array buffers, and include the output.

Bounds, from traced peaks on x86-64 with numpy 2.4 (the out-of-place code
before the change in brackets):
- `pgd` on 4 blocks over 1 block: 1.37 (3.75); bound 2.0.
- `Rng.normal` over its output: 1.50 (3.50); bound 1.75.
- `synth_digits` over its pixels: 2.52 (4.52); bound 3.0.
"""
import tracemalloc

from mmdefense import attacks
from mmdefense.attacks import AttackConfig, pgd
from mmdefense.dataio import synth_digits
from mmdefense.models import ClassifierParams
from mmdefense.rng import Rng


def traced_peak(f):
    """Traced peak bytes of `f()` and its result, after one untraced call
    (numpy allocates some caches on first use)."""
    f()
    tracemalloc.start()
    try:
        out = f()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_pgd_peak_is_bounded_by_the_block():
    classifier = ClassifierParams.init(64, 4, Rng(0))
    cfg = AttackConfig("linf", 0.1, 0.02, 2, 1, True)
    peaks = {}
    for blocks in (1, 4):
        n = blocks * attacks.PGD_BLOCK_ROWS
        x = Rng(1).uniform((n, 64))
        y = Rng(2).integers(0, 4, n)
        peaks[blocks], _ = traced_peak(lambda: pgd(classifier, x, y, cfg, Rng(3)))
    assert peaks[4] <= 2.0 * peaks[1], peaks


def test_normal_peak_is_at_most_1_75_times_its_output():
    for shape in ((1000, 64), (999, 63)):
        peak, out = traced_peak(lambda: Rng(4).normal(shape, 0.0, 1.0))
        assert peak <= 1.75 * out.nbytes, (shape, peak / out.nbytes)


def test_synth_digits_peak_is_at_most_3_times_its_pixels():
    peak, images = traced_peak(lambda: synth_digits(Rng(5), 2000))
    assert peak <= 3.0 * images.data.nbytes, peak / images.data.nbytes
