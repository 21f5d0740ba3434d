"""`Rng.skip_normal` leaves the stream exactly where `normal` calls would."""
import numpy as np
import pytest

from mmdefense.rng import Rng


def next_draws(rng):
    return (np.asarray(rng.normal((3,), 0.0, 1.0)).tobytes(),
            np.asarray(rng.uniform((5,))).tobytes(),
            rng.integers(0, 10, (4,)).tobytes())


@pytest.mark.parametrize("count", [0, 1, 10])
@pytest.mark.parametrize("shape", [(), (1,), (7, 5), (100, 64)],
                         ids=["scalar", "1", "7x5", "100x64"])
@pytest.mark.parametrize("buffered_half", [False, True],
                         ids=["aligned", "buffered-half"])
def test_skip_equals_count_normal_calls(shape, count, buffered_half):
    drawn, skipped = Rng(5), Rng(5)
    if buffered_half:  # leaves a 32-bit half buffered in both generators
        drawn.choice(10, 3)
        skipped.choice(10, 3)
        assert drawn._gen.bit_generator.state["has_uint32"] == 1
    for _ in range(count):
        drawn.normal(shape, 0.0, 1.0)
    skipped.skip_normal(shape, count)
    assert next_draws(skipped) == next_draws(drawn)


def test_negative_count_rejected():
    with pytest.raises(ValueError, match="count must be >= 0, got -1"):
        Rng(5).skip_normal((3,), -1)
