"""A generator assigned another's `Rng.state` continues bitwise as that one
does, so a caller can take over the draws a forked worker made."""
import pickle

import numpy as np
import pytest

from mmdefense.rng import Rng


def next_draws(rng):
    return (np.asarray(rng.normal((3,), 0.0, 1.0)).tobytes(),
            np.asarray(rng.uniform((5,))).tobytes(),
            rng.integers(0, 10, (4,)).tobytes(),
            rng.choice(10, 3).tobytes())


def buffer_a_half(*rngs):
    """Leave a 32-bit half buffered in each generator."""
    for rng in rngs:
        rng.choice(10, 3)
        assert rng.state["has_uint32"] == 1


@pytest.mark.parametrize("count", [0, 1, 10])
@pytest.mark.parametrize("shape", [(), (1,), (7, 5), (100, 64)],
                         ids=["scalar", "1", "7x5", "100x64"])
@pytest.mark.parametrize("buffered_half", [False, True],
                         ids=["aligned", "buffered-half"])
def test_skip_equals_count_normal_calls(shape, count, buffered_half):
    # the caller skips a worker's `count` normal calls by taking its state
    drawn, skipped = Rng(5), Rng(5)
    if buffered_half:
        buffer_a_half(drawn, skipped)
    worker = skipped.clone()
    for _ in range(count):
        drawn.normal(shape, 0.0, 1.0)
        worker.normal(shape, 0.0, 1.0)
    skipped.state = worker.state
    assert next_draws(skipped) == next_draws(drawn)


@pytest.mark.parametrize("pickled", [False, True], ids=["direct", "pickled"])
@pytest.mark.parametrize("buffered_half", [False, True],
                         ids=["aligned", "buffered-half"])
def test_assigned_state_continues_like_the_clone(buffered_half, pickled):
    rng = Rng(6)
    if buffered_half:
        buffer_a_half(rng)
    clone = rng.clone()
    clone.normal((7, 5), 0.0, 1.0)
    clone.uniform((3,))
    clone.choice(20, 5)
    state = pickle.loads(pickle.dumps(clone.state)) if pickled else clone.state
    rng.state = state
    assert rng.state == clone.state
    assert next_draws(rng) == next_draws(clone)


def test_state_is_a_snapshot():
    rng = Rng(7)
    state = rng.state
    first = next_draws(rng)
    rng.state = state
    assert next_draws(rng) == first
