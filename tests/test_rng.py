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
@pytest.mark.parametrize("shape", [(1,), (7, 5), (100, 64)],
                         ids=["1", "7x5", "100x64"])
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


def out_of_place_normal(rng, shape, mu, sigma):
    """`Rng.normal` as written before it ran in place: the reference."""
    n = int(np.prod(shape))
    m = (n + 1) // 2
    u1 = 1.0 - rng._gen.random(m)
    u2 = rng._gen.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                        r * np.sin(2.0 * np.pi * u2)])[:n]
    return (mu + sigma * z).reshape(shape)


@pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.3, 0.7), (-1.5, 0.0),
                                       (0.0, 0.0)])
@pytest.mark.parametrize("shape", [(), (1,), (2,), (7,), (8,), (3, 5),
                                   (100, 64)],
                         ids=["scalar", "1", "2", "7", "8", "3x5", "100x64"])
def test_in_place_normal_equals_the_out_of_place_expression(shape, mu, sigma):
    for seed in range(40):
        got_rng, want_rng = Rng(seed), Rng(seed)
        got = got_rng.normal(shape, mu, sigma)
        want = out_of_place_normal(want_rng, shape, mu, sigma)
        # bytes, so that the sign of a zero counts too
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert next_draws(got_rng) == next_draws(want_rng)
