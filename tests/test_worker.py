"""The job worker: one forked child that answers jobs in order, relays its
exceptions and never outlives its block."""
import multiprocessing
import os

import pytest

from mmdefense.worker import job_worker


def square_or_fail(x):
    if x < 0:
        raise ValueError(f"negative job {x}")
    if x == 0:
        os._exit(5)
    return x * x


def test_results_come_back_in_submission_order():
    with job_worker(square_or_fail) as w:
        w.submit(3)
        w.submit(4)
        assert (w.result(), w.result()) == (9, 16)
    assert multiprocessing.active_children() == []


def test_job_exception_is_raised_when_its_result_is_read():
    with pytest.raises(ValueError, match="^negative job -2$"):
        with job_worker(square_or_fail) as w:
            w.submit(-2)  # the job fails, but only reading its result raises
            submitted = True
            w.result()
    assert submitted
    assert multiprocessing.active_children() == []


def test_dead_worker_is_a_runtime_error_with_its_exit_code():
    with pytest.raises(RuntimeError, match="^PGD worker exited with code 5$"):
        with job_worker(square_or_fail) as w:
            w.submit(0)
            w.result()
    assert multiprocessing.active_children() == []


def test_caller_exception_stops_a_busy_worker():
    with pytest.raises(KeyError):
        with job_worker(square_or_fail) as w:
            w.submit(10 ** 6)
            raise KeyError("caller failed")
    assert multiprocessing.active_children() == []
