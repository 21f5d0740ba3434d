"""The job worker: one forked child that runs each job as a generator,
sends its results in order, relays its exceptions and never outlives its
block."""
import os

import pytest

from mmdefense.worker import job_worker, workers_peak_rss


def square_or_fail(x):
    if x < 0:
        raise ValueError(f"negative job {x}")
    if x == 0:
        os._exit(5)
    yield x * x


def staged(x, fail_after=None, log=None):
    """Yields x, x + 1 and x + 2; raises after the stage `fail_after`
    (0 = the first) if given; then appends `x` to the file `log`."""
    for k in range(3):
        yield x + k
        if k == fail_after:
            raise ValueError(f"job {x} failed after stage {k}")
    if log is not None:
        with open(log, "a") as f:
            f.write(f"{x}\n")


def test_results_come_back_in_submission_order():
    with job_worker(square_or_fail) as w:
        w.submit(3)
        w.submit(4)
        assert (w.result(), w.result()) == (9, 16)


def test_staged_results_come_back_in_order():
    with job_worker(staged) as w:
        w.submit(10)
        w.submit(20)
        assert [w.result() for _ in range(6)] == [10, 11, 12, 20, 21, 22]


def test_code_after_the_last_result_runs_before_the_next_job(tmp_path):
    log = tmp_path / "log"

    def log_or_read(x):
        if x:
            yield from staged(x, log=log)
        else:
            yield log.read_text()  # the previous job's tail has run

    with job_worker(log_or_read) as w:
        w.submit(7)
        assert [w.result() for _ in range(3)] == [7, 8, 9]
        w.submit(0)
        assert w.result() == "7\n"


def test_job_exception_is_raised_when_its_result_is_read():
    with pytest.raises(ValueError, match="^negative job -2$"):
        with job_worker(square_or_fail) as w:
            w.submit(-2)  # the job fails, but only reading its result raises
            submitted = True
            w.result()
    assert submitted


def test_exception_after_the_first_result_is_raised_at_the_second():
    with job_worker(staged) as w:
        w.submit(5, 0)
        assert w.result() == 5
        with pytest.raises(ValueError, match="^job 5 failed after stage 0$"):
            w.result()


def test_exception_after_the_last_result_is_raised_at_the_next_result():
    with job_worker(staged) as w:
        w.submit(5, 2)
        assert [w.result() for _ in range(3)] == [5, 6, 7]
        w.submit(9)  # may reach a worker that has already stopped
        with pytest.raises(ValueError, match="^job 5 failed after stage 2$"):
            w.result()


@pytest.mark.parametrize("submit_again", [False, True],
                         ids=["last-job", "job-queued-behind"])
def test_exception_after_the_last_result_is_raised_at_block_exit(
        submit_again):
    with pytest.raises(ValueError, match="^job 5 failed after stage 2$"):
        with job_worker(staged) as w:
            w.submit(5, 2)
            assert [w.result() for _ in range(3)] == [5, 6, 7]
            if submit_again:
                w.submit(9)


def test_dead_worker_is_a_runtime_error_with_its_exit_code():
    with pytest.raises(RuntimeError, match="^job worker exited with code 5$"):
        with job_worker(square_or_fail) as w:
            w.submit(0)
            w.result()


def test_worker_dying_after_the_last_result_is_raised_at_block_exit():
    def exit_after_result(x):
        yield x
        os._exit(6)

    with pytest.raises(RuntimeError, match="^job worker exited with code 6$"):
        with job_worker(exit_after_result) as w:
            w.submit(1)
            assert w.result() == 1


def test_caller_exception_stops_a_busy_worker():
    with pytest.raises(KeyError):
        with job_worker(square_or_fail) as w:
            w.submit(10 ** 6)
            raise KeyError("caller failed")


def test_a_stopped_worker_reports_its_peak_to_the_open_blocks():
    with workers_peak_rss() as outer:
        with workers_peak_rss() as inner, job_worker(square_or_fail) as w:
            w.submit(3)
            assert w.result() == 9
        with pytest.raises(ValueError), job_worker(square_or_fail) as w:
            w.submit(-1)
            w.result()  # a worker that raised reports nothing
    with job_worker(square_or_fail):
        pass
    assert len(inner) == 1 and inner[0] > 0
    assert outer == inner
