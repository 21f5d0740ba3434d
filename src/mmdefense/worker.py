"""A job worker: one forked process that answers jobs sent over a pipe.

Four callers start one each.  `optimize_kernel` computes each epoch's
monitor in it, one epoch behind the kernel step.  `calibrate_threshold`
computes the first half of its trials' statistics in it.  `train_denoiser`
submits one job for the whole run, which draws every permutation, PGD
start and noise from the worker's copy of the generator and yields each
minibatch's noised PGD result ahead of the denoiser step.
`adaptive_pgd_eot` draws each iteration's EOT noises and runs half of its
replicas in it.  The last two send the worker generator's `Rng.state`
with each result that used draws, and the caller takes it as its own.
The child inherits its function and everything the function reads through
`fork`, so no weights are pickled and monkeypatches made in the parent
before the call reach the child; only the jobs' arguments and results
cross the pipe.
"""
from __future__ import annotations

import multiprocessing
import signal
from contextlib import contextmanager
from typing import Callable, Iterator


def _serve(conn, parent_end, fn: Callable[..., Iterator]):
    """Run each job `fn(*job)` to its end, sending every value it yields as
    one result, until None arrives; an exception is sent back and ends the
    worker."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops us
    try:
        while (job := conn.recv()) is not None:
            try:
                for out in fn(*job):
                    conn.send((True, out))
            except Exception as exc:  # re-raised in the parent
                conn.send((False, exc))
                return
    except (EOFError, ConnectionError):  # the parent is gone
        return


class Worker:
    """The parent's end: `submit` a job, then read its results in order."""

    def __init__(self, conn, process):
        self._conn = conn
        self._process = process

    def submit(self, *job):
        self._send(job)

    def _send(self, message):
        try:
            self._conn.send(message)
        except ConnectionError:  # the worker has stopped; reading says why
            pass

    def result(self):
        """The oldest unread result; an exception the worker raised since
        its previous result is re-raised here with its type and message."""
        try:
            ok, value = self._conn.recv()
        except (EOFError, ConnectionError):
            self._died()
        if not ok:
            raise value
        return value

    def _died(self):
        self._process.join()
        raise RuntimeError(
            f"job worker exited with code {self._process.exitcode}") from None

    def _finish(self):
        """Stop the worker after its last job; what it raised or how it died
        after the last result read is raised here."""
        self._send(None)
        while True:
            try:
                ok, value = self._conn.recv()
            except (EOFError, ConnectionError):
                break
            if not ok:
                raise value
        self._process.join()
        if self._process.exitcode != 0:
            self._died()


@contextmanager
def job_worker(fn: Callable[..., Iterator]):
    """Yield a forked worker that runs each submitted job as the generator
    `fn(*job)` while the caller works on: each yielded value is one result,
    read with `result()` in order, and the code after a job's last yield
    runs before the next job is read.  This needs a POSIX `fork`; the
    worker is always joined before the block is left, and terminated first
    if the block raised.  An exception the worker raises after the last
    result read reaches the caller at its next `result()` or when the block
    is left.  The child draws only from its own forked copies of the
    caller's generators; a caller that must end where a serial loop would
    has the child yield its generator's `Rng.state` with the draws and
    assigns it to its own generator.
    """
    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe()
    process = ctx.Process(target=_serve, daemon=True,
                          args=(child_end, conn, fn))
    process.start()
    child_end.close()
    try:
        worker = Worker(conn, process)
        yield worker
        worker._finish()
    except BaseException:
        process.terminate()
        raise
    finally:
        process.join()
        conn.close()
