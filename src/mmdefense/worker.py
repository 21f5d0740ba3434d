"""A job worker: one forked process that answers jobs sent over a pipe.

`train_denoiser` runs PGD against the frozen classifier in it, one minibatch
ahead of the denoiser step, and `adaptive_pgd_eot` runs half of each
iteration's EOT replicas in it.  The child inherits its function and
everything the function reads through `fork`, so no weights are pickled and
monkeypatches made in the parent before the call reach the child; only the
jobs' arguments and results cross the pipe.
"""
from __future__ import annotations

import multiprocessing
import signal
from contextlib import contextmanager
from typing import Callable


def _serve(conn, parent_end, fn: Callable):
    """Answer each job with `fn(*job)` until None arrives; an exception is
    sent back and ends the worker."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops us
    try:
        while (job := conn.recv()) is not None:
            try:
                out = fn(*job)
            except Exception as exc:  # re-raised in the parent
                conn.send((False, exc))
                return
            conn.send((True, out))
    except (EOFError, BrokenPipeError):  # the parent is gone
        return


class Worker:
    """The parent's end: `submit` a job, then read its `result`, in order."""

    def __init__(self, conn, process):
        self._conn = conn
        self._process = process

    def submit(self, *job):
        self._conn.send(job)

    def result(self):
        """The oldest unread job's result; the worker's exception is
        re-raised here with its type and message."""
        try:
            ok, value = self._conn.recv()
        except EOFError:
            self._process.join()
            raise RuntimeError(
                f"PGD worker exited with code {self._process.exitcode}") from None
        if not ok:
            raise value
        return value


@contextmanager
def job_worker(fn: Callable):
    """Yield a forked worker that answers each submitted job with `fn(*job)`
    while the caller works on.  This needs a POSIX `fork`; the worker is
    always joined before the block is left, and terminated first if the
    block raised.  `fn` must draw nothing from any generator the caller
    uses, so the caller's draws are those of a serial loop.
    """
    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe()
    process = ctx.Process(target=_serve, daemon=True,
                          args=(child_end, conn, fn))
    process.start()
    child_end.close()
    try:
        yield Worker(conn, process)
        conn.send(None)
    except BaseException:
        process.terminate()
        raise
    finally:
        process.join()
        conn.close()
