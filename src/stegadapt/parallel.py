"""A fork-per-call parallel map over the CPUs this process may use.

Cold data generation maps domains through :func:`_forked_map`, and batched
inference maps batches. Each call forks its own children and reaps them
before it returns, so no pool outlives a call. A map made while another is
computing, in its parent's share or in a child, runs in the calling process,
so nested maps never multiply the processes.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
from typing import Callable, Sequence

from .errors import StegadaptError

_PR_SET_PDEATHSIG = 1  # Linux prctl option: a signal the kernel sends a child when its parent dies
_computing = False  # whether a map is computing in this process; a forked child inherits it set


def _forked_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]`` for nonempty ``items``, over at most one process per CPU this process may use.

    Items are dealt round robin: this process computes the first share and
    each forked child another, which it returns (or the exception it
    raised) pickled through a pipe. With one CPU or one item, without
    ``os.fork``, while other threads run or inside another map's ``fn``,
    every item is computed here. Every child is killed and reaped before
    this returns or raises.
    """
    global _computing
    if _computing:
        return [fn(item) for item in items]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    slots = min(len(items), cpus) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    children = []  # (pid, read end of its pipe)
    parent = os.getpid()
    _computing = True
    try:
        for slot in range(1, slots):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_child(fn, items[slot::slots], parent, read_fd, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        shares = [[fn(item) for item in items[::slots]]]
        for pid, stream in children:
            try:
                done, value = pickle.load(stream)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise StegadaptError(f"worker process {pid} ended without a result") from exc
            if not done:
                raise value
            shares.append(value)
    finally:
        _computing = False
        for pid, stream in children:
            stream.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [shares[index % slots][index // slots] for index in range(len(items))]


def _run_child(fn: Callable, items: Sequence, parent: int, read_fd: int, write_fd: int) -> None:
    """A forked child's whole life: compute ``items``, pickle the outcome into ``write_fd``, exit.

    On Linux the kernel kills the child when its parent dies, so a parent
    ended by a signal it does not handle leaves no child running.
    """
    status = 1
    try:
        with contextlib.suppress(OSError, AttributeError):
            import ctypes

            prctl = ctypes.CDLL(None, use_errno=True).prctl
            prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
            prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:
            return  # the parent died before the request took effect
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as stream:
            try:
                outcome = (True, [fn(item) for item in items])
            except BaseException as exc:  # the parent re-raises it
                outcome = (False, exc)
            pickle.dump(outcome, stream, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)  # never the parent's cleanup, atexit hooks or buffered output
