"""The process-wide worker pool that linpred's bin chunks and the scene
simulator's per-mic responses run on.

A call hands run_chunks a job, one set of buffers (a space) per worker and
the items to process.  The calling thread works through the items itself
with the first space; each further space goes to a pool thread that only
helps.  Once the caller finds no item left, it cancels the helpers that have
not started and waits for those that have; only then does it release the
BLAS hold and raise the first failure.  So a call never waits on a queued
job: calls may overlap, run inside another call's job, or run in a forked
child, whose pool starts empty.

The pool is made on first use and rebuilt when the process id changes.  Its
threads are started as calls first need them, one per extra space: in
practice one per CPU in the process's affinity mask, less one for the
caller.  They are daemon threads that wait on a queue between calls, so
they never delay the process's exit.

The caller allocates every buffer the jobs write into: buffers a pool
thread allocates stay resident in its own malloc arena after the call.

While a call runs on several workers, the process-wide thread count of the
OpenBLAS that numpy loaded is held at one and restored afterwards, so the
workers do not oversubscribe the CPUs; other threads that call BLAS
meanwhile run single-threaded as well.  Where that count cannot be
controlled (numpy on another BLAS, or no /proc/self/maps to find the
library), every call runs with one worker: the same jobs, serially on the
caller.
"""

import contextlib
import ctypes
import functools
import os
import queue
import threading

import numpy as np


def _numpy_openblas_path():
    # the OpenBLAS library numpy loaded: the one under numpy's own install
    # directory, else the only OpenBLAS mapped into the process
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            # address, perms, offset, device, inode, then the path if any
            lines = [line.rstrip("\n").split(maxsplit=5) for line in maps]
    except OSError:
        return None
    mapped = {fields[5] for fields in lines
              if len(fields) == 6 and "openblas" in os.path.basename(fields[5])}
    own = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy")
    candidates = [path for path in mapped if path.startswith(own)] or list(mapped)
    return candidates[0] if len(candidates) == 1 else None


@functools.cache
def openblas_threads():
    """(get, set) of the process-wide OpenBLAS thread count, or None.

    The functions come from the OpenBLAS that numpy loaded, through ctypes,
    under any of the symbol names its builds export.
    """
    path = _numpy_openblas_path()
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_", "_64"):
            names = (f"{prefix}openblas_get_num_threads{suffix}",
                     f"{prefix}openblas_set_num_threads{suffix}")
            if not all(hasattr(lib, name) for name in names):
                continue
            get, set_threads = (getattr(lib, name) for name in names)
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return get, set_threads
    return None


def worker_count():
    """One worker per CPU this process may run on, where BLAS can be held at
    one thread meanwhile; otherwise one."""
    if openblas_threads() is None:
        return 1
    return len(os.sched_getaffinity(0))


class _BlasHold:
    """Holds the OpenBLAS thread count at one while any parallel region runs.

    The first region to enter saves the count and the last to leave restores
    it, so overlapping calls from several threads leave it as they found it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._regions = 0
        self._saved = None

    @contextlib.contextmanager
    def single_threaded(self):
        control = openblas_threads()
        if control is None:
            yield
            return
        get, set_threads = control
        with self._lock:
            if self._regions == 0:
                self._saved = get()
                set_threads(1)
            self._regions += 1
        try:
            yield
        finally:
            with self._lock:
                self._regions -= 1
                if self._regions == 0:
                    set_threads(self._saved)


class _Task:
    """fn(arg), run once by a pool thread unless the caller cancels it first."""

    def __init__(self, fn, arg):
        self._fn, self._arg = fn, arg
        self._claim = threading.Lock()
        self._done = threading.Event()

    def run(self):
        if self._claim.acquire(blocking=False):
            try:
                self._fn(self._arg)
            finally:
                self._done.set()

    def cancel_or_wait(self):
        # a task a pool thread has claimed is waited for, any other never runs
        if not self._claim.acquire(blocking=False):
            self._done.wait()


def _serve(tasks):
    while True:
        tasks.get().run()


class _Pool:
    """Daemon threads that take tasks from one queue."""

    def __init__(self):
        self._lock = threading.Lock()
        self._pid = None

    def submit(self, fn, arg, threads):
        """Queue fn(arg), with at least `threads` pool threads started."""
        task = _Task(fn, arg)
        with self._lock:
            if self._pid != os.getpid():
                # a forked child has none of its parent's threads
                self._pid, self._tasks, self._threads = os.getpid(), queue.SimpleQueue(), 0
            while self._threads < threads:
                threading.Thread(target=_serve, args=(self._tasks,), daemon=True,
                                 name=f"lodistort-pool-{self._threads}").start()
                self._threads += 1
            self._tasks.put(task)
        return task


_BLAS_HOLD = _BlasHold()
_POOL = _Pool()


def _fresh_locks():
    # a lock another thread held at the fork stays held in the child
    _POOL._lock = threading.Lock()
    _BLAS_HOLD._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_locks)

# marks the end of a call's items
_DONE = object()


def run_chunks(job, spaces, items):
    """Call job(space, item) for every item, each space in one thread at a time.

    One space runs every item in the calling thread.  With several, the
    caller takes the first and pool threads the others, each pulling the
    next item until none is left or a job has failed.  The first failure
    is raised once every pool thread that started has returned.
    """
    if len(spaces) == 1:
        for item in items:
            job(spaces[0], item)
        return
    pending = iter(items)
    lock = threading.Lock()
    failures = []

    def drain(space):
        while True:
            with lock:
                item = _DONE if failures else next(pending, _DONE)
            if item is _DONE:
                return
            try:
                job(space, item)
            except BaseException as exc:
                with lock:
                    failures.append(exc)
                return

    with _BLAS_HOLD.single_threaded():
        helpers = [_POOL.submit(drain, space, len(spaces) - 1) for space in spaces[1:]]
        drain(spaces[0])
        for helper in helpers:
            helper.cancel_or_wait()
    if failures:
        raise failures[0]
