"""The process-wide worker pool that linpred's bin chunks, the scene
simulator's per-mic responses and the estimator's error draws run on.

A call hands run_chunks a job, the items to process, a cap on its workers
and a function that makes one set of buffers (a space) per worker.  The
calling thread makes every space, then works through the items itself with
the first; each further space goes to a pool thread that only helps.  Once
the caller finds no item left, it cancels the helpers that have not started
and waits for those that have; only then does it release the BLAS hold and
raise the first failure.  So a call never waits on a queued job: calls may
overlap, run inside another call's job, or run in a forked child, whose
pool starts empty.

The pool is a concurrent.futures.ThreadPoolExecutor of one thread per CPU
in the process's affinity mask, less one for the caller, made on first use
and made again when the process id changes.  It starts its threads as calls
first need them.  They are not daemon threads: at exit the interpreter
joins them, which an idle thread does at once.  A call made after that,
from a thread that outlives the main thread or from an atexit hook, runs
on the caller alone.

submit(fn, *args) hands the pool one job that runs beside the caller, as
the estimator's error draws run while the scene is analyzed.  It returns
the job's future, whose result() runs the job on the calling thread if no
pool thread has started it, so it too never waits on a queued job; with one
worker the job runs inline, within submit.  A submitted job takes no BLAS
hold (below), so it should call no BLAS: the draws call none.

The spaces are made on the calling thread: buffers a pool thread allocates
stay resident in its own malloc arena after the call.  For the same reason
a submitted job fills buffers its caller made.

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


_BLAS_HOLD = _BlasHold()


def _fresh_lock():
    # a lock another thread held at the fork stays held in the child
    _BLAS_HOLD._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock)


@functools.lru_cache(maxsize=1)
def _executor(pid):
    # keyed on the process id: a forked child has none of its parent's threads
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max(1, worker_count() - 1),
                              thread_name_prefix="lodistort-pool")


# marks the end of a call's items
_DONE = object()


def run_chunks(job, items, workers, make_space):
    """Call job(space, item) for every item, each space in one thread at a time.

    The call makes max(1, min(workers, worker_count(), len(items))) spaces
    with make_space().  One space runs every item in the calling thread.
    With several, the caller takes the first and pool threads the others,
    each pulling the next item until none is left or a job has failed.  The
    first failure is raised once every pool thread that started has
    returned.
    """
    spaces = [make_space()
              for _ in range(max(1, min(workers, worker_count(), len(items))))]
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

    helpers = []
    with _BLAS_HOLD.single_threaded():
        # the executor refuses jobs once the interpreter has begun to exit
        with contextlib.suppress(RuntimeError):
            executor = _executor(os.getpid())
            for space in spaces[1:]:
                helpers.append(executor.submit(drain, space))
        drain(spaces[0])
        for helper in helpers:
            # a helper a thread has started is waited for, any other never runs
            if not helper.cancel():
                helper.result()
    if failures:
        raise failures[0]


class _Job:
    """The future of a submitted job, run once by whichever thread claims it
    first: a pool thread, or the caller in result()."""

    def __init__(self, fn, args):
        self._call = fn, args
        self._claim = threading.Lock()
        self._done = threading.Event()
        self._value = self._error = None

    def run(self):
        if not self._claim.acquire(blocking=False):
            return  # claimed by the other thread
        fn, args = self._call
        self._call = None  # the arguments are freed once the job has run
        try:
            self._value = fn(*args)
        except BaseException as exc:
            self._error = exc
        finally:
            self._done.set()

    def result(self):
        """The job's value, or its exception raised; runs the job here if no
        pool thread has started it, else waits for the thread."""
        self.run()
        self._done.wait()
        if self._error is not None:
            raise self._error
        return self._value


def submit(fn, *args):
    """The future of fn(*args), run on a pool thread or, with one worker,
    inline before submit returns."""
    job = _Job(fn, args)
    if worker_count() > 1:
        # the executor refuses jobs once the interpreter has begun to exit
        with contextlib.suppress(RuntimeError):
            _executor(os.getpid()).submit(job.run)
            return job
    job.run()
    return job
