"""The process-wide worker pool that linpred's bin chunks, the scene
simulator's per-mic responses and the estimator's error draws run on.

A call hands run_chunks a job, the items to process, a cap on its workers
and a function that makes one set of buffers (a space) per worker.  The
calling thread makes every space, then works through the items itself with
the first; each further space goes to the pool as a helper job (submit,
below) that only helps.  Once the caller finds no item left, it takes each
helper's result: a helper no pool thread has started runs on the caller
and finds no item left, one that has started is waited for.  Only then
does it release the BLAS hold and raise the first failure.  So a call never
waits on a queued job: calls may overlap, run inside another call's job, or
run in a forked child, whose pool starts empty.

The pool is one queue of jobs served by daemon threads, one per CPU in the
process's affinity mask less one for the caller, started on first use and
started again when the process id changes.  A thread the interpreter
refuses to start (Python 3.12.1 refuses them once it has begun to exit) is
left out: callers take back the jobs no thread serves.

submit(fn, *args) hands the pool one job that runs beside the caller, as
the estimator's error draws run while the scene is analyzed.  It returns
the job, whose result() runs it on the calling thread if no pool thread has
started it, so it too never waits on a queued job, and hands its value
over once; with one worker the job runs inline, within submit.  A
submitted job takes no BLAS hold (below), so it should call no BLAS: the
draws call none.

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


_BLAS_HOLD = _BlasHold()


def _fresh_lock():
    # a lock another thread held at the fork stays held in the child
    _BLAS_HOLD._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock)


@functools.lru_cache(maxsize=1)
def _queue(pid):
    # keyed on the process id: a forked child has none of its parent's threads
    jobs = queue.SimpleQueue()
    for _ in range(worker_count() - 1):
        try:
            threading.Thread(target=_serve, args=(jobs,), name="lodistort-pool",
                             daemon=True).start()
        except RuntimeError:  # refused once the interpreter has begun to exit
            break
    return jobs


def _serve(jobs):
    while True:
        jobs.get().run()


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

    with _BLAS_HOLD.single_threaded():
        helpers = [submit(drain, space) for space in spaces[1:]]
        drain(spaces[0])
        for helper in helpers:
            # one no pool thread has started runs here and finds no item left
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
        self._call = None
        try:
            self._value = fn(*args)
        except BaseException as exc:
            self._error = exc
        finally:
            fn = args = None  # the arguments are freed before the job is done
            self._done.set()

    def result(self):
        """The job's value, or its exception raised, handed over once: the
        job keeps neither, and a second call returns None.  Runs the job
        here if no pool thread has started it, else waits for the thread."""
        self.run()
        self._done.wait()
        value, error = self._value, self._error
        self._value = self._error = None
        if error is not None:
            raise error
        return value


def submit(fn, *args):
    """The job of fn(*args), run on a pool thread or, with one worker,
    inline before submit returns."""
    job = _Job(fn, args)
    if worker_count() > 1:
        _queue(os.getpid()).put(job)
    else:
        job.run()
    return job
