"""The shared worker pool: linear-prediction calls and scene renders that
overlap, run in a forked child, or end a process give the serial results
and never wait on a queued job, and neither does a submitted job's
result()."""

import os
import subprocess
import sys
import textwrap
import threading
import time
import weakref

import numpy as np
import pytest

import lodistort
from lodistort import (
    RoomSpec,
    psd_floor,
    render_scene,
    synth_noise,
    synth_speech_like,
    wpe_field,
)
from lodistort import _pool, linpred

from conftest import planted_reverb_field


def _run_pooled(code):
    # runs code in a fresh interpreter with three workers whatever the CPU
    # count, and several bin chunks per linear-prediction call
    setup = textwrap.dedent("""
        from lodistort import _pool, linpred
        _pool.worker_count = lambda: 3
        linpred.CHUNK_BUDGET_BYTES = 2 ** 20
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(lodistort.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", setup + textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=300)


def test_forked_child_matches_its_parent():
    proc = _run_pooled("""
        import os, signal, time
        import numpy as np
        from lodistort import (RoomSpec, analyze, psd_floor, render_scene,
                               synth_noise, synth_speech_like, wpe_field)

        def work():
            room = RoomSpec(num_mics=4, t60_seconds=0.3, rir_len_samples=2000,
                            seed=3)
            scene = render_scene(synth_speech_like(8000, seed=1),
                                 [synth_noise(8000, seed=2)], room, snr_db=5.0)
            lam = psd_floor(analyze(scene.direct_path)[:, :, 0])
            _, out = wpe_field(analyze(scene.mixture), lam, taps=5)
            return scene.mixture.samples, scene.noise.samples, out

        want = work()
        pid = os.fork()
        if pid == 0:
            same = all(np.array_equal(a, b) for a, b in zip(work(), want))
            os._exit(0 if same else 1)
        deadline = time.monotonic() + 120
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise SystemExit("the forked child hung")
            time.sleep(0.05)
        print("child exited")
    """)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "child exited"


def _scene(seed):
    room = RoomSpec(num_mics=5, t60_seconds=0.2 + 0.1 * seed, rir_len_samples=3000,
                    direct_delay_samples=tuple(8 + 2 * m for m in range(5)), seed=seed)
    scene = render_scene(synth_speech_like(6000, seed=[seed, 1]),
                         [synth_noise(6000, seed=[seed, k]) for k in (2, 3)],
                         room, snr_db=2.0)
    return (scene.mixture.samples, scene.direct_path.samples,
            scene.reverb_residual.samples, scene.noise.samples)


def test_overlapping_renders_and_predictions_match_serial(monkeypatch):
    mixture, direct = planted_reverb_field(seed=6, num_mics=3)
    lam = psd_floor(direct[:, :, 0])

    def predict(_):
        return wpe_field(mixture, lam, taps=6, delay=3)

    monkeypatch.setattr(linpred, "CHUNK_BUDGET_BYTES", 2 ** 20)
    monkeypatch.setattr(_pool, "worker_count", lambda: 1)
    serial = [_scene(seed) for seed in range(4)]
    monkeypatch.setattr(_pool, "worker_count", lambda: 3)
    alone = predict(None)
    jobs = [(_scene, seed) for seed in range(4)] + [(predict, None)] * 3
    results = [None] * len(jobs)

    def call(index):
        fn, arg = jobs[index]
        results[index] = fn(arg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # daemon threads: a hung caller fails the test, not the interpreter's exit
        callers = [threading.Thread(target=call, args=(i,), daemon=True)
                   for i in range(len(jobs))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for got, want in zip(results, serial + [alone] * 3):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_nested_calls_match_serial(monkeypatch):
    # renders inside the jobs of a pooled call, some on pool threads: a
    # nested call that waited on a queued job could wait for itself
    monkeypatch.setattr(_pool, "worker_count", lambda: 1)
    serial = [_scene(seed) for seed in range(4)]
    monkeypatch.setattr(_pool, "worker_count", lambda: 3)
    results = [None] * 4

    def render(_, seed):
        results[seed] = _scene(seed)

    caller = threading.Thread(target=_pool.run_chunks,
                              args=(render, range(4), 3, lambda: None), daemon=True)
    caller.start()
    caller.join(timeout=120)
    assert not caller.is_alive()
    for got, want in zip(results, serial):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_process_exits_promptly_after_rendering():
    proc = _run_pooled("""
        import time
        from lodistort import RoomSpec, render_scene, synth_noise, synth_speech_like

        room = RoomSpec(num_mics=6, t60_seconds=0.4, rir_len_samples=4000, seed=2)
        render_scene(synth_speech_like(8000, seed=1), [synth_noise(8000, seed=2)],
                     room, snr_db=0.0)
        print(time.monotonic())
    """)
    exited = time.monotonic()
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert exited - float(proc.stdout) < 10.0


def test_failure_is_raised_once_started_jobs_end(monkeypatch):
    # the caller's job fails once a pool thread has started one; pool jobs
    # are slow, so a raise that did not wait for them would come first
    monkeypatch.setattr(_pool, "worker_count", lambda: 3)
    caller = threading.get_ident()
    helped = threading.Event()
    lock = threading.Lock()
    spans = []

    def job(_, item):
        span = [time.monotonic(), None]
        with lock:
            spans.append(span)
        try:
            if threading.get_ident() == caller:
                assert helped.wait(timeout=60)
                raise RuntimeError("planted failure")
            helped.set()
            time.sleep(0.2)
        finally:
            span[1] = time.monotonic()

    with pytest.raises(RuntimeError, match="planted failure"):
        _pool.run_chunks(job, range(12), 3, lambda: None)
    raised = time.monotonic()
    time.sleep(0.5)  # a job started after the raise would show by now
    with lock:
        assert len(spans) >= 2
        assert all(end is not None and end <= raised for _, end in spans)


def test_pooled_calls_import_neither_concurrent_futures_nor_logging():
    # the pool runs on plain threads: a fresh process that renders, predicts
    # and submits a job pays the import of neither module
    proc = _run_pooled("""
        import sys
        import numpy as np
        from lodistort import (RoomSpec, _pool, render_scene, synth_noise,
                               synth_speech_like, wpe_field)

        field = np.random.default_rng(0).standard_normal((200, 65, 2)) + 0j
        wpe_field(field, np.ones((200, 65)), taps=2)
        render_scene(synth_speech_like(4000, seed=1), [synth_noise(4000, seed=2)],
                     RoomSpec(num_mics=3, t60_seconds=0.3, rir_len_samples=1000,
                              seed=1), snr_db=0.0)
        assert _pool.submit(sum, (1, 2)).result() == 3
        print(sorted({"concurrent.futures", "logging"} & set(sys.modules)))
    """)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_a_refused_thread_start_gives_the_one_worker_results():
    # Python 3.12.1 refuses new threads once the interpreter has begun to
    # exit: every pooled call then runs its jobs on the caller alone
    proc = _run_pooled("""
        import threading
        import numpy as np
        from lodistort import (RoomSpec, _pool, render_scene, synth_noise,
                               synth_speech_like, wpe_field)

        def work():
            field = np.random.default_rng(0).standard_normal((200, 65, 2)) + 0j
            _, out = wpe_field(field, np.ones((200, 65)), taps=2)
            scene = render_scene(
                synth_speech_like(4000, seed=1), [synth_noise(4000, seed=2)],
                RoomSpec(num_mics=3, t60_seconds=0.3, rir_len_samples=1000, seed=1),
                snr_db=0.0)
            drawn = _pool.submit(lambda: np.random.default_rng(3).standard_normal(9))
            return out, scene.mixture.samples, scene.noise.samples, drawn.result()

        def refuse(thread):
            raise RuntimeError("can't create new thread at interpreter shutdown")

        threading.Thread.start = refuse
        refused = work()
        _pool.worker_count = lambda: 1
        serial = work()
        print(all(a.tobytes() == b.tobytes() for a, b in zip(refused, serial)))
    """)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "True"


def test_thread_that_outlives_the_main_thread_matches():
    # the interpreter shuts the pool down before it joins the other threads
    proc = _run_pooled("""
        import threading, time
        import numpy as np
        from lodistort import wpe_field

        field = np.random.default_rng(0).standard_normal((200, 65, 2)) + 0j
        power = np.ones((200, 65))
        want = wpe_field(field, power, taps=2)[1]

        def late():
            threading.main_thread().join()
            time.sleep(0.2)
            got = wpe_field(field, power, taps=2)[1]
            print("same" if np.array_equal(got, want) else "differs")

        threading.Thread(target=late).start()
    """)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "same"


def test_submit_runs_inline_at_one_worker(monkeypatch):
    monkeypatch.setattr(_pool, "worker_count", lambda: 1)
    ran = []
    job = _pool.submit(lambda value: ran.append(threading.get_ident()) or value + 1, 1)
    assert ran == [threading.get_ident()]  # before submit returned
    assert job.result() == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_submit_raises_the_jobs_exception_at_result(monkeypatch, workers):
    monkeypatch.setattr(_pool, "worker_count", lambda: workers)

    def fail():
        raise RuntimeError("planted failure")

    job = _pool.submit(fail)
    with pytest.raises(RuntimeError, match="planted failure"):
        job.result()


def test_submit_inside_a_job_of_the_only_busy_thread_does_not_hang():
    # the pool's one thread runs the outer job, so the inner one stays
    # queued: its result() takes it back and runs it on the outer job's
    # thread; a result() that waited would wait for itself
    proc = _run_pooled("""
        import os, threading
        from lodistort import _pool

        _pool.worker_count = lambda: 2  # one pool thread
        watchdog = threading.Timer(60, os._exit, (3,))  # a hang exits 3
        watchdog.daemon = True
        watchdog.start()
        started = threading.Event()

        def outer():
            started.set()
            inner = _pool.submit(threading.get_ident)
            return inner.result(), threading.get_ident()

        job = _pool.submit(outer)
        assert started.wait(timeout=30)
        inner_thread, outer_thread = job.result()
        assert inner_thread == outer_thread != threading.get_ident()
        print("returned")
    """)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "returned"


@pytest.mark.parametrize("workers", [1, 2])
def test_result_hands_the_value_over_once(monkeypatch, workers):
    # once taken, the job holds neither its arguments nor its value: the
    # estimate's draws are freed by whoever takes them
    monkeypatch.setattr(_pool, "worker_count", lambda: workers)
    arg = np.zeros(3)
    job = _pool.submit(lambda values: values + 1.0, arg)
    arg_ref = weakref.ref(arg)
    del arg
    value = job.result()
    value_ref = weakref.ref(value)
    assert value.tolist() == [1.0, 1.0, 1.0]
    del value
    assert arg_ref() is None and value_ref() is None
    assert job.result() is None
