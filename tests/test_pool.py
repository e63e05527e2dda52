"""The shared worker pool: linear-prediction calls and scene renders that
overlap, run in a forked child, or end a process give the serial results
and never wait on a queued job."""

import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np

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
                              args=(render, [None] * 3, range(4)), daemon=True)
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
