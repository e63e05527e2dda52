"""The per-scene memo behind run_pipeline: nodes shared across calls give
the outputs a fresh computation gives, belong to the signal objects they
were computed from (whose samples are read-only), stay read-only, and live
no longer than their scene."""

import dataclasses
import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from lodistort import (
    ORACLE_KINDS,
    PIPELINE_NAMES,
    PipelineSpec,
    RoomSpec,
    TimeSignal,
    analyze,
    corrupt_estimate,
    fcp,
    oracle_estimate,
    pipeline,
    render_scene,
    run_pipeline,
    signal_covariances,
    synth_noise,
    synth_speech_like,
    wpe_field,
    write_spectrogram,
)
from lodistort.metrics import ScoreReference, score_against


def make_scene(seed, num_mics=3, num_samples=16000):
    room = RoomSpec(num_mics=num_mics, t60_seconds=0.3, rir_len_samples=2048,
                    direct_delay_samples=tuple(8 + k for k in range(num_mics)),
                    seed=seed)
    return render_scene(
        synth_speech_like(num_samples, seed=[seed, 1]),
        [synth_noise(num_samples, seed=[seed, 2])],
        room,
        snr_db=0.0,
    )


@pytest.fixture(scope="module")
def scene():
    return make_scene(5)


def drop_memo():
    with pipeline._memo_lock:
        pipeline._memo.clear()


def memo_nodes():
    # the node dict of the one scene the memo holds
    [(_, nodes)] = pipeline._memo.values()
    return nodes


def cold_run(scene_or_mixture, spec, target=None):
    drop_memo()
    return run_pipeline(scene_or_mixture, spec, target)


def assert_same_result(a, b):
    assert list(a.stages) == list(b.stages)
    for key in a.stages:
        assert np.array_equal(a.stages[key], b.stages[key]), key
        assert np.array_equal(a.waves[key].samples, b.waves[key].samples), key
    assert a.metrics == b.metrics
    assert np.array_equal(a.mixture_spectrogram, b.mixture_spectrogram)


def test_warm_runs_match_cold_runs(scene):
    for q in (0, 1):
        drop_memo()
        warm = {name: run_pipeline(scene, PipelineSpec(name, taps=6, ref_mic=q))
                for name in PIPELINE_NAMES}
        for name in PIPELINE_NAMES:
            cold = cold_run(scene, PipelineSpec(name, taps=6, ref_mic=q))
            assert_same_result(warm[name], cold)
        # the warm runs read one memoized mixture spectrogram and score
        first = warm[PIPELINE_NAMES[0]]
        assert all(r.mixture_spectrogram is first.mixture_spectrogram
                   for r in warm.values())
        assert all(r.metrics["mixture"] is first.metrics["mixture"]
                   for r in warm.values())


def test_shared_nodes_are_computed_once_per_scene(scene, monkeypatch):
    calls = {"analyze": 0, "wpe_field": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "analyze", counting("analyze", pipeline.analyze))
    monkeypatch.setattr(pipeline.linpred, "wpe_field",
                        counting("wpe_field", pipeline.linpred.wpe_field))
    drop_memo()
    for name in PIPELINE_NAMES:
        run_pipeline(scene, PipelineSpec(name, taps=6))
    # mixture and target once each; one field for the four *_wpe beamformers
    # and one channel for the mono fcp_wpe
    assert calls == {"analyze": 2, "wpe_field": 2}
    # a different wpe parameter is a different node
    run_pipeline(scene, PipelineSpec("mmvdr_wpe", taps=5))
    assert calls == {"analyze": 2, "wpe_field": 3}


def test_every_shared_node_and_only_those_are_kept(scene, monkeypatch):
    calls = {}

    def counting(module, name):
        fn = getattr(module, name)
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("wpe", "wpe_field"):
        counting(pipeline.linpred, name)
    for name in ("masked_covariances", "signal_covariances", "weighted_covariance"):
        counting(pipeline.stats, name)
    drop_memo()
    results = {name: run_pipeline(scene, PipelineSpec(name, taps=6))
               for name in PIPELINE_NAMES}
    # every run dereverberates through wpe_field: the mono fcp_wpe once on
    # its own channel, and every multichannel chain starting with wpe reads
    # one shared field; the masked covariances are built once on the mixture
    # and once on that field; mvdr and gev share the signal covariances;
    # fcp_mwmpdr_wpe reuses the mwmpdr stage
    assert calls == {"wpe": 0, "wpe_field": 2, "masked_covariances": 2,
                     "signal_covariances": 1, "weighted_covariance": 1}
    # no other pipeline runs mvdr: its output dies with the result, while a
    # stage that several pipelines share stays with the scene
    unshared = weakref.ref(results["mvdr"].final)
    shared = weakref.ref(results["mwmpdr_wpe"].final)
    del results
    gc.collect()
    assert unshared() is None
    assert shared() is not None
    assert len(pipeline._memo) == 1


def test_a_chain_outside_the_default_set_reuses_kept_prefixes(scene, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return wpe_field(*args, **kwargs)

    monkeypatch.setattr(pipeline.linpred, "wpe_field", counting)
    drop_memo()
    first = run_pipeline(scene, PipelineSpec("mwmpdr_wpe", taps=6))
    kept = set(memo_nodes())
    second = run_pipeline(scene, PipelineSpec("mvdr_wpe", taps=6))
    # mvdr_wpe reads the multichannel wpe field the default set keeps, and
    # keeps nothing of its own
    assert len(calls) == 1
    assert second.stages["wpe"] is first.stages["wpe"]
    assert not second.stages["wpe"].flags.writeable
    assert set(memo_nodes()) == kept
    after = run_pipeline(scene, PipelineSpec("fcp_mwmpdr_wpe", taps=6))
    monkeypatch.undo()
    drop_memo()
    run_pipeline(scene, PipelineSpec("mwmpdr_wpe", taps=6))
    assert_same_result(after, run_pipeline(scene, PipelineSpec("fcp_mwmpdr_wpe", taps=6)))


def test_in_place_writes_are_refused():
    scene = make_scene(11)
    spec = PipelineSpec("mmvdr_wpe", taps=6)
    before = run_pipeline(scene, spec)
    with pytest.raises(ValueError):
        scene.mixture.samples[:2000] *= 0.5
    # the changed content is a new signal, and so a new scene
    samples = scene.mixture.samples.copy()
    samples[:2000] *= 0.5
    mixture = TimeSignal(samples)
    after = run_pipeline(mixture, spec, scene.direct_path)
    assert not np.array_equal(before.final, after.final)
    assert not np.array_equal(before.mixture_spectrogram, after.mixture_spectrogram)
    assert_same_result(after, cold_run(mixture, spec, scene.direct_path))


def test_equal_signals_that_are_distinct_objects_run_cold(scene, monkeypatch):
    calls = []

    def counting(signal):
        calls.append(signal)
        return analyze(signal)

    monkeypatch.setattr(pipeline, "analyze", counting)
    spec = PipelineSpec("mvdr")
    drop_memo()
    first = run_pipeline(scene, spec)
    again = run_pipeline(scene, spec)
    assert len(calls) == 2 and again.mixture_spectrogram is first.mixture_spectrogram
    copies = [TimeSignal(s.samples.copy()) for s in (scene.mixture, scene.direct_path)]
    # an equal mixture, then an equal target: each is a different scene,
    # analyzed again, with bit-identical results
    second = run_pipeline(copies[0], spec, scene.direct_path)
    assert calls[2] is copies[0] and calls[3] is scene.direct_path
    third = run_pipeline(copies[0], spec, copies[1])
    assert calls[4] is copies[0] and calls[5] is copies[1]
    for result in (second, third):
        assert result.mixture_spectrogram is not first.mixture_spectrogram
        assert_same_result(result, first)
    # a call without the target is another scene too: the oracle estimate
    # is not reused but asked of the missing target
    with pytest.raises(ValueError, match="needs the target"):
        run_pipeline(copies[0], spec)


def test_result_arrays_are_read_only(scene):
    result = run_pipeline(scene, PipelineSpec("mwmpdr_wpe", taps=6))
    with pytest.raises(ValueError):
        result.mixture_spectrogram[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        result.stages["estimate"][0, 0] = 0.0
    with pytest.raises(ValueError):
        result.waves["wpe"].samples[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.metrics["wpe"].si_sdr_db = 0.0


def test_nodes_die_with_their_mixture():
    scene = make_scene(12)
    result = run_pipeline(scene, PipelineSpec("mvdr"))
    node = weakref.ref(result.mixture_spectrogram)
    del scene, result
    gc.collect()
    assert node() is None
    assert len(pipeline._memo) == 0


def test_dropped_nodes_die_while_their_mixture_lives(scene):
    run_pipeline(scene, PipelineSpec("mvdr"))
    node = weakref.ref(memo_nodes()["mixture"])
    drop_memo()
    gc.collect()
    # the map holds the mixture weakly, and nothing else holds its nodes
    assert node() is None
    assert scene.mixture.num_channels == 3


def test_a_new_scene_releases_the_old_nodes():
    first, second = make_scene(13), make_scene(14)
    result = run_pipeline(first, PipelineSpec("mvdr"))
    node = weakref.ref(result.mixture_spectrogram)
    del result
    run_pipeline(second, PipelineSpec("mvdr"))
    gc.collect()
    assert node() is None
    # the first scene is alive, but its entry has gone with the swap
    assert first.mixture.num_channels == 3


def test_threads_alternating_scenes_match_serial_runs():
    scenes = [make_scene(15, num_samples=8000), make_scene(16, num_samples=8000)]
    names = ("mvdr", "mmvdr_wpe", "fcp")
    serial = {(k, name): cold_run(s, PipelineSpec(name, taps=4))
              for k, s in enumerate(scenes) for name in names}
    failures = []

    def worker(order):
        try:
            for k in order:
                for name in names:
                    got = run_pipeline(scenes[k], PipelineSpec(name, taps=4))
                    assert_same_result(got, serial[(k, name)])
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # more threads than cores, each alternating the two scenes
        threads = [threading.Thread(target=worker, args=((k % 2, 1 - k % 2) * 2,))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures


def test_rewritten_external_estimate_is_reread(scene, tmp_path):
    mix_spec = analyze(scene.mixture)
    tgt_spec = analyze(scene.direct_path)
    path = str(tmp_path / "estimate.ldspec")
    results = []
    for leak in (0.1, 0.3):
        estimate = tgt_spec + leak * mix_spec
        write_spectrogram(path, estimate)
        spec = PipelineSpec("fcp", estimator="external", estimate_path=path)
        got = run_pipeline(scene, spec)
        _, manual = fcp(mix_spec[:, :, 0], estimate[:, :, 0], 40, 1e-3, 1e-8)
        assert np.array_equal(got.final, manual)
        # the dereverberated field follows the file too
        field_spec = PipelineSpec("mmvdr_wpe", estimator="external",
                                  estimate_path=path, taps=6)
        results.append(run_pipeline(scene, field_spec))
        assert_same_result(results[-1], cold_run(scene, field_spec))
    assert not np.array_equal(results[0].stages["wpe"], results[1].stages["wpe"])


def test_estimate_node_holds_channel_q_and_the_signal_covariances(scene):
    # the oracleDirect estimate node holds a read-only copy of the target
    # STFT's channel q, and the covariances of all its channels, computed
    # when it was built; the result's estimate is that copy
    drop_memo()
    q = 1
    result = run_pipeline(scene, PipelineSpec("mvdr", ref_mic=q))
    est_q, cov = memo_nodes()[("oracleDirect", math.inf, 0, q)]
    tgt_spec = analyze(scene.direct_path)
    assert np.array_equal(est_q, tgt_spec[:, :, q])
    assert est_q.flags.c_contiguous and not est_q.flags.writeable
    assert result.stages["estimate"] is est_q
    want = signal_covariances(result.mixture_spectrogram, tgt_spec)
    assert np.array_equal(cov.phi_s, want.phi_s)
    assert np.array_equal(cov.phi_v, want.phi_v)
    assert not cov.phi_s.flags.writeable and not cov.phi_v.flags.writeable


def test_no_multichannel_estimate_is_kept(scene, monkeypatch):
    estimates = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            est = fn(*args, **kwargs)
            estimates.append(weakref.ref(est.values))
            return est
        return wrapper

    monkeypatch.setattr(pipeline, "_build", recording(pipeline._build))
    drop_memo()
    spec = PipelineSpec("mvdr", estimator="oraclePhaseSensitiveMask",
                        est_err_snr_db=10.0)
    result = run_pipeline(scene, spec)
    gc.collect()
    # the corrupted mask estimate was T x F x P, built in the target's STFT;
    # no node, nor the result, holds it, only the channel-q copy
    assert len(estimates) == 1 and estimates[0]() is None
    assert result.stages["estimate"].shape == result.mixture_spectrogram.shape[:2]
    assert_same_result(result, cold_run(scene, spec))


def test_two_reference_mics_give_two_estimate_nodes(scene, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return signal_covariances(*args)

    monkeypatch.setattr(pipeline.stats, "signal_covariances", counting)
    drop_memo()
    base = dict(name="gev", estimator="oraclePhaseSensitiveMask", est_err_snr_db=10.0)
    results = [run_pipeline(scene, PipelineSpec(**base, ref_mic=q)) for q in (0, 1, 0)]
    nodes = memo_nodes()
    first, second = (nodes[("oraclePhaseSensitiveMask", 10.0, 0, q)][0] for q in (0, 1))
    assert len(calls) == 2
    assert results[0].stages["estimate"] is first
    assert results[1].stages["estimate"] is second
    assert results[2].stages["estimate"] is first
    assert not np.array_equal(first, second)
    monkeypatch.undo()
    for q, result in zip((0, 1), results):
        assert_same_result(result, cold_run(scene, PipelineSpec(**base, ref_mic=q)))


@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_the_estimate_node_is_the_estimators_composed_by_hand(scene, kind):
    # the node is built in the target's STFT after the reference is taken;
    # the public estimators build it in copies: the bits are the same, and
    # so are the phase scores against a reference from the clean STFT
    mix_spec, tgt_spec = analyze(scene.mixture), analyze(scene.direct_path)
    for err_db in (math.inf, 10.0):
        want = corrupt_estimate(oracle_estimate(mix_spec, tgt_spec, kind), err_db,
                                seed=4).values
        want_cov = signal_covariances(mix_spec, want)
        for q in (0, 1):
            drop_memo()
            result = run_pipeline(scene, PipelineSpec(
                "mvdr", estimator=kind, est_err_snr_db=err_db, ref_mic=q, seed=4))
            est_q, cov = memo_nodes()[(kind, err_db, 4, q)]
            assert est_q.tobytes() == np.ascontiguousarray(want[:, :, q]).tobytes()
            assert cov.phi_s.tobytes() == want_cov.phi_s.tobytes()
            assert cov.phi_v.tobytes() == want_cov.phi_v.tobytes()
            hand = score_against(ScoreReference(tgt_spec[:, :, q], mix_spec[:, :, q]),
                                 want[:, :, q])
            got = result.metrics["estimate"]
            assert (got.pdsacc_percent, got.psnr_db) == (hand.pdsacc_percent,
                                                         hand.psnr_db)


@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_a_refused_estimate_leaves_the_scene_as_fresh(scene, kind):
    # the error of -4000 dB is past float64's range: it raises once the
    # target's STFT is overwritten, and that STFT is not used again
    drop_memo()
    with pytest.raises(ValueError, match="^est_err_snr_db"):
        run_pipeline(scene, PipelineSpec("mvdr", estimator=kind, est_err_snr_db=-4000.0))
    spec = PipelineSpec("mvdr", estimator=kind, est_err_snr_db=10.0)
    after = run_pipeline(scene, spec)
    assert_same_result(after, cold_run(scene, spec))


def test_target_stft_is_not_kept_with_a_mask_estimate(scene, monkeypatch):
    spectra = {}

    def recording(signal):
        spec = analyze(signal)
        spectra[signal] = weakref.ref(spec)
        return spec

    monkeypatch.setattr(pipeline, "analyze", recording)
    drop_memo()
    spec = PipelineSpec("mwmpdr_wpe", estimator="oraclePhaseSensitiveMask",
                        est_err_snr_db=10.0, taps=6)
    result = run_pipeline(scene, spec)
    gc.collect()
    # the mixture's STFT is a memo node; no node, nor the result, holds
    # the target's, which only built the estimate and the scoring reference
    assert spectra[scene.mixture]() is result.mixture_spectrogram
    assert spectra[scene.direct_path]() is None
    assert_same_result(result, cold_run(scene, spec))


def test_estimate_and_reference_outlive_stage_parameters(scene, monkeypatch):
    calls = {}

    def counting(name):
        fn = getattr(pipeline, name)
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, wrapper)

    for name in ("analyze", "_build", "ScoreReference"):
        counting(name)
    drop_memo()
    base = dict(name="fcp_mwmpdr_wpe", estimator="oraclePhaseSensitiveMask",
                est_err_snr_db=10.0, seed=3)
    specs = [PipelineSpec(**base, **change) for change in (
        {}, {"taps": 5}, {"delay": 2}, {"epsilon": 1e-2}, {"loading": 1e-6})]
    results = [run_pipeline(scene, spec) for spec in specs]
    # the mixture and the target are analyzed once; the corrupted estimate
    # and the scoring reference are built once
    assert calls == {"analyze": 2, "_build": 1, "ScoreReference": 1}
    assert all(r.metrics["mixture"] is results[0].metrics["mixture"] for r in results)
    monkeypatch.undo()
    for spec, result in zip(specs, results):
        assert_same_result(result, cold_run(scene, spec))


def test_external_runs_share_the_scoring_reference(scene, tmp_path, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(len(args))
        return ScoreReference(*args)

    monkeypatch.setattr(pipeline, "ScoreReference", counting)
    path = str(tmp_path / "estimate.ldspec")
    write_spectrogram(path, analyze(scene.direct_path))
    spec = PipelineSpec("fcp", estimator="external", estimate_path=path)
    drop_memo()
    first, second = run_pipeline(scene, spec), run_pipeline(scene, spec)
    # the reference and the mixture's score read the mixture and the target
    # only: the estimate is reread, the reference built once
    assert len(calls) == 1
    assert second.metrics["mixture"] is first.metrics["mixture"]
    monkeypatch.undo()
    assert_same_result(second, cold_run(scene, spec))
