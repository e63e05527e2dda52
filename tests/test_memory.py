"""Peak traced memory of the field-sized steps, pinned to stated formulas.

The formulas live in tests/_memtrace.py, which also measures the steps of
tools/long_scene_memory.py.  A "field" is the step's input spectrogram:
T x F x C for analyze's result, synthesize's input, the mask oracles,
wpe_field and the covariances, T x F for fcp.
"""

import tracemalloc

import numpy as np
import pytest

from lodistort import (RoomSpec, StftConfig, TimeSignal, analyze, fcp,
                       masked_covariances, oracle_estimate, psd_floor,
                       read_spectrogram, render_scene, run_pipeline,
                       signal_covariances, synth_noise, synth_speech_like,
                       synthesize, weighted_covariance, wpe_field,
                       write_spectrogram)
from lodistort import PipelineSpec, _pool, estimator, linpred, pipeline

from _memtrace import (analyze_bound, covariance_bound, estimate_bound, fcp_bound,
                       oracle_bound, synthesize_bound, traced_peak, wpe_field_bound)


def random_field(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_analyze_peak_is_the_result_plus_small_blocks():
    samples = np.random.default_rng(1).standard_normal((32000, 6))
    peak, spec = traced_peak(lambda: analyze(samples))
    assert peak <= analyze_bound(spec)


def test_analyze_reads_a_raw_array_without_copying_it():
    # a TimeSignal copies a writeable array; analyze only checks it
    samples = np.random.default_rng(1).standard_normal((32000, 6))
    signal_peak, _ = traced_peak(lambda: analyze(TimeSignal(samples)))
    raw_peak, _ = traced_peak(lambda: analyze(samples))
    assert raw_peak <= signal_peak - 0.9 * samples.nbytes
    assert samples.flags.writeable


@pytest.mark.parametrize("shape", [(300, 257, 6), (4000, 257)])
def test_synthesize_peak_is_the_buffer_and_window_power_plus_one_block(shape):
    # the whole T x W x C array of frames does not fit: 7.4 MB against a
    # bound of 3.2 MB for the 6-channel field, 16.4 MB against 9.2 MB mono
    spec = random_field(shape, seed=10)
    peak, signal = traced_peak(lambda: synthesize(spec))
    assert peak <= synthesize_bound(spec)
    frames_bytes = 8 * StftConfig.window_len * signal.num_channels * shape[0]
    assert synthesize_bound(spec) < 0.6 * frames_bytes


@pytest.mark.parametrize("kind", ["oracleMagMask", "oraclePhaseSensitiveMask"])
def test_mask_oracle_peak_is_the_estimate_plus_one_block(kind):
    # a 4.9 MB estimate; one field-sized float mask would take 2.5 MB more
    # against a bound of 1 MB more
    mixture = random_field((300, 257, 4), seed=11)
    target = random_field((300, 257, 4), seed=12)
    peak, est = traced_peak(lambda: oracle_estimate(mixture, target, kind))
    assert peak <= oracle_bound(est.values)
    assert oracle_bound(est.values) < est.values.nbytes + 0.5 * mixture.real.nbytes


@pytest.mark.parametrize("kind", ["oracleDirect", "oracleMagMask",
                                  "oraclePhaseSensitiveMask"])
def test_estimate_node_builds_in_the_target_stft(kind):
    # a 4.9 MB target STFT at 10 dB: the draws and five blocks, 6.2 MB,
    # against 7.4 MB with one draw's squares and 12.3 MB for a new estimate,
    # its noisy copy and a draw
    mixture = random_field((300, 257, 4), seed=13)
    target = random_field((300, 257, 4), seed=14)
    spec = PipelineSpec("mvdr", estimator=kind, est_err_snr_db=10.0)
    peak, _ = traced_peak(lambda: pipeline._estimate(spec, mixture, target))
    assert peak <= estimate_bound(target)
    assert estimate_bound(target) < 1.3 * target.nbytes


def test_the_draws_are_freed_with_the_estimate_node(monkeypatch):
    # the 2 x T x F x P float draws live while the estimate is built, and
    # no longer: not while the stages run, not after run_pipeline returns.
    # Kept until the stages ended, they raised enhance's peak RSS by 4.8 MB
    scene = render_scene(synth_speech_like(16000, seed=1), [synth_noise(16000, seed=2)],
                         RoomSpec(num_mics=8, t60_seconds=0.3, rir_len_samples=2000,
                                  seed=4), snr_db=5.0)
    spec = PipelineSpec("mvdr", estimator="oraclePhaseSensitiveMask", est_err_snr_db=10.0)
    # 2 x T x F x P float64 values
    draw_bytes = 2 * StftConfig.num_frames(16000) * StftConfig.num_bins * 8 * 8
    seen = {}

    def watch(name, fn):
        def watched(*args):
            # the live allocations of the draws' size that estimator.py made
            traces = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, estimator.__file__)]).traces
            seen[name] = [trace.size for trace in traces if trace.size >= draw_bytes]
            return fn(*args)
        return watched

    monkeypatch.setattr(estimator, "_add_error", watch("built", estimator._add_error))
    monkeypatch.setitem(pipeline._STAGES, "mvdr", watch("stage", pipeline._STAGES["mvdr"]))
    with pipeline._memo_lock:
        pipeline._memo.clear()
    tracemalloc.start()
    try:
        run_pipeline(scene, spec)
        watch("returned", lambda: None)()
    finally:
        tracemalloc.stop()
    assert seen == {"built": [draw_bytes], "stage": [], "returned": []}


def test_wpe_field_peak_is_the_output_plus_the_chunk_budget():
    field = random_field((300, 257, 4), seed=2)
    lam = psd_floor(field[:, :, 0])
    peak, (_, out) = traced_peak(lambda: wpe_field(field, lam, taps=10))
    assert peak <= wpe_field_bound(field, out, taps=10)


def test_wpe_field_workspace_at_the_cli_shape_is_capped_chunks():
    # the field of a 2 s 4-mic scene: its bins are small enough that the
    # budget would fit 13 per worker, so the bin cap sizes the workspace
    field = random_field((256, 257, 4), seed=9)
    lam = psd_floor(field[:, :, 0])
    peak, (_, out) = traced_peak(lambda: wpe_field(field, lam, taps=10))
    per_bin = linpred._bin_bytes(256, 4, 10, linpred.DEFAULT_DELAY, 4)
    workers = _pool.worker_count()
    allowed = max(per_bin, min(linpred.CHUNK_BUDGET_BYTES,
                               workers * linpred.CHUNK_MAX_BINS * per_bin))
    bound = wpe_field_bound(field, out, taps=10)
    assert bound <= out.nbytes + allowed + 0.35 * field.nbytes
    assert peak <= bound


def test_fcp_peak_is_the_output_and_weights_plus_the_chunk_budget():
    reference = random_field((1000, 257), seed=3)
    estimate = reference + 0.3 * random_field((1000, 257), seed=4)
    peak, (_, out) = traced_peak(lambda: fcp(reference, estimate, taps=40))
    assert peak <= fcp_bound(reference, out, taps=40)


def test_covariance_peaks_are_the_outputs_plus_one_block():
    # a 4.9 MB field against a bound of about 2.8 MB: a scaled or
    # differenced copy of the whole field does not fit
    field = random_field((300, 257, 4), seed=6)
    estimate = random_field((300, 257, 4), seed=7)
    mask = np.random.default_rng(8).random((300, 257))
    psd = psd_floor(estimate)
    peak, cov = traced_peak(lambda: masked_covariances(field, mask))
    assert peak <= covariance_bound(field, cov.phi_s, cov.phi_v, weights=mask)
    peak, phi = traced_peak(lambda: weighted_covariance(field, psd))
    assert peak <= covariance_bound(field, phi, weights=psd)
    peak, cov = traced_peak(lambda: signal_covariances(field, estimate))
    assert peak <= covariance_bound(field, cov.phi_s, cov.phi_v)
    bound = covariance_bound(field, cov.phi_s, cov.phi_v, weights=psd)
    assert bound < 0.6 * field.nbytes


def test_spectrogram_files_move_no_payload_copies(tmp_path):
    # writing a contiguous complex128 array copies nothing of its payload;
    # reading allocates the result once
    values = random_field((200, 257, 4), seed=5)
    path = tmp_path / "x.ldspec"
    peak, _ = traced_peak(lambda: write_spectrogram(path, values))
    assert peak <= 0.1 * values.nbytes
    peak, back = traced_peak(lambda: read_spectrogram(path))
    assert peak <= 1.1 * back.nbytes
