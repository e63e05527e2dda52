"""Oracle estimator tests: hand-evaluated mask values, energy-calibrated
corruption, its block-wise energy sums and its draws on the worker pool,
and external-estimate loading."""

import math
import warnings

import numpy as np
import pytest

from lodistort import (
    FormatError,
    PipelineSpec,
    RoomSpec,
    StftConfig,
    TimeSignal,
    analyze,
    corrupt_estimate,
    load_external_estimate,
    oracle_estimate,
    render_scene,
    run_pipeline,
    synth_noise,
    synth_speech_like,
    write_spectrogram,
    write_wav,
)
from lodistort import _pool, pipeline
from lodistort._rules import BLOCK_BYTES
from lodistort.estimator import ORACLE_KINDS, TargetEstimate, _energy


def random_pair(seed, shape=(6, 5, 2)):
    rng = np.random.default_rng(seed)
    mix = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tgt = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return mix, tgt


def test_oracle_direct_is_the_target_itself():
    # no copy of the target: the estimate's values are the complex128 target
    # array (both read-only by contract), and other input is converted once
    mix, tgt = random_pair(0)
    est = oracle_estimate(mix, tgt, "oracleDirect")
    assert est.values is tgt
    real = oracle_estimate(mix.real, tgt.real, "oracleDirect").values
    assert real.dtype == np.complex128 and np.array_equal(real, tgt.real)


def test_single_bin_mask_values():
    # Y = 1, S = j: magnitudes agree so the magnitude mask passes Y through,
    # while the 90-degree phase error zeroes the phase-sensitive mask.
    mix = np.full((1, 1, 1), 1.0 + 0.0j)
    tgt = np.full((1, 1, 1), 0.0 + 1.0j)
    mag = oracle_estimate(mix, tgt, "oracleMagMask").values[0, 0, 0]
    psm = oracle_estimate(mix, tgt, "oraclePhaseSensitiveMask").values[0, 0, 0]
    assert mag == 1.0 + 0.0j
    assert abs(psm) < 1e-15  # cos(pi/2) in floats


def test_mag_mask_matches_elementwise_formula():
    mix, tgt = random_pair(1)
    est = oracle_estimate(mix, tgt, "oracleMagMask").values
    want = np.empty_like(mix)
    for idx in np.ndindex(mix.shape):  # brute-force, bin by bin
        y, s = mix[idx], tgt[idx]
        m = min(abs(s) / abs(y), 1.0) if abs(y) > 0 else 0.0
        want[idx] = m * y
    assert np.max(np.abs(est - want)) < 1e-12


def test_psm_matches_elementwise_formula():
    mix, tgt = random_pair(2)
    est = oracle_estimate(mix, tgt, "oraclePhaseSensitiveMask").values
    want = np.empty_like(mix)
    for idx in np.ndindex(mix.shape):
        y, s = mix[idx], tgt[idx]
        if abs(y) > 0:
            m = abs(s) / abs(y) * np.cos(np.angle(s) - np.angle(y))
        else:
            m = 0.0
        want[idx] = min(max(m, 0.0), 1.0) * y
    assert np.max(np.abs(est - want)) < 1e-12


def test_psm_matches_elementwise_formula_with_zero_mixture_bins():
    mix, tgt = random_pair(13, shape=(9, 7, 3))
    mix[2, :, 0] = 0.0
    mix[4, 3, :] = complex(-0.0, 0.0)
    mix[6, 1, 2] = complex(0.0, -0.0)
    tgt[4, 3, 1] = 0.0  # zero on both sides too
    est = oracle_estimate(mix, tgt, "oraclePhaseSensitiveMask").values
    for idx in np.ndindex(mix.shape):
        y, s = mix[idx], tgt[idx]
        if abs(y) > 0:
            m = abs(s) / abs(y) * np.cos(np.angle(s) - np.angle(y))
        else:
            m = 0.0
        want = min(max(m, 0.0), 1.0) * y
        assert abs(est[idx] - want) < 1e-12, idx
        if y == 0:
            assert est[idx] == 0.0, idx


def test_masked_estimates_are_bounded_by_mixture():
    mix, tgt = random_pair(3, shape=(20, 9, 3))
    tgt[5] *= 40.0  # force mask saturation somewhere
    mix[7, 3, :] = 0.0
    for kind in ("oracleMagMask", "oraclePhaseSensitiveMask"):
        est = oracle_estimate(mix, tgt, kind).values
        assert np.all(np.abs(est) <= np.abs(mix) + 1e-12), kind
        assert np.all(est[7, 3, :] == 0.0), kind  # zero-mixture bins stay zero


def test_target_equal_mixture_means_unit_mask():
    mix, _ = random_pair(4)
    est = oracle_estimate(mix, mix, "oracleMagMask").values
    assert np.max(np.abs(est - mix)) < 1e-12


def test_unknown_kind_and_shape_mismatch():
    mix, tgt = random_pair(5)
    with pytest.raises(ValueError):
        oracle_estimate(mix, tgt, "oracleBogus")
    with pytest.raises(ValueError):
        oracle_estimate(mix, tgt[:, :-1], "oracleDirect")
    assert "oracleDirect" in ORACLE_KINDS


def test_corrupt_energy_ratio_is_exact():
    _, tgt = random_pair(6, shape=(10, 8, 2))
    clean = TargetEstimate(tgt)
    for snr in (0.0, 10.0, -5.0):
        noisy = corrupt_estimate(clean, snr, seed=3)
        added = noisy.values - clean.values
        ratio = 10.0 * np.log10(
            np.sum(np.abs(clean.values) ** 2) / np.sum(np.abs(added) ** 2)
        )
        assert abs(ratio - snr) < 1e-6, snr


def corrupt_two_draw(values, est_err_snr_db, seed):
    """The complex-sum form: both draws added as a + 1j b, energies from |.|^2."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(values.shape) + 1j * rng.standard_normal(values.shape)
    clean_energy = np.sum(np.abs(values) ** 2)
    noise_energy = np.sum(np.abs(noise) ** 2)
    scale = np.sqrt(clean_energy * 10.0 ** (-est_err_snr_db / 10.0) / noise_energy)
    return values + scale * noise


def test_corrupt_matches_two_draw_form():
    for seed, shape in ((0, (10, 8, 2)), (1, (131, 257, 8)), (2, (3, 5, 1))):
        _, tgt = random_pair(seed, shape=shape)
        clean = TargetEstimate(tgt)
        for snr in (-5.0, 0.0, 10.0, 37.5):
            got = corrupt_estimate(clean, snr, seed=seed + 40).values
            want = corrupt_two_draw(tgt, snr, seed + 40)
            worst = np.max(np.abs(got - want))
            assert worst <= 1e-15 * np.max(np.abs(want)), (shape, snr)


def test_corrupt_inf_is_identity_and_seeded_otherwise():
    _, tgt = random_pair(7)
    clean = TargetEstimate(tgt)
    same = corrupt_estimate(clean, np.inf, seed=0)
    assert np.array_equal(same.values, clean.values)
    a = corrupt_estimate(clean, 5.0, seed=11).values
    b = corrupt_estimate(clean, 5.0, seed=11).values
    c = corrupt_estimate(clean, 5.0, seed=12).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        corrupt_estimate(clean, -np.inf, seed=0)


def test_corrupt_rejects_nan_snr():
    _, tgt = random_pair(12)
    clean = TargetEstimate(tgt)
    with pytest.raises(ValueError, match="est_err_snr_db"):
        corrupt_estimate(clean, float("nan"), seed=0)
    with pytest.raises(ValueError, match="est_err_snr_db"):
        corrupt_estimate(clean, np.float64("nan"), seed=0)


def test_corrupt_rejects_an_error_past_float64_range():
    values = np.ones((3, 4, 1), complex)
    clean = TargetEstimate(values)
    for snr in (-4000.0, -3080.0):
        with pytest.raises(ValueError, match="^est_err_snr_db"):
            corrupt_estimate(clean, snr, seed=0)
    # -3000 dB still scales finitely: the error is the seeded draws, real
    # parts then imaginary, times the scale that sets the energy ratio
    rng = np.random.default_rng(0)
    real, imag = rng.standard_normal(values.shape), rng.standard_normal(values.shape)
    noise_energy = float(np.sum(np.square(real))) + float(np.sum(np.square(imag)))
    scale = math.sqrt(float(np.sum(np.square(values.view(np.float64))))
                      * 10.0 ** (3000.0 / 10.0) / noise_energy)
    want = np.empty_like(values)
    want.real = real * scale + values.real
    want.imag = imag * scale + values.imag
    got = corrupt_estimate(clean, -3000.0, seed=0).values
    assert np.isfinite(got).all()
    assert got.tobytes() == want.tobytes()


def _single_bad_bin(bad):
    values = np.ones((3, 4, 2), complex)
    values[1, 2, 0] = bad
    return values


@pytest.mark.parametrize("values", [
    _single_bad_bin(complex(np.nan, 0.5)), _single_bad_bin(complex(0.5, np.inf)),
    _single_bad_bin(complex(-np.inf, 0.0)), _single_bad_bin(1e200),
    # every square is finite, their sum is not
    np.full((3, 4, 2), 1e154 + 1e154j),
], ids=["nan", "inf", "-inf", "square-overflow", "sum-overflow"])
def test_corrupt_blames_an_estimate_past_float64s_range(values):
    # the estimate is at fault, not the ratio: the message names it, and no
    # overflow warning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the estimate must be finite"):
            corrupt_estimate(TargetEstimate(values), 10.0, seed=0)
    # +inf dB adds no error and reads no energy: the values come back as they are
    same = corrupt_estimate(TargetEstimate(values), math.inf, seed=0).values
    assert same.tobytes() == values.tobytes()


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@pytest.mark.parametrize("err_db", [math.inf, 10.0])
def test_the_estimators_leave_their_arguments_unchanged(kind, err_db):
    # 70 frames of 257 x 4 are three blocks of the mask oracles' loop
    mix, tgt = random_pair(21, shape=(70, 257, 4))
    mix_bytes, tgt_bytes = mix.tobytes(), tgt.tobytes()
    est = oracle_estimate(mix, tgt, kind)
    est_bytes = est.values.tobytes()
    noisy = corrupt_estimate(est, err_db, seed=2)
    assert mix.tobytes() == mix_bytes and tgt.tobytes() == tgt_bytes
    assert est.values.tobytes() == est_bytes
    assert not np.shares_memory(noisy.values, est.values)
    assert not np.shares_memory(noisy.values, tgt)


def _draw_count(seconds, mics):
    # 2 T F P: the values an energy sum of a field's draws or clean parts reads
    num_frames = StftConfig.num_frames(int(seconds * StftConfig.sample_rate))
    return 2 * num_frames * StftConfig.num_bins * mics


# a block holds BLOCK_BYTES // 8 float64 values
ENERGY_SIZES = {
    "1-300": range(1, 301),
    "block-9": [BLOCK_BYTES // 8 - 9], "block-1": [BLOCK_BYTES // 8 - 1],
    "block+1": [BLOCK_BYTES // 8 + 1], "block+9": [BLOCK_BYTES // 8 + 9],
    # the benchmark's fields: 4 s at 6 mics, 1 s at 8 mics, 2 s at 4 mics
    "suite6": [_draw_count(4, 6)], "beam8": [_draw_count(1, 8)],
    "cli": [_draw_count(2, 4)],
    "3e6+7": [3 * 10 ** 6 + 7],
}


@pytest.mark.parametrize("sizes", ENERGY_SIZES.values(), ids=ENERGY_SIZES.keys())
def test_blockwise_energy_is_numpys_sum_of_squares(sizes):
    # the block-wise sum repeats numpy's pairwise splits: a numpy release that
    # splits elsewhere fails here, before any estimate moves
    rng = np.random.default_rng(30)
    for size in sizes:
        values = rng.standard_normal(size) * np.exp(rng.uniform(-3.0, 3.0, size))
        assert _energy(values).tobytes() == np.sum(np.square(values)).tobytes(), size


def _scene(mics):
    room = RoomSpec(num_mics=mics, t60_seconds=0.3, rir_len_samples=2000, seed=mics)
    return render_scene(synth_speech_like(8000, seed=[mics, 1]),
                        [synth_noise(8000, seed=[mics, 2])], room, snr_db=5.0)


def _pipeline_estimate(scene, spec):
    # the estimate node of a run on a scene the memo does not hold
    with pipeline._memo_lock:
        pipeline._memo.clear()
    return run_pipeline(scene, spec).stages["estimate"]


@pytest.mark.parametrize("mics", [1, 8])
@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_the_pipeline_estimate_is_the_same_drawn_on_the_pool_or_inline(
        monkeypatch, kind, mics):
    # run_pipeline starts the draws on the pool before the mixture's STFT;
    # at one worker they run inline: the estimate is byte-identical, and it
    # is the composed estimators' channel ref_mic
    scene = _scene(mics)
    spec = PipelineSpec("fcp" if mics == 1 else "mvdr", estimator=kind,
                        est_err_snr_db=10.0, ref_mic=mics - 1, seed=5)
    monkeypatch.setattr(_pool, "worker_count", lambda: 2)
    pooled = _pipeline_estimate(scene, spec)
    monkeypatch.setattr(_pool, "worker_count", lambda: 1)
    inline = _pipeline_estimate(scene, spec)
    assert pooled.tobytes() == inline.tobytes()
    composed = corrupt_estimate(oracle_estimate(
        analyze(scene.mixture), analyze(scene.direct_path), kind), 10.0, seed=5)
    assert composed.channel(spec.ref_mic).tobytes() == pooled.tobytes()


def test_external_spectrogram_round_trip(tmp_path):
    _, tgt = random_pair(8, shape=(7, 257, 2))
    path = tmp_path / "est.ldspec"
    write_spectrogram(path, tgt)
    est = load_external_estimate(path, (7, 257, 2))
    assert np.array_equal(est.values, tgt)

    with pytest.raises(FormatError):  # frame count mismatch
        load_external_estimate(path, (8, 257, 2))
    write_spectrogram(path, tgt[:, :, :2].repeat(2, axis=2)[:, :, :3])
    with pytest.raises(FormatError):  # 3 channels against a 2-channel mixture
        load_external_estimate(path, (7, 257, 2))
    bad = np.array(tgt)
    bad[0, 0, 0] = np.nan
    write_spectrogram(path, bad)
    with pytest.raises(FormatError):
        load_external_estimate(path, (7, 257, 2))


def test_external_wav_is_analyzed(tmp_path):
    rng = np.random.default_rng(9)
    wave = rng.standard_normal(4000) * 0.1
    path = tmp_path / "est.wav"
    write_wav(path, TimeSignal(wave))
    spec = analyze(read_back := TimeSignal(wave))
    # float32 WAV quantization, so compare against the re-read wave instead
    from lodistort import read_wav

    expected = analyze(read_wav(path))
    est = load_external_estimate(path, (spec.shape[0], 257, 3))
    assert est.values.shape == (spec.shape[0], 257, 1)
    assert np.array_equal(est.values, expected)


def test_mono_channel_clamp():
    est = TargetEstimate(np.ones((2, 3, 1), dtype=complex))
    assert est.channel(2).shape == (2, 3)
    assert est.channel(5) is not None  # mono clamps any index to channel 0
