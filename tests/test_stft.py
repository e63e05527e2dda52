"""STFT analysis/synthesis tests against a direct windowed-DFT oracle.

The oracle below re-derives every frame from the documented layout (384-sample
front/back padding, hop 128, sqrt-Hann window) and applies an explicit DFT
sum, sharing no code path with the implementation's sliding-window framing
+ rfft.  The index-gather framing the implementation used before is kept
here as a second oracle that the framing must match bit for bit, and so is
the per-frame overlap-add that synthesis must match bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from lodistort import StftConfig, TimeSignal, analyze, sqrt_hann_window, synthesize
from lodistort import scene, stft, wavio

CFG = StftConfig


def oracle_window(length):
    n = np.arange(length, dtype=np.float64)
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / length))


def oracle_frames(x):
    """Gather windowed frames per the documented padded layout, T x win."""
    pad = CFG.window_len - CFG.hop
    num_frames = -(-(x.size + 2 * pad) // CFG.hop)
    buf = np.zeros((num_frames - 1) * CFG.hop + CFG.window_len)
    buf[pad:pad + x.size] = x
    frames = np.empty((num_frames, CFG.window_len))
    for t in range(num_frames):
        frames[t] = buf[t * CFG.hop:t * CFG.hop + CFG.window_len]
    return frames * oracle_window(CFG.window_len)


def oracle_analyze(x):
    """Explicit one-sided DFT of every oracle frame (O(T * N^2), small use only)."""
    frames = oracle_frames(x)
    n = np.arange(CFG.fft_len)
    k = np.arange(CFG.num_bins)
    dft = np.exp(-2j * np.pi * np.outer(k, n) / CFG.fft_len)  # F x fft_len
    padded = np.zeros((frames.shape[0], CFG.fft_len))
    padded[:, :CFG.window_len] = frames
    return padded @ dft.T  # T x F


def gather_analyze(samples):
    """Index-gather framing: a T x W x C frame array, rfft along axis 1."""
    num_samples, num_channels = samples.shape
    num_frames = CFG.num_frames(num_samples)
    buf = np.zeros(((num_frames - 1) * CFG.hop + CFG.window_len, num_channels))
    buf[CFG.pad:CFG.pad + num_samples] = samples
    offsets = CFG.hop * np.arange(num_frames)
    frames = buf[offsets[:, None] + np.arange(CFG.window_len)[None, :]]
    window = sqrt_hann_window(CFG.window_len)
    return np.fft.rfft(frames * window[None, :, None], n=CFG.fft_len, axis=1)


def per_frame_synthesize(spec, num_samples):
    """Overlap-add one frame at a time, oldest first, as synthesis once did."""
    num_frames, _, num_channels = spec.shape
    window = sqrt_hann_window(CFG.window_len)
    frames = np.fft.irfft(spec, n=CFG.fft_len, axis=1)[:, :CFG.window_len, :]
    frames *= window[None, :, None]
    buf_len = (num_frames - 1) * CFG.hop + CFG.window_len
    buf = np.zeros((buf_len, num_channels))
    win_power = np.zeros(buf_len)
    for t in range(num_frames):
        start = t * CFG.hop
        buf[start:start + CFG.window_len] += frames[t]
        win_power[start:start + CFG.window_len] += window ** 2
    buf /= np.maximum(win_power, 1e-12)[:, None]
    out = np.zeros((num_samples, num_channels))
    avail = min(num_samples, buf_len - CFG.pad)
    if avail > 0:
        out[:avail] = buf[CFG.pad:CFG.pad + avail]
    return out


def test_window_matches_formula():
    w = sqrt_hann_window(512)
    assert np.allclose(w, oracle_window(512), atol=1e-14)
    assert w[0] == 0.0
    # periodic (DFT-even) flavor: w[1] and w[-1] agree, no symmetric endpoint
    assert np.isclose(w[1], w[-1], atol=1e-14)


def test_cola_denominator_interior_is_two():
    # sum of squared windows over all hop offsets must be flat on the interior
    w = sqrt_hann_window(512) ** 2
    acc = np.zeros(4 * 512)
    for t in range(0, 4 * 512 - 512 + 1, 128):
        acc[t:t + 512] += w
    interior = acc[512:-512]
    assert np.max(np.abs(interior - 2.0)) < 1e-12


def test_frame_count_formula():
    for n, want in [(16000, 131), (1, 7), (128, 7), (129, 8), (64000, 506)]:
        assert CFG.num_frames(n) == want, n


def test_all_zero_round_trip_and_shape():
    sig = TimeSignal(np.zeros(16000))
    spec = analyze(sig)  # 131 x 257 x 1
    assert spec.shape == (131, 257, 1)
    assert np.all(spec == 0.0)
    back = synthesize(spec, num_samples=16000)
    assert back.samples.shape == (16000, 1)
    assert np.all(back.samples == 0.0)


def test_round_trip_various_lengths():
    rng = np.random.default_rng(11)
    for n in [1, 100, 511, 512, 8000, 12345]:
        x = rng.standard_normal(n)
        spec = analyze(TimeSignal(x))
        back = synthesize(spec, num_samples=n).samples[:, 0]
        err = np.max(np.abs(back - x)) / max(np.max(np.abs(x)), 1e-30)
        assert err < 1e-10, (n, err)


def test_analysis_matches_direct_dft_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(700)
    got = analyze(TimeSignal(x))[:, :, 0]
    want = oracle_analyze(x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-9


def test_framing_matches_index_gather():
    rng = np.random.default_rng(31)
    for _ in range(8):
        num_samples = int(rng.integers(1, 5000))
        num_channels = int(rng.integers(1, 7))
        x = rng.standard_normal((num_samples, num_channels))
        got = analyze(x)
        assert got.flags.c_contiguous
        assert np.array_equal(got, gather_analyze(x)), x.shape


def test_synthesis_matches_per_frame_overlap_add():
    # 150 frames span several of synthesize's blocks of frames at 1 and 3
    # channels: the blocks add every sample's frames in the per-frame order
    rng = np.random.default_rng(41)
    for num_frames in (1, 2, 5, 37, 150):
        for num_channels in (1, 3):
            shape = (num_frames, CFG.num_bins, num_channels)
            spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            default_len = max(1, num_frames * CFG.hop - 2 * CFG.pad)
            for num_samples in (None, 1, default_len + 333):
                got = synthesize(spec, num_samples).samples
                want = per_frame_synthesize(spec, num_samples or default_len)
                assert got.tobytes() == want.tobytes(), (shape, num_samples)


def test_bin_center_cosine_concentrates():
    # 1 kHz = bin 32 exactly (32 * 16000 / 512); interior frames must peak there
    k0 = 32
    t_axis = np.arange(4096) / 16000.0
    x = np.cos(2.0 * np.pi * (k0 * 16000.0 / 512.0) * t_axis)
    spec = analyze(TimeSignal(x))[:, :, 0]
    mags = np.abs(spec)
    interior = mags[6:-6]  # frames fully inside the signal
    assert np.all(np.argmax(interior, axis=1) == k0)
    # sqrt-Hann leaks more than full Hann; two bins out is still >20 dB down
    assert np.all(interior[:, k0] > 10.0 * interior[:, k0 + 2])
    want = oracle_analyze(x)
    assert np.max(np.abs(spec - want)) < 1e-9


def test_impulse_first_frames_match_window_dft():
    x = np.zeros(600)
    x[0] = 1.0
    spec = analyze(TimeSignal(x))[:, :, 0]
    w = oracle_window(512)
    pad = 384
    k = np.arange(257)
    for t in range(4):
        pos = pad - t * 128  # impulse position inside frame t
        if 0 <= pos < 512:
            want = w[pos] * np.exp(-2j * np.pi * k * pos / 512)
            assert np.max(np.abs(spec[t] - want)) < 1e-12, t


def test_linearity():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(3000)
    y = rng.standard_normal(3000)
    a, b = 0.7, -2.3
    lhs = analyze(TimeSignal(a * x + b * y))
    rhs = a * analyze(TimeSignal(x)) + b * analyze(TimeSignal(y))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1.0)


def test_parseval_per_frame():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(2000)
    spec = analyze(TimeSignal(x))[:, :, 0]
    frames = oracle_frames(x)
    frame_energy = np.sum(frames**2, axis=1)
    weights = np.full(CFG.num_bins, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0  # DC and Nyquist are not mirrored
    spec_energy = np.sum(weights * np.abs(spec) ** 2, axis=1) / CFG.fft_len
    keep = frame_energy > 1e-12
    rel = np.abs(spec_energy[keep] - frame_energy[keep]) / frame_energy[keep]
    assert np.max(rel) < 1e-8


def test_multichannel_equals_stacked_mono():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1500, 2))
    spec = analyze(TimeSignal(x))
    for c in range(2):
        mono = analyze(TimeSignal(x[:, c]))[:, :, 0]
        assert np.array_equal(spec[:, :, c], mono)
    back = synthesize(spec, num_samples=1500)
    assert back.samples.shape == (1500, 2)
    assert np.max(np.abs(back.samples - x)) < 1e-10


def test_synthesize_default_length():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(16000)
    spec = analyze(TimeSignal(x))
    back = synthesize(spec)  # no num_samples: T*hop - 2*pad samples
    assert back.num_samples == 131 * 128 - 2 * 384
    assert np.max(np.abs(back.samples[:16000, 0] - x)) < 1e-10


def test_config_validation():
    # the transform and the sample rate are constants, not fields
    assert StftConfig.sample_rate == StftConfig().sample_rate == 16000
    with pytest.raises(TypeError):
        StftConfig(sample_rate=8000)
    with pytest.raises(TypeError):
        StftConfig(hop=64)  # no other transform can be picked


@pytest.mark.parametrize("rate", [float("nan"), 16000.5, float("inf"), True, 0, -8000,
                                  16000.0, "16000"])
def test_a_signal_takes_no_sample_rate(rate):
    # a second positional argument is refused, not taken for _adopt
    with pytest.raises(TypeError):
        TimeSignal(np.zeros(10), rate)


def test_signal_samples_are_read_only():
    signal = TimeSignal(np.ones((100, 2)))
    assert not signal.samples.flags.writeable
    with pytest.raises(ValueError):
        signal.samples[0, 0] = 2.0
    with pytest.raises(ValueError):
        signal.channel(1)[:] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        signal.samples = np.zeros((100, 2))
    assert not hasattr(signal, "sample_rate")


@pytest.mark.parametrize("shape", [(100,), (100, 2)])
def test_signal_copies_a_writeable_input_once_and_leaves_it_writeable(shape):
    values = np.arange(float(np.prod(shape))).reshape(shape)
    signal = TimeSignal(values)
    assert values.flags.writeable
    assert not np.shares_memory(values, signal.samples)
    values *= -1.0
    assert np.array_equal(signal.samples.reshape(shape), -values)
    # so is a read-only view of a writeable array
    base = np.arange(100.0)
    view = base[10:]
    view.flags.writeable = False
    signal = TimeSignal(view)
    base *= -1.0
    assert np.array_equal(signal.samples[:, 0], -view)


def test_signal_copies_a_read_only_array_its_caller_still_holds():
    # whoever holds an array that owns its memory may make it writeable again
    for shape in ((100,), (100, 3)):
        values = np.ones(shape)
        values.flags.writeable = False
        signal = TimeSignal(values)
        assert not np.shares_memory(values, signal.samples)
        values.flags.writeable = True
        values[0] = 5.0
        assert signal.samples[0, 0] == 1.0
        assert not signal.samples.flags.writeable


def _built_arrays(monkeypatch):
    # every array handed to a TimeSignal the library builds, and the signal
    built = []

    class Recording(TimeSignal):
        def __post_init__(self, adopt):
            array = self.samples
            super().__post_init__(adopt)
            built.append((array, self))

    for module in (stft, scene, wavio):
        monkeypatch.setattr(module, "TimeSignal", Recording)
    return built


@pytest.mark.parametrize("make, count", [
    (lambda wav: synthesize(analyze(np.ones(1000))), 1),
    (lambda wav: scene.synth_speech_like(1000, seed=1), 1),
    (lambda wav: scene.synth_noise(1000, seed=1), 1),
    # the two sources, then the scene's four signals
    (lambda wav: scene.render_scene(
        scene.synth_speech_like(4000, seed=2), [scene.synth_noise(4000, seed=3)],
        scene.RoomSpec(num_mics=2, t60_seconds=0.2, rir_len_samples=512),
        snr_db=0.0), 6),
    (lambda wav: wavio.read_wav(wav), 1),
], ids=["synthesize", "synth_speech_like", "synth_noise", "render_scene", "read_wav"])
def test_library_constructors_freeze_what_they_built(make, count, tmp_path,
                                                     monkeypatch):
    wav = str(tmp_path / "x.wav")
    wavio.write_wav(wav, TimeSignal(np.linspace(-0.5, 0.5, 300).reshape(150, 2)))
    built = _built_arrays(monkeypatch)
    make(wav)
    assert len(built) == count
    for array, signal in built:
        assert not signal.samples.flags.writeable
        assert np.shares_memory(array, signal.samples)


def test_analyze_rejects_bad_input():
    with pytest.raises(ValueError, match=r"^samples must have every size >= 1"):
        analyze(TimeSignal(np.empty((0,))))
    with pytest.raises(ValueError):
        TimeSignal(np.array([1.0, np.nan]))
    # a raw array is read as a TimeSignal is, so a NaN sample is rejected too
    samples = np.ones(1000)
    samples[500] = np.nan
    with pytest.raises(ValueError, match="finite"):
        analyze(samples)
    with pytest.raises(ValueError):
        synthesize(np.zeros((10, 17), dtype=complex))  # wrong bin count
    for num_samples in (-5, 0):
        with pytest.raises(ValueError, match=f"^num_samples must be >= 1, got {num_samples}"):
            synthesize(np.zeros((10, 257), dtype=complex), num_samples)
