"""Scene simulator tests: impulse-response structure, exact component
additivity, SNR control, and deterministic regeneration."""

import math

import numpy as np
import pytest

from lodistort import (
    RoomSpec,
    TimeSignal,
    generate_rir,
    render_noise_component,
    render_scene,
    synth_noise,
    synth_speech_like,
)
from lodistort.scene import _convolve_mics, _noise_rir


def make_room(**kwargs):
    base = dict(num_mics=2, t60_seconds=0.3, rir_len_samples=2048,
                direct_delay_samples=(8, 11), seed=5)
    base.update(kwargs)
    return RoomSpec(**base)


def test_fft_convolve_matches_direct_convolution():
    rng = np.random.default_rng(21)
    for _ in range(40):
        x = rng.standard_normal(int(rng.integers(1, 70)))
        h = rng.standard_normal(int(rng.integers(1, 70)))
        num = x.shape[0] + h.shape[0] - 1
        got = _convolve_mics([(x, lambda m: h)], 1, h.shape[0], num)[0]
        want = np.convolve(x, h)
        assert got.shape == want[:, None].shape
        scale = np.sum(np.abs(x)) * np.max(np.abs(h))
        assert np.max(np.abs(got[:, 0] - want)) <= 1e-13 * scale


def _per_mic_convolve(signal, kernel):
    # the reference: the signal is transformed again for every kernel
    num = signal.shape[0] + kernel.shape[0] - 1
    size = 1 << (num - 1).bit_length()
    spectrum = np.fft.rfft(signal, size) * np.fft.rfft(kernel, size)
    return np.fft.irfft(spectrum, size)[:num]


def _per_mic_noise(noise, room, noise_index):
    samples = noise.samples[:, 0]
    num = samples.shape[0]
    out = np.empty((num, room.num_mics))
    for m in range(room.num_mics):
        out[:, m] = _per_mic_convolve(samples, _noise_rir(room, noise_index, m))[:num]
    return out


def _per_mic_scene(source, noise_sources, room, snr_db):
    """render_scene with one signal transform per mic and response."""
    src = source.samples[:, 0]
    num = src.shape[0]
    direct = np.zeros((num, room.num_mics))
    residual = np.zeros((num, room.num_mics))
    for m in range(room.num_mics):
        delay = room.direct_delay_samples[m]
        if delay < num:
            direct[delay:, m] = src[:num - delay]
        tail = generate_rir(room, m)
        tail[delay] = 0.0
        if np.any(tail):
            residual[:, m] = _per_mic_convolve(src, tail)[:num]
    noise = np.zeros((num, room.num_mics))
    for i, nz in enumerate(noise_sources):
        noise += _per_mic_noise(nz, room, i)
    if noise_sources and snr_db is not None:
        direct_energy = float(np.sum(direct[:, 0] ** 2))
        noise_energy = float(np.sum(noise[:, 0] ** 2))
        noise *= math.sqrt(direct_energy / noise_energy * 10.0 ** (-snr_db / 10.0))
    mixture = direct + residual
    mixture += noise
    factor = 1.0 / math.sqrt(float(np.var(mixture)))
    for signal in (mixture, direct, residual, noise):
        signal *= factor
    return mixture, direct, residual, noise


@pytest.mark.parametrize("num_mics, t60, delays, num_noises, snr_db", [
    (1, 0.3, 8, 1, 0.0),
    (8, 0.5, tuple(8 + 3 * m for m in range(8)), 2, -4.0),
    (2, 0.0, (8, 11), 2, 3.0),        # no live tails: the residual is zero
    (3, 0.4, (8, 700, 1200), 1, 2.0),  # mic 2's delay is past the signal
    (2, 0.3, (8, 11), 0, None),
    (2, 0.3, (8, 11), 2, None),
])
def test_render_matches_per_mic_transforms(num_mics, t60, delays, num_noises,
                                           snr_db):
    """Transforming each source once gives the same bits as transforming it
    again for every mic."""
    room = RoomSpec(num_mics=num_mics, t60_seconds=t60, rir_len_samples=1500,
                    direct_delay_samples=delays, seed=17)
    num = 1000
    source = synth_speech_like(num, seed=3)
    noises = [synth_noise(num, seed=[4, i]) for i in range(num_noises)]
    scene = render_scene(source, noises, room, snr_db)
    want = _per_mic_scene(source, noises, room, snr_db)
    got = (scene.mixture.samples, scene.direct_path.samples,
           scene.reverb_residual.samples, scene.noise.samples)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    if t60 == 0.0:
        assert not np.any(scene.reverb_residual.samples)
    for i, nz in enumerate(noises):
        assert np.array_equal(render_noise_component(nz, room, i),
                              _per_mic_noise(nz, room, i))


def test_rir_direct_tap_and_causality():
    room = make_room()
    for mic, delay in [(0, 8), (1, 11)]:
        h = generate_rir(room, mic)
        assert h.shape == (2048,)
        assert np.all(h[:delay] == 0.0)  # nothing before the direct path
        assert h[delay] == 1.0
        assert np.any(h[delay + 1:] != 0.0)
    # different mics draw different tails
    assert not np.array_equal(generate_rir(room, 0)[:100], generate_rir(room, 1)[:100])
    # same mic regenerates bit-identically
    assert np.array_equal(generate_rir(room, 0), generate_rir(room, 0))


def test_rir_t60_zero_is_pure_delay():
    h = generate_rir(make_room(t60_seconds=0.0), 0)
    want = np.zeros(2048)
    want[8] = 1.0
    assert np.array_equal(h, want)


def test_rir_envelope_decay_statistics():
    """Tail power in a window around tau = t60 matches the -60 dB/t60 law.

    E|h(tau)|^2 = tail_gain^2 * exp(-6 ln10 tau / t60); averaging over many
    seeds puts the sample mean within a few percent of that.
    """
    t60 = 0.4
    fs = 16000
    delay = 8
    lo, hi = int(0.35 * fs) + delay, int(0.45 * fs) + delay
    total = 0.0
    num_seeds = 40
    for seed in range(num_seeds):
        room = make_room(num_mics=1, t60_seconds=t60, rir_len_samples=hi + 10,
                         direct_delay_samples=delay, seed=seed)
        h = generate_rir(room, 0)
        total += np.sum(h[lo:hi] ** 2)
    tau = (np.arange(lo, hi) - delay) / fs
    expected = num_seeds * np.sum(0.05**2 * np.exp(-6.0 * np.log(10.0) * tau / t60))
    assert abs(total / expected - 1.0) < 0.05


def test_additivity_and_unit_variance():
    room = make_room()
    scene = render_scene(
        synth_speech_like(8000, seed=3),
        [synth_noise(8000, seed=4), synth_noise(8000, seed=5)],
        room,
        snr_db=2.0,
    )
    resid = (scene.mixture.samples - scene.direct_path.samples
             - scene.reverb_residual.samples - scene.noise.samples)
    assert np.max(np.abs(resid)) < 1e-9
    assert abs(np.var(scene.mixture.samples) - 1.0) < 1e-9
    assert scene.mixture.samples.shape == (8000, 2)


def test_requested_snr_is_measured_snr():
    room = make_room(seed=9)
    scene = render_scene(
        synth_speech_like(8000, seed=1), [synth_noise(8000, seed=2)], room,
        snr_db=5.0,
    )
    direct = scene.direct_path.channel(0)
    noise = scene.noise.channel(0)
    measured = 10.0 * np.log10(np.sum(direct**2) / np.sum(noise**2))
    assert abs(measured - 5.0) < 0.01
    assert scene.snr_db == 5.0


def test_snr_none_measures_instead():
    room = make_room(seed=9)
    scene = render_scene(
        synth_speech_like(4000, seed=1), [synth_noise(4000, seed=2)], room,
        snr_db=None,
    )
    direct = scene.direct_path.channel(0)
    noise = scene.noise.channel(0)
    measured = 10.0 * np.log10(np.sum(direct**2) / np.sum(noise**2))
    assert abs(scene.snr_db - measured) < 1e-9


def test_noise_components_sum_linearly():
    room = make_room(seed=7)
    n1 = synth_noise(4000, seed=10)
    n2 = synth_noise(4000, seed=11)
    scene = render_scene(synth_speech_like(4000, seed=12), [n1, n2], room,
                         snr_db=None, normalize=False)
    summed = (render_noise_component(n1, room, 0)
              + render_noise_component(n2, room, 1))
    assert np.max(np.abs(scene.noise.samples - summed)) < 1e-12


def test_source_scaling_rescales_noise_to_hold_snr():
    room = make_room(seed=21)
    src = synth_speech_like(4000, seed=1)
    noises = [synth_noise(4000, seed=2)]
    a = render_scene(src, noises, room, snr_db=3.0, normalize=False)
    scaled = TimeSignal(2.0 * src.samples, src.sample_rate)
    b = render_scene(scaled, noises, room, snr_db=3.0, normalize=False)
    assert np.allclose(b.direct_path.samples, 2.0 * a.direct_path.samples)
    assert np.allclose(b.reverb_residual.samples, 2.0 * a.reverb_residual.samples)
    # the noise gain follows the source so the mixture is just scaled
    assert np.allclose(b.noise.samples, 2.0 * a.noise.samples)
    # with variance normalization the scale cancels entirely
    an = render_scene(src, noises, room, snr_db=3.0)
    bn = render_scene(scaled, noises, room, snr_db=3.0)
    assert np.allclose(bn.mixture.samples, an.mixture.samples, atol=1e-12)


def test_anechoic_noiseless_scene_is_direct_path():
    room = make_room(t60_seconds=0.0)
    scene = render_scene(synth_speech_like(4000, seed=6), [], room, snr_db=None)
    assert np.array_equal(scene.mixture.samples, scene.direct_path.samples)
    assert np.all(scene.reverb_residual.samples == 0.0)
    assert np.all(scene.noise.samples == 0.0)


def test_render_is_deterministic():
    def build():
        return render_scene(
            synth_speech_like(3000, seed=8),
            [synth_noise(3000, seed=9)],
            make_room(seed=33),
            snr_db=0.0,
        )

    a, b = build(), build()
    assert np.array_equal(a.mixture.samples, b.mixture.samples)
    assert np.array_equal(a.noise.samples, b.noise.samples)


def test_validation_errors():
    with pytest.raises(ValueError):
        RoomSpec(num_mics=2, t60_seconds=-0.1, rir_len_samples=100)
    with pytest.raises(ValueError):
        RoomSpec(num_mics=2, t60_seconds=0.3, rir_len_samples=8,
                 direct_delay_samples=(8, 9))  # delay beyond the response
    with pytest.raises(ValueError):
        RoomSpec(num_mics=3, t60_seconds=0.3, rir_len_samples=100,
                 direct_delay_samples=(1, 2))  # wrong delay count
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t60_seconds"):
            make_room(t60_seconds=bad)
        with pytest.raises(ValueError, match="tail_gain"):
            make_room(tail_gain=bad)
    room = make_room()
    with pytest.raises(ValueError):
        render_scene(synth_speech_like(1000, seed=1), [], room, snr_db=5.0)
    with pytest.raises(ValueError):  # zero-energy source cannot meet an SNR
        render_scene(TimeSignal(np.zeros(1000), 16000),
                     [synth_noise(1000, seed=2)], room, snr_db=5.0)


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        make_room(seed=-1)


def test_snr_must_be_a_number_or_plus_inf():
    room = make_room()
    source = synth_speech_like(1000, seed=1)
    noises = [synth_noise(1000, seed=2)]
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="snr_db"):
            render_scene(source, noises, room, snr_db=bad)
    # +inf keeps its meaning: the noise is scaled to silence
    scene = render_scene(source, noises, room, snr_db=math.inf)
    assert not np.any(scene.noise.samples)
    assert scene.snr_db == math.inf


def test_synth_sources_are_unit_power_and_seeded():
    speech = synth_speech_like(16000, seed=4)
    noise = synth_noise(16000, seed=4)
    assert abs(np.sqrt(np.mean(speech.samples**2)) - 1.0) < 1e-6
    assert abs(np.sqrt(np.mean(noise.samples**2)) - 1.0) < 1e-6
    assert np.array_equal(speech.samples, synth_speech_like(16000, seed=4).samples)
    # composite seed keys are accepted and distinct
    assert not np.array_equal(
        synth_noise(1000, seed=[4, 1]).samples,
        synth_noise(1000, seed=[4, 2]).samples,
    )
    # amplitude modulation makes frame power vary far more than white noise
    sp = speech.samples[: 16000 - 16000 % 400, 0].reshape(-1, 400)
    np_ = noise.samples[: 16000 - 16000 % 400, 0].reshape(-1, 400)
    assert np.std(np.mean(sp**2, axis=1)) > 5.0 * np.std(np.mean(np_**2, axis=1))
