"""Multichannel scene simulation with stochastic tapped-delay-line impulse
responses.

The simulator is deliberately geometry-free: each microphone sees the source
through an impulse response with a unit direct-path tap at an integer delay
followed by an i.i.d. Gaussian tail whose envelope decays by 60 dB over the
requested T60.  Noise sources get their own independent responses.  All
randomness is keyed off (seed, stream, source index, mic index) so any piece
of a scene can be regenerated in isolation, bit-identically.

Each source is transformed once per scene and convolved with every mic's
response from that one spectrum.  Each (source, mic) response is built,
transformed and applied as one job on the worker pool linpred uses (see
_pool), one call per scene, so the responses render in parallel; the result
is bit-identical to convolving each source per mic, serially, with the
source transformed anew each time.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _pool
from .stft import TimeSignal, as_mono

# rng stream tags so source and noise responses never share draws
_SOURCE_STREAM = 0
_NOISE_STREAM = 1


@dataclass(frozen=True)
class RoomSpec:
    """Parameters of the simulated room.

    Attributes:
        num_mics: channel count P
        t60_seconds: reverberation time; 0 yields direct-path-only responses
        rir_len_samples: length of each impulse response
        direct_delay_samples: direct-path delay per mic; an int applies the
            same delay everywhere, a sequence gives one delay per mic
        seed: base seed for every random draw in the scene
        sample_rate_hz: sampling rate the responses are generated for
        tail_gain: amplitude of the Gaussian tail relative to the direct tap
    """

    num_mics: int
    t60_seconds: float
    rir_len_samples: int
    direct_delay_samples: object = 8
    seed: int = 0
    sample_rate_hz: int = 16000
    tail_gain: float = 0.05

    def __post_init__(self):
        if self.num_mics < 1:
            raise ValueError(f"num_mics must be >= 1, got {self.num_mics}")
        # NaN compares False to everything, so test for the valid range
        if not 0 <= self.t60_seconds < math.inf:
            raise ValueError(
                f"t60_seconds must be finite and >= 0, got {self.t60_seconds}"
            )
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if not 0 <= self.tail_gain < math.inf:
            raise ValueError(f"tail_gain must be finite and >= 0, got {self.tail_gain}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        delays = self.direct_delay_samples
        if np.isscalar(delays):
            delays = (int(delays),) * self.num_mics
        else:
            delays = tuple(int(d) for d in delays)
        if len(delays) != self.num_mics:
            raise ValueError(
                f"need one direct delay per mic, got {len(delays)} for "
                f"{self.num_mics} mics"
            )
        if min(delays) < 0:
            raise ValueError("direct delays must be nonnegative")
        if max(delays) >= self.rir_len_samples:
            raise ValueError(
                "rir_len_samples must exceed the largest direct delay "
                f"({max(delays)} >= {self.rir_len_samples})"
            )
        object.__setattr__(self, "direct_delay_samples", delays)


@dataclass
class Scene:
    """A rendered scene: mixture = direct_path + reverb_residual + noise."""

    mixture: TimeSignal
    direct_path: TimeSignal
    reverb_residual: TimeSignal
    noise: TimeSignal
    snr_db: float


def _convolve_mics(sources, num_mics, kernel_len, num_out):
    """Convolve every source with every mic's response.

    `sources` holds (signal, response) pairs, the signals 1-D and of one
    length; response(m) builds mic m's response, kernel_len samples long,
    or returns None for a zero column.  Each convolution runs through a
    real FFT whose size is the next power of two that holds the whole
    result, and each signal is transformed once.  Every (source, mic) pair
    is one job on the worker pool, all in one call: the job builds the
    response, transforms it and multiplies it into its worker's product
    buffer with the signal's spectrum as the left operand.  numpy's SIMD
    complex multiply is not bitwise commutative, and
    `rfft(signal) * rfft(kernel)` multiplies into the signal's spectrum, so
    this order keeps every column bit-identical to a serial convolution
    that transforms the signal again for each kernel.  The inverse
    transform goes to the pair's row of a sources x num_mics x num_out
    buffer, copied into the results once: columns of a result written from
    two threads would share cache lines.

    Return:
        per source, the first num_out samples of its convolutions as a
        num_out x num_mics array
    """
    num = sources[0][0].shape[0] + kernel_len - 1
    size = 1 << (num - 1).bit_length()
    spectra = [np.fft.rfft(signal, size) for signal, _ in sources]
    rows = np.zeros((len(sources), num_mics, num_out))
    jobs = range(len(sources) * num_mics)
    # allocated here rather than in the jobs: buffers a pool thread
    # allocates stay resident in its own malloc arena after the call
    products = [np.empty_like(spectra[0])
                for _ in range(max(1, min(_pool.worker_count(), len(jobs))))]

    def convolve(product, job):
        s, m = divmod(job, num_mics)
        kernel = sources[s][1](m)
        if kernel is not None:
            np.multiply(spectra[s], np.fft.rfft(kernel, size), out=product)
            rows[s, m] = np.fft.irfft(product, size)[:num_out]

    _pool.run_chunks(convolve, products, jobs)
    return [row.T.copy() for row in rows]


def _tap_rir(room, delay, key):
    h = np.zeros(room.rir_len_samples)
    h[delay] = 1.0
    tail_len = room.rir_len_samples - delay - 1
    if room.t60_seconds > 0 and tail_len > 0:
        rng = np.random.default_rng(key)
        tau = np.arange(1, tail_len + 1) / room.sample_rate_hz
        envelope = np.exp(-3.0 * np.log(10.0) * tau / room.t60_seconds)
        h[delay + 1:] = room.tail_gain * envelope * rng.standard_normal(tail_len)
    return h


def generate_rir(room, mic_index):
    """Impulse response from the target source to one microphone."""
    if not 0 <= mic_index < room.num_mics:
        raise ValueError(f"mic_index {mic_index} out of range for {room.num_mics} mics")
    delay = room.direct_delay_samples[mic_index]
    return _tap_rir(room, delay, [room.seed, _SOURCE_STREAM, 0, mic_index])


def _noise_rir(room, noise_index, mic_index):
    delay = room.direct_delay_samples[mic_index]
    return _tap_rir(room, delay, [room.seed, _NOISE_STREAM, noise_index, mic_index])


def _live_tail(room, mic_index):
    """The source response without its direct tap, or None when nothing is
    left, so t60 = 0 leaves the residual exactly zero."""
    tail = generate_rir(room, mic_index)
    tail[room.direct_delay_samples[mic_index]] = 0.0
    return tail if np.any(tail) else None


def render_noise_component(noise, room, noise_index):
    """Convolve one noise source with its per-mic responses (unscaled).

    Regenerating a noise source at the same `noise_index` reproduces the exact
    taps used inside :func:`render_scene`, so components can be rendered alone
    and summed.
    """
    samples = as_mono(noise, f"noise source {noise_index}", room.sample_rate_hz)
    response = functools.partial(_noise_rir, room, noise_index)
    return _convolve_mics([(samples, response)], room.num_mics, room.rir_len_samples,
                          samples.shape[0])[0]


def check_snr_db(snr_db):
    """Reject an SNR that is neither None, finite nor +inf."""
    if snr_db is not None and not -math.inf < snr_db <= math.inf:
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")


def render_scene(source, noise_sources, room, snr_db, normalize=True):
    """Render a scene from a mono source and a list of mono noise sources.

    The noise field is scaled so that the energy ratio of direct-path speech
    to total noise at the reference mic (mic 0) equals `snr_db`.  Passing
    snr_db=None skips that scaling (diagnostic mode) and snr_db=+inf scales
    the noise to silence; an empty noise list yields a noise-free scene.
    With normalize=True the mixture's sample variance is brought to 1 and
    every component is scaled by the same factor, so mixture = direct +
    reverb + noise holds to rounding.

    Return:
        Scene
    """
    check_snr_db(snr_db)
    src = as_mono(source, "source", room.sample_rate_hz)
    num = src.shape[0]
    if num == 0:
        raise ValueError("source must contain at least one sample")

    direct = np.zeros((num, room.num_mics))
    for m, delay in enumerate(room.direct_delay_samples):
        if delay < num:
            direct[delay:, m] = src[:num - delay]
    noises = [as_mono(nz, f"noise source {i}", room.sample_rate_hz)
              for i, nz in enumerate(noise_sources)]
    for i, samples in enumerate(noises):
        if samples.shape[0] != num:
            raise ValueError(
                f"noise source {i} has {samples.shape[0]} samples, expected {num}"
            )
    # the residual and every noise component in one call to the pool; the
    # components are rendered as render_noise_component renders them
    sources = [(src, functools.partial(_live_tail, room))]
    sources += [(samples, functools.partial(_noise_rir, room, i))
                for i, samples in enumerate(noises)]
    residual, *components = _convolve_mics(sources, room.num_mics,
                                           room.rir_len_samples, num)
    noise = np.zeros((num, room.num_mics))
    for component in components:
        noise += component

    if snr_db is not None and not noise_sources:
        raise ValueError(
            "cannot reach the requested SNR without noise sources "
            "(pass snr_db=None for a noise-free scene)"
        )
    achieved_snr = math.inf
    if noise_sources:
        # energies at the reference mic
        direct_energy = float(np.sum(direct[:, 0] ** 2))
        noise_energy = float(np.sum(noise[:, 0] ** 2))
        if snr_db is not None:
            if direct_energy <= 0.0:
                raise ValueError("source has no direct-path energy at the reference mic")
            if noise_energy <= 0.0:
                raise ValueError("cannot reach the requested SNR: noise has no energy")
            noise *= math.sqrt(direct_energy / noise_energy * 10.0 ** (-snr_db / 10.0))
            achieved_snr = float(snr_db)
        elif noise_energy > 0 and direct_energy > 0:
            achieved_snr = 10.0 * math.log10(direct_energy / noise_energy)

    # summed and scaled in place: no further signal-sized arrays
    mixture = direct + residual
    mixture += noise
    if normalize:
        variance = float(np.var(mixture))
        if variance > 0.0:
            factor = 1.0 / math.sqrt(variance)
            for signal in (mixture, direct, residual, noise):
                signal *= factor

    rate = room.sample_rate_hz
    return Scene(
        mixture=TimeSignal(mixture, rate),
        direct_path=TimeSignal(direct, rate),
        reverb_residual=TimeSignal(residual, rate),
        noise=TimeSignal(noise, rate),
        snr_db=achieved_snr,
    )


def _seed_key(seed, salt):
    return [int(s) for s in np.atleast_1d(seed)] + [salt]


def synth_speech_like(num_samples, sample_rate=16000, seed=0):
    """Amplitude-modulated Gaussian noise with a bursty, speech-ish envelope.

    The envelope interpolates syllable-rate (4 Hz) rectified-Gaussian control
    points, so frame power swings strongly while the carrier stays temporally
    white — the regime the power-weighted filters are built for.  RMS 1.
    """
    rng = np.random.default_rng(_seed_key(seed, 11))
    carrier = rng.standard_normal(num_samples)
    rate_hz = 4.0
    num_ctrl = max(2, int(math.ceil(num_samples * rate_hz / sample_rate)) + 1)
    ctrl = np.abs(rng.standard_normal(num_ctrl)) + 0.05  # floor: no dead air
    positions = np.linspace(0.0, num_ctrl - 1.0, num_samples)
    envelope = np.interp(positions, np.arange(num_ctrl), ctrl)
    out = carrier * envelope
    rms = np.sqrt(np.mean(out ** 2))
    return TimeSignal(out / max(rms, 1e-12), sample_rate)


def synth_noise(num_samples, sample_rate=16000, seed=0):
    """Stationary white Gaussian noise at unit RMS."""
    rng = np.random.default_rng(_seed_key(seed, 13))
    out = rng.standard_normal(num_samples)
    rms = np.sqrt(np.mean(out ** 2))
    return TimeSignal(out / max(rms, 1e-12), sample_rate)
