"""Multichannel scene simulation with stochastic tapped-delay-line impulse
responses.

The simulator is deliberately geometry-free: each microphone sees the source
through an impulse response with a unit direct-path tap at an integer delay
followed by an i.i.d. Gaussian tail whose envelope decays by 60 dB over the
requested T60.  Noise sources get their own independent responses.  All
randomness is keyed off (seed, stream, source index, mic index) so any piece
of a scene can be regenerated in isolation, bit-identically.

Convolutions run through real FFTs of the smallest 5-smooth length (prime
factors 2, 3 and 5 only) that holds the whole result, each source is
transformed once per scene, and a render builds the room's decay envelope
once, for every response to take a prefix of.  The noise sources are one
group: at each mic their spectral products are summed before one inverse
transform, so a scene's noise equals the sum of its components rendered
alone (render_noise_component) to rounding.  Each (group, mic) job runs on
the worker pool linpred uses (see _pool), one call per scene; the result is
bit-identical to the same sums computed serially with each source
transformed anew for each response, and every response to generate_rir's.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _pool
from ._rules import check, check_channel, check_fields, check_shapes
from .stft import StftConfig, TimeSignal, as_mono

# rng stream tags so source and noise responses never share draws
_SOURCE_STREAM = 0
_NOISE_STREAM = 1


@dataclass(frozen=True)
class RoomSpec:
    """Parameters of the simulated room, sampled at StftConfig.sample_rate.

    Attributes:
        num_mics: channel count P
        t60_seconds: reverberation time; 0 yields direct-path-only responses
        rir_len_samples: length of each impulse response
        direct_delay_samples: direct-path delay per mic; an int applies the
            same delay everywhere, a sequence gives one delay per mic
        seed: base seed for every random draw in the scene
        tail_gain: amplitude of the Gaussian tail relative to the direct tap
    """

    num_mics: int
    t60_seconds: float
    rir_len_samples: int
    direct_delay_samples: object = 8
    seed: int = 0
    tail_gain: float = 0.05

    def __post_init__(self):
        check_fields(self, sequences=("direct_delay_samples",))
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


def _transform_len(num):
    """The smallest 5-smooth length >= num: one whose only prime factors
    are 2, 3 and 5, the factors numpy's pocketfft has dedicated real
    transform passes for."""
    best = 1 << (num - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that holds num
            best = min(best, p35 << (-(-num // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve_mics(groups, num_mics, kernel_len, num_out):
    """Convolve groups of sources with every mic's response, summed per group.

    Each group holds (signal, response) pairs, the signals 1-D and all of
    one length; response(m) builds mic m's response, kernel_len samples
    long, or returns None for a zero column.  Each convolution runs through
    a real FFT of the smallest 5-smooth length that holds the whole result
    (_transform_len), and each signal is transformed once.  Every (group,
    mic) pair is one job on the worker pool, all in one call: for each of
    its group's pairs in order, the job builds the response, transforms it
    and multiplies it with the signal's spectrum as the left operand, and
    adds the product to its worker's buffer; one inverse transform per job
    follows.  numpy's SIMD complex multiply is not bitwise commutative, and
    `rfft(signal) * rfft(kernel)` multiplies into the signal's spectrum, so
    this order keeps every column bit-identical to a serial convolution
    that transforms the signal again for each kernel and sums the products
    in the same order.  The inverse transform goes to the job's row of a
    groups x num_mics x num_out buffer, copied into the results once:
    columns of a result written from two threads would share cache lines.

    Return:
        per group, the first num_out samples of its summed convolutions as a
        num_out x num_mics array
    """
    signal_len = next(signal for group in groups for signal, _ in group).shape[0]
    size = _transform_len(signal_len + kernel_len - 1)
    spectra = [[(np.fft.rfft(signal, size), response) for signal, response in group]
               for group in groups]
    rows = np.zeros((len(groups), num_mics, num_out))

    def convolve(product, job):
        g, m = divmod(job, num_mics)
        live = False
        for spectrum, response in spectra[g]:
            kernel = response(m)
            if kernel is None:
                continue
            term = np.fft.rfft(kernel, size)
            if live:
                product += np.multiply(spectrum, term, out=term)
            else:
                np.multiply(spectrum, term, out=product)
                live = True
        if live:
            rows[g, m] = np.fft.irfft(product, size)[:num_out]

    jobs = range(len(groups) * num_mics)
    _pool.run_chunks(convolve, jobs, len(jobs),
                     lambda: np.empty(size // 2 + 1, complex))
    return [row.T.copy() for row in rows]


def _gain_envelope(room):
    """tail_gain times the decay envelope of the room's longest tail, or None
    at t60 = 0.  A response whose tail is shorter takes its prefix: the same
    values an envelope of its own length would hold."""
    if room.t60_seconds == 0:
        return None
    tail_len = room.rir_len_samples - min(room.direct_delay_samples) - 1
    tau = np.arange(1, tail_len + 1) / StftConfig.sample_rate
    return room.tail_gain * np.exp(-3.0 * np.log(10.0) * tau / room.t60_seconds)


def _tap_rir(room, gain_envelope, stream, index, mic_index):
    delay = room.direct_delay_samples[mic_index]
    h = np.zeros(room.rir_len_samples)
    h[delay] = 1.0
    tail_len = room.rir_len_samples - delay - 1
    if gain_envelope is not None and tail_len > 0:
        rng = np.random.default_rng([room.seed, stream, index, mic_index])
        h[delay + 1:] = gain_envelope[:tail_len] * rng.standard_normal(tail_len)
    return h


def generate_rir(room, mic_index):
    """Impulse response from the target source to one microphone."""
    check_channel("mic_index", mic_index, room.num_mics)
    return _tap_rir(room, _gain_envelope(room), _SOURCE_STREAM, 0, mic_index)


def _live_tail(room, gain_envelope, mic_index):
    """The source response without its direct tap, or None when nothing is
    left, so t60 = 0 leaves the residual exactly zero."""
    tail = _tap_rir(room, gain_envelope, _SOURCE_STREAM, 0, mic_index)
    tail[room.direct_delay_samples[mic_index]] = 0.0
    return tail if np.any(tail) else None


def render_noise_component(noise, room, noise_index):
    """Convolve one noise source with its per-mic responses (unscaled).

    Regenerating a noise source at the same `noise_index` reproduces the exact
    taps used inside :func:`render_scene`, at the same 5-smooth transform
    length, so components can be rendered alone and summed.  The sum equals
    the scene's unscaled noise to rounding (within 1e-12 on unit-power
    sources), not bit for bit: the scene sums the components' spectra at each
    mic before one inverse transform.
    """
    samples = as_mono(noise, f"noise source {noise_index}")
    response = functools.partial(_tap_rir, room, _gain_envelope(room), _NOISE_STREAM,
                                 noise_index)
    return _convolve_mics([[(samples, response)]], room.num_mics,
                          room.rir_len_samples, samples.shape[0])[0]


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
    if snr_db is not None:
        check("snr_db", snr_db)
    src = as_mono(source, "source")
    num = src.shape[0]

    direct = np.zeros((num, room.num_mics))
    for m, delay in enumerate(room.direct_delay_samples):
        if delay < num:
            direct[delay:, m] = src[:num - delay]
    noises = [as_mono(nz, f"noise source {i}") for i, nz in enumerate(noise_sources)]
    check_shapes(source=(src, "N"), **{f"noise source {i}": (samples, "N")
                                       for i, samples in enumerate(noises)})
    if snr_db is not None and not noises:
        raise ValueError(
            "cannot reach the requested SNR without noise sources "
            "(pass snr_db=None for a noise-free scene)"
        )
    # energy at the reference mic
    direct_energy = float(np.sum(direct[:, 0] ** 2))
    if snr_db is not None and direct_energy <= 0.0:
        raise ValueError("source has no direct-path energy at the reference mic")
    # the residual and the noise in one call to the pool: the noise sources
    # are one group, their products summed before one inverse transform
    envelope = _gain_envelope(room)
    groups = [[(src, functools.partial(_live_tail, room, envelope))],
              [(samples, functools.partial(_tap_rir, room, envelope, _NOISE_STREAM, i))
               for i, samples in enumerate(noises)]]
    residual, noise = _convolve_mics(groups, room.num_mics, room.rir_len_samples, num)

    achieved_snr = math.inf
    if noises:
        noise_energy = float(np.sum(noise[:, 0] ** 2))
        if snr_db is not None:
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

    return Scene(
        mixture=_signal(mixture),
        direct_path=_signal(direct),
        reverb_residual=_signal(residual),
        noise=_signal(noise),
        snr_db=achieved_snr,
    )


def _signal(samples):
    # a TimeSignal that adopts the array just built, frozen, not a copy
    return TimeSignal(samples, _adopt=True)


def _seed_key(seed, salt):
    return [int(s) for s in np.atleast_1d(seed)] + [salt]


def synth_speech_like(num_samples, seed=0):
    """Amplitude-modulated Gaussian noise with a bursty, speech-ish envelope.

    The envelope interpolates syllable-rate (4 Hz) rectified-Gaussian control
    points, so frame power swings strongly while the carrier stays temporally
    white — the regime the power-weighted filters are built for.  RMS 1.
    """
    rng = np.random.default_rng(_seed_key(seed, 11))
    carrier = rng.standard_normal(num_samples)
    rate_hz = 4.0
    num_ctrl = max(2, int(math.ceil(num_samples * rate_hz
                                    / StftConfig.sample_rate)) + 1)
    ctrl = np.abs(rng.standard_normal(num_ctrl)) + 0.05  # floor: no dead air
    positions = np.linspace(0.0, num_ctrl - 1.0, num_samples)
    envelope = np.interp(positions, np.arange(num_ctrl), ctrl)
    out = carrier * envelope
    rms = np.sqrt(np.mean(out ** 2))
    return _signal(out / max(rms, 1e-12))


def synth_noise(num_samples, seed=0):
    """Stationary white Gaussian noise at unit RMS."""
    rng = np.random.default_rng(_seed_key(seed, 13))
    out = rng.standard_normal(num_samples)
    rms = np.sqrt(np.mean(out ** 2))
    return _signal(out / max(rms, 1e-12))
