"""Time-frequency analysis and synthesis.

Array conventions used throughout the package:

* time signals carry float64 samples of shape N x C (samples x channels) at
  StftConfig.sample_rate, the one rate; a TimeSignal is a read-only value
  that owns its finite samples, so run_pipeline's memo can tell its scene by
  the signal objects alone,
* spectrograms are complex128 arrays of shape T x F x C
  (frames x frequency bins x channels).

The analysis/synthesis pair uses the square root of a periodic Hann window on
both sides, so the overlap-added window product is Hann and sums to a constant
over the signal payload.  The signal is zero-padded front and back by
(window - hop) samples before framing; this puts every payload sample under a
full complement of overlapping windows and makes reconstruction exact up to
float64 rounding.
"""

from dataclasses import KW_ONLY, InitVar, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._rules import blocks, check, check_finite, check_shapes

# Floor for the overlap-add window-power denominator.
COLA_FLOOR = 1e-12


def _checked_samples(values, role="samples", layout="N [x C]"):
    """`values` as a float64 array, checked to have `layout` and be finite;
    no copy when they already are float64."""
    samples = np.asarray(values, dtype=np.float64)
    check_shapes(**{role: (samples, layout)})
    return check_finite(role, samples)


def _columns(samples):
    # N x C samples, a 1-D array as its N x 1 view
    return samples[:, None] if samples.ndim == 1 else samples


@dataclass(frozen=True, eq=False)
class TimeSignal:
    """A multichannel signal sampled at StftConfig.sample_rate: a read-only
    value, compared and hashed by identity.

    The signal owns its samples: it copies its input once, whatever it is,
    and never marks a caller's array read-only (whoever holds an array may
    make it writeable again).  Only the library's own constructors pass
    _adopt=True, for a float64 array they just built and hand over: the
    signal marks it read-only and keeps it, no copy.

    Attributes:
        samples: read-only N x C float64 array (mono input is reshaped to N x 1)
    """

    samples: np.ndarray
    _: KW_ONLY
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        samples = self.samples if _adopt else np.array(self.samples, dtype=np.float64)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", _columns(_checked_samples(samples)))

    @property
    def num_samples(self):
        return self.samples.shape[0]

    @property
    def num_channels(self):
        return self.samples.shape[1]

    def channel(self, index):
        # 1-D view of a single channel
        return self.samples[:, index]


def as_mono(signal, role):
    """A mono TimeSignal's one channel, or any other signal as a 1-D float64
    array, checked as a TimeSignal's samples are but not copied."""
    if isinstance(signal, TimeSignal):
        if signal.num_channels != 1:
            raise ValueError(f"{role} must be mono, got {signal.num_channels} channels")
        return signal.channel(0)
    return _checked_samples(signal, role, "N")


class StftConfig:
    """The one transform, as constants: 32 ms sqrt-Hann frames with an 8 ms
    hop at 16 kHz.  hop divides window_len, and fft_len is window_len."""

    window_len = 512
    hop = 128
    fft_len = 512
    sample_rate = 16000  # the rate of every signal
    num_bins = fft_len // 2 + 1  # one-sided spectrum size
    pad = window_len - hop  # zero padding before the first and after the last sample

    @classmethod
    def num_frames(cls, num_samples):
        """Frame count for a signal of `num_samples` samples."""
        padded = num_samples + 2 * cls.pad
        return -(-padded // cls.hop)


def sqrt_hann_window(length):
    """Square root of the periodic Hann window.

    Arguments:
        length: window length in samples
    Return:
        float64 array of shape [length]
    """
    n = np.arange(length)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)
    return np.sqrt(hann)


def analyze(signal):
    """Short-time Fourier transform of a (multichannel) signal.

    Arguments:
        signal: TimeSignal, or an array of shape [N] / [N x C] checked as
            a TimeSignal's samples are
    Return:
        complex128 spectrogram, T x F x C
    """
    if isinstance(signal, TimeSignal):
        samples = signal.samples
    else:  # checked as a TimeSignal's samples are, but not copied
        samples = _columns(_checked_samples(signal, "signal"))
    num_samples, num_channels = samples.shape

    num_frames = StftConfig.num_frames(num_samples)
    # channel-major buffer long enough that the last frame has a full window
    # of samples, so every frame is a contiguous run along the last axis
    buf_len = (num_frames - 1) * StftConfig.hop + StftConfig.window_len
    buf = np.zeros((num_channels, buf_len))
    buf[:, StftConfig.pad:StftConfig.pad + num_samples] = samples.T

    # C x T x W view: frame t starts at sample t * hop
    frames = sliding_window_view(buf, StftConfig.window_len, axis=1)[:, ::StftConfig.hop]
    window = sqrt_hann_window(StftConfig.window_len)
    # a block of frames at a time, every channel, straight into the T x F x C
    # result: the windowed frames and their transform stay small and in cache
    spans = blocks(num_frames, 8 * StftConfig.fft_len * num_channels)
    windowed = np.empty((num_channels, spans[0].stop, StftConfig.window_len))
    spec = np.empty((num_frames, StftConfig.num_bins, num_channels), dtype=np.complex128)
    for span in spans:
        part = windowed[:, :span.stop - span.start]
        np.multiply(frames[:, span], window, out=part)
        spec[span] = np.fft.rfft(
            part, n=StftConfig.fft_len).transpose(1, 2, 0)  # C x B x F -> B x F x C
    return spec


def _overlap_add(spec):
    # synthesize's buffer, the signal's first sample at pad: the windowed
    # frames of T x F x C `spec`, overlap-added in hop-sized blocks (block r
    # of frame t lands in output block t + r) and divided by the floored
    # window power.  A block of frames at a time is inverse-transformed and
    # added, one block r of each frame per pass; blocks run oldest first and
    # passes from the last r down, so every sample adds its frames oldest
    # first.  The working arrays die on return.
    num_frames, _, num_channels = spec.shape
    ratio = StftConfig.window_len // StftConfig.hop
    buf_len = (num_frames - 1) * StftConfig.hop + StftConfig.window_len
    buf = np.zeros((buf_len, num_channels))
    out_blocks = buf.reshape(-1, StftConfig.hop, num_channels)
    window = sqrt_hann_window(StftConfig.window_len)
    for span in blocks(num_frames, 8 * StftConfig.fft_len * num_channels):
        frames = np.fft.irfft(spec[span], n=StftConfig.fft_len, axis=1)
        frames = frames[:, :StftConfig.window_len]
        frames *= window[:, None]
        frame_blocks = frames.reshape(len(frames), ratio, StftConfig.hop, num_channels)
        for r in reversed(range(ratio)):
            out_blocks[span.start + r:span.stop + r] += frame_blocks[:, r]

    win_power = np.zeros(buf_len)
    power_blocks = win_power.reshape(-1, StftConfig.hop)
    win_sq = (window ** 2).reshape(ratio, StftConfig.hop)
    for r in reversed(range(ratio)):
        power_blocks[r:r + num_frames] += win_sq[r]
    buf /= np.maximum(win_power, COLA_FLOOR, out=win_power)[:, None]
    return buf


def synthesize(spectrogram, num_samples=None):
    """Inverse STFT via windowed overlap-add.

    A block of frames at a time is inverse-transformed, windowed and added,
    so no T x W x C array of frames is made; every sample still adds its
    frames oldest first.  The overlap-added window power is computed per
    output sample and floored at COLA_FLOOR before division, so partially
    covered edge samples never divide by zero.  The result's samples are a
    view of the overlap-add buffer, not a copy; the buffer's padding lives
    as long as they do (3 x pad samples at the default length).

    Arguments:
        spectrogram: complex array, T x F or T x F x C
        num_samples: output length, an integer >= 1; the result is
            truncated or zero-padded to this many samples.  Defaults to the
            longest length whose analysis would produce T frames.
    Return:
        TimeSignal of shape num_samples x C
    """
    spec = np.asarray(spectrogram, dtype=np.complex128)
    check_shapes(spectrogram=(spec, f"T x {StftConfig.num_bins} [x C]"))
    if spec.ndim == 2:
        spec = spec[:, :, None]
    num_frames, _, num_channels = spec.shape
    if num_samples is None:
        num_samples = max(1, num_frames * StftConfig.hop - 2 * StftConfig.pad)
    check("num_samples", num_samples)

    buf = _overlap_add(spec)
    # the payload: a view of the buffer, zero-padded past its end only when
    # num_samples asks for more
    out = buf[StftConfig.pad:StftConfig.pad + num_samples]
    if len(out) < num_samples:
        out = np.concatenate([out, np.zeros((num_samples - len(out), num_channels))])
    return TimeSignal(out, _adopt=True)
