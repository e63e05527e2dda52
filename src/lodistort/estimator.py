"""First-stage target estimates.

The downstream filters only ever see an estimate of the target spectrogram;
where a learned estimator would normally sit, this module provides oracles
computed from the known target, optionally corrupted with complex Gaussian
error at a controlled energy ratio, or an estimate loaded from disk.

The one core, _build, works in place: it builds the estimate in the
C-contiguous complex128 T x F x P target STFT it is handed, overwriting
it.  So only a caller that owns that STFT and reads it no more may hand it
over: run_pipeline and analyze-phase do, once they have taken its
ScoreReference.  oracle_estimate and corrupt_estimate copy what _build
overwrites, so they leave their arguments unchanged.

The error's draws run as a job on the worker pool (_pool.submit), into a
2 x T x F x P float buffer the calling thread allocates.  run_pipeline and
analyze-phase start them before the scene's STFTs, so they are drawn while
the scene is analyzed; _build starts them itself for any other caller.
With one worker they run inline: the same values either way.  Every
energy sum squares one block at a time (_energy), equal to numpy's sum of
the squares bit for bit.  The job's result(), taken once, hands the draws
over and keeps nothing, so they are freed when _build returns.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _pool
from ._rules import BLOCK_BYTES, blocks, check, check_shapes
from .errors import FormatError
from .specio import read_spectrogram
from .stft import StftConfig, TimeSignal, analyze
from .wavio import read_wav

ORACLE_DIRECT = "oracleDirect"
ORACLE_MAG_MASK = "oracleMagMask"
ORACLE_PSM = "oraclePhaseSensitiveMask"
ORACLE_KINDS = (ORACLE_DIRECT, ORACLE_MAG_MASK, ORACLE_PSM)


@dataclass
class TargetEstimate:
    """A (possibly multichannel) estimate of the target spectrogram.

    Attributes:
        values: complex array, T x F x C
    """

    values: np.ndarray

    def channel(self, index):
        """T x F view of channel `index` (channel 0 of a mono estimate)."""
        if self.values.shape[2] == 1:
            index = 0
        return self.values[:, :, index]


def _mask(kind, mixture, target, ratio, power, scratch, positive):
    """The mask of a block of frames, written into `ratio`, with `power`,
    `scratch` and `positive` as working space."""
    if kind == ORACLE_PSM:  # Re(S conj(Y)) / |Y|^2
        np.multiply(target.real, mixture.real, out=ratio)
        ratio += np.multiply(target.imag, mixture.imag, out=scratch)
        np.square(mixture.real, out=power)
        power += np.square(mixture.imag, out=scratch)
    else:  # |S| / |Y|
        np.abs(target, out=ratio)
        np.abs(mixture, out=power)
    np.greater(power, 0.0, out=positive)
    np.divide(ratio, power, out=ratio, where=positive)
    ratio[~positive] = 0.0
    return np.clip(ratio, 0.0, 1.0, out=ratio)


def oracle_estimate(mixture, target, kind):
    """Build an oracle estimate of `target` from the known signals.

    oracleDirect passes the target through verbatim: its values are the
    `target` array itself (converted to complex128 only if it is not), not
    a copy, so treat both as read-only.  The mask oracles apply
    a per-channel real mask to the mixture: the magnitude mask |S|/|Y| or the
    phase-sensitive mask |S|/|Y| * cos(phase(S) - phase(Y)), computed as
    Re(S conj(Y)) / |Y|^2, each truncated to [0, 1].  Bins where the mixture
    is exactly zero get mask 0 (for the phase-sensitive mask: where |Y|^2 is
    zero).  They build the estimate in a copy of the target, so neither
    argument is modified.

    Arguments:
        mixture, target: complex spectrograms, T x F x P
        kind: one of ORACLE_KINDS
    Return:
        TargetEstimate with P channels
    """
    target = np.asarray(target, dtype=np.complex128)
    return _build(target if kind == ORACLE_DIRECT else target.copy(), kind,
                  math.inf, None, mixture)


def corrupt_estimate(estimate, est_err_snr_db, seed):
    """Add complex Gaussian error at a fixed estimate-to-error energy ratio.

    The added error is scaled so 10*log10(|clean|^2 / |added|^2) equals
    `est_err_snr_db`; +inf returns a copy of the input values.  Values that
    are not finite, or whose energy is past float64's range, raise
    ValueError, and so does a ratio so low that the result is not finite in
    float64.  The error's real parts are drawn first, then its imaginary
    parts.  The result is a new array: `estimate` is not modified.
    """
    values = np.array(estimate.values, dtype=np.complex128, order="C")
    return _build(values, ORACLE_DIRECT, est_err_snr_db, seed)


def _build(target, kind, est_err_snr_db, seed, mixture=None, draws=None):
    """The estimate `kind` with error at `est_err_snr_db`, built in `target`
    as the module docstring says; only the mask oracles read `mixture`.  A
    finite ratio takes its error from `draws`, the job of _start_draws for
    target.size values from `seed` if the caller started it, else from
    draws started here."""
    check("est_err_snr_db", est_err_snr_db)
    if mixture is not None:
        mixture = np.asarray(mixture, dtype=np.complex128)
        check_shapes(mixture=(mixture, "T x F x P"), target=(target, "T x F x P"))
    if kind not in ORACLE_KINDS:
        raise ValueError(f"unknown oracle kind {kind!r}, expected one of {ORACLE_KINDS}")
    if draws is None and not math.isinf(est_err_snr_db):
        draws = _pool.submit(_draw, np.empty((2, target.size)), seed)
    if kind != ORACLE_DIRECT:
        _apply_mask(kind, mixture, target)
    if not math.isinf(est_err_snr_db):
        _add_error(target, est_err_snr_db, draws)
    return TargetEstimate(target)


def _start_draws(mixture, est_err_snr_db, seed):
    # the draws job of an estimate of the TimeSignal mixture's STFT, started
    # before that STFT is computed; None at a ratio that draws nothing
    if not math.isfinite(est_err_snr_db):
        return None
    count = (StftConfig.num_frames(mixture.num_samples) * StftConfig.num_bins
             * mixture.num_channels)
    return _pool.submit(_draw, np.empty((2, count)), seed)


def _draw(draws, seed):
    # a pool job: fills the 2 x count float buffer `draws` the caller made
    # from the seeded stream, the real parts first, and returns (draws, the
    # energy of the real and of the imaginary parts, summed in that order)
    np.random.default_rng(seed).standard_normal(out=draws)
    return draws, float(_energy(draws[0])) + float(_energy(draws[1]))


def _energy(values):
    """np.sum(np.square(values)) of 1-D float64 values, bit for bit, with
    squares of at most one block: the sum splits where numpy's pairwise sum
    splits above 128 values, at half the count rounded down to a multiple of
    8, until a part fits in a block."""
    if values.size * 8 <= BLOCK_BYTES:
        return np.sum(np.square(values))
    half = values.size // 2
    half -= half % 8
    return _energy(values[:half]) + _energy(values[half:])


def _apply_mask(kind, mixture, target):
    # target = mask x mixture, a block of frames at a time, each block's mask
    # formed before the block is overwritten, in three float buffers of one
    # block each and a flag buffer, reused and freed before any error draw
    num_frames, num_bins, num_channels = target.shape
    spans = blocks(num_frames, 8 * num_bins * num_channels)
    parts = np.empty((3, spans[0].stop, num_bins, num_channels))
    flags = np.empty(parts.shape[1:], dtype=bool)
    for span in spans:
        rows = span.stop - span.start
        mix, out = mixture[span], target[span]
        mask = _mask(kind, mix, out, *parts[:, :rows], flags[:rows])
        np.multiply(mask, mix.real, out=out.real)
        np.multiply(mask, mix.imag, out=out.imag)


def _add_error(values, est_err_snr_db, draws):
    # values += the error of the draws job `draws`, scaled in place to the
    # ratio.  The clean energy is summed while the draws may still run
    parts = values.view(np.float64)
    with np.errstate(over="ignore"):  # an overflow is an infinite energy, refused
        clean_energy = float(_energy(parts.reshape(-1)))
    if not math.isfinite(clean_energy):
        raise ValueError("the estimate must be finite, with an energy within "
                         "float64's range")
    draws, noise_energy = draws.result()
    scale = 0.0
    if noise_energy > 0.0:
        try:
            scale = math.sqrt(clean_energy * 10.0 ** (-est_err_snr_db / 10.0) / noise_energy)
        except OverflowError:  # the power of ten is past float64's range
            scale = math.inf
    draws = draws.reshape((2,) + values.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        draws *= scale
        values.real += draws[0]
        values.imag += draws[1]
    # NaN propagates through both, an infinity through one: no bool field
    if not (math.isfinite(parts.min()) and math.isfinite(parts.max())):
        raise ValueError(f"est_err_snr_db of {est_err_snr_db} dB scales the error past "
                         "float64's range")


def read_input(path):
    """Read a file by its name: a name ending in .ldspec is an LDSPEC1 file,
    read as its complex T x F x C spectrogram; any other is a WAV file, read
    as its TimeSignal."""
    if str(path).endswith(".ldspec"):
        return read_spectrogram(path)
    return read_wav(path)


def load_external_estimate(path, expected_shape):
    """Load an estimate from a file read by read_input; a WAV file's is
    analyzed.

    The result must match the mixture's frame/bin counts and carry either 1
    channel or the full channel count.

    Arguments:
        expected_shape: (T, F, P) of the mixture the estimate belongs to
    """
    num_frames, num_bins, num_channels = expected_shape
    values = read_input(path)
    if isinstance(values, TimeSignal):
        values = analyze(values)
    if values.shape[:2] != (num_frames, num_bins):
        raise FormatError(
            f"{path}: estimate frames/bins {values.shape[:2]} do not match the "
            f"mixture {(num_frames, num_bins)}"
        )
    if values.shape[2] not in (1, num_channels):
        raise FormatError(
            f"{path}: estimate has {values.shape[2]} channels, expected 1 or "
            f"{num_channels}"
        )
    return TargetEstimate(values)
