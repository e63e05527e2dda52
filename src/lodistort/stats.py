"""Spatial statistics: covariance matrices, ratio masks, steering vectors,
and floored power weights.

Covariances are plain sums of per-frame outer products (no 1/T); every
downstream weight is a ratio in which the scale cancels.  Each one is the
exactly Hermitian linalg.hermitian_gram of the frequency-major frames, a
weighted one Sum_t w Z Z^H that of the frames scaled by sqrt(w).  The
frames of a weighted Gram, and the residual mixture - estimate, are formed
a block of bins at a time (_rules.blocks) in one reusable buffer, so no
scaled or differenced copy of the whole field is made; each bin's Gram does
not depend on its block, so the result is the one the whole field gives.
Masks, powers and the mask's inputs are checked finite first: NaN or inf
would pass through sqrt(w) into the covariances unnoticed, or turn a mask
bin into 0.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ._rules import blocks, check, check_channel, check_finite, check_shapes
from .linalg import hermitian_gram, principal_eigenpairs, rotate_reference_phase

# psd_floor's default relative floor, and the absolute floor applied after it
DEFAULT_EPSILON = 1e-5
PSD_ABS_FLOOR = 1e-12
# top-two eigenvalue gap, relative to the top one, at or below which a
# steering vector has no preferred direction
DEGENERACY_RTOL = 1e-6


@dataclass
class CovarianceSet:
    """Per-frequency second-order statistics.

    Attributes:
        phi_s: target covariance, F x P x P Hermitian
        phi_v: distortion (noise + residual) covariance, F x P x P Hermitian
        steering: optional unit-norm steering vectors, F x P
    """

    phi_s: np.ndarray
    phi_v: np.ndarray
    steering: np.ndarray = None


def _blocked_gram(shape, fill):
    # the Gram of the T x F x P rows that fill(bins, rows) writes, a block
    # of bins at a time, into one T x block x P buffer
    num_frames, num_bins, dim = shape
    spans = blocks(num_bins, 16 * num_frames * dim)
    out = np.empty((num_bins, dim, dim), dtype=np.complex128)
    rows = np.empty((num_frames, spans[0].stop, dim), dtype=np.complex128)
    work = np.empty((spans[0].stop, 2 * dim, 2 * dim))
    for bins in spans:
        block = rows[:, :bins.stop - bins.start]
        fill(bins, block)
        hermitian_gram(block.transpose(1, 0, 2), out=out[bins],
                       work=work[:block.shape[1]])
    return out


def _scaled_gram(field, scale):
    # Sum_t scale(t,f)^2 Z(t,f) Z(t,f)^H: the Gram of the rows scale * Z
    return _blocked_gram(field.shape, lambda bins, block: np.multiply(
        field[:, bins], scale[:, bins, None], out=block))


def signal_covariances(mixture, estimate):
    """Covariances from a multichannel target estimate.

    phi_s accumulates the estimate's outer products; phi_v those of the
    residual (mixture - estimate).

    Arguments:
        mixture, estimate: complex spectrograms, T x F x P
    Return:
        CovarianceSet (steering left unset)
    """
    mixture = np.asarray(mixture, dtype=np.complex128)
    estimate = np.asarray(estimate, dtype=np.complex128)
    check_shapes(mixture=(mixture, "T x F x P"), estimate=(estimate, "T x F x P"))
    phi_v = _blocked_gram(mixture.shape, lambda bins, block: np.subtract(
        mixture[:, bins], estimate[:, bins], out=block))
    # the estimate's Gram reads it in place, through the frequency-major view
    return CovarianceSet(phi_s=hermitian_gram(estimate.transpose(1, 0, 2)),
                         phi_v=phi_v)


def compute_mask(estimate_q, reference_q):
    """Single-channel ratio mask |est| / (|est| + |ref - est|), in [0, 1].

    Bins where both terms vanish get mask 0.  Both inputs must be finite.
    """
    estimate_q = np.asarray(estimate_q)
    reference_q = np.asarray(reference_q)
    check_shapes(estimate_q=(estimate_q, "T x F"), reference_q=(reference_q, "T x F"))
    check_finite("estimate_q", estimate_q)
    check_finite("reference_q", reference_q)
    num = np.abs(estimate_q)
    den = num + np.abs(reference_q - estimate_q)
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)


def masked_covariances(field, mask):
    """Mask-weighted covariances of one observed field.

    phi_s weights outer products by the mask, phi_v by its complement:
        phi_s(f) = Sum_t m(t,f) Z(t,f) Z(t,f)^H
        phi_v(f) = Sum_t (1 - m(t,f)) Z(t,f) Z(t,f)^H

    Arguments:
        field: complex spectrogram, T x F x P
        mask: real weights in [0, 1], T x F
    Return:
        CovarianceSet (steering left unset)
    """
    field = np.asarray(field, dtype=np.complex128)
    mask = np.asarray(mask, dtype=np.float64)
    check_shapes(field=(field, "T x F x P"), mask=(mask, "T x F"))
    # a NaN fails both comparisons, so test for the good case
    if not np.all((mask >= 0.0) & (mask <= 1.0)):
        raise ValueError("mask values must be finite and lie in [0, 1]")
    phi_s = _scaled_gram(field, np.sqrt(mask))
    scale = np.subtract(1.0, mask)
    return CovarianceSet(phi_s=phi_s,
                         phi_v=_scaled_gram(field, np.sqrt(scale, out=scale)))


def weighted_covariance(field, psd):
    """Power-normalized covariance Sum_t Z(t,f) Z(t,f)^H / psd(t,f).

    `psd` must be strictly positive (run it through psd_floor first).
    """
    field = np.asarray(field, dtype=np.complex128)
    psd = np.asarray(psd, dtype=np.float64)
    check_shapes(field=(field, "T x F x P"), psd=(psd, "T x F"))
    check_finite("psd", psd, positive=True)
    scale = np.sqrt(psd)
    return _scaled_gram(field, np.divide(1.0, scale, out=scale))


def steering_vector(phi_s, ref_mic=0):
    """Unit-norm principal eigenvector of phi_s per frequency.

    The phase is fixed by rotating each vector so its `ref_mic` entry is real
    and nonnegative.  Frequencies whose top two eigenvalues coincide (to
    DEGENERACY_RTOL) have no preferred direction; the deterministic
    eigensolver choice is returned and a RuntimeWarning flags the degeneracy.

    Arguments:
        phi_s: Hermitian stack, F x P x P
    Return:
        complex steering vectors, F x P
    """
    phi_s = np.asarray(phi_s, dtype=np.complex128)
    check_channel("ref_mic", ref_mic, check_shapes(phi_s=(phi_s, "F x P x P"))["P"])
    top, vectors, gaps = principal_eigenpairs(phi_s)
    scale = np.maximum(np.abs(top), PSD_ABS_FLOOR)
    degenerate = gaps <= DEGENERACY_RTOL * scale
    if np.any(degenerate):
        bins = np.flatnonzero(degenerate)
        warnings.warn(
            f"principal eigenspace is degenerate at {bins.size} frequency "
            f"bin(s) (first: {bins[0]}); steering there is an arbitrary "
            "deterministic choice",
            RuntimeWarning,
            stacklevel=2,
        )
    return rotate_reference_phase(vectors, ref_mic)


def psd_floor(estimates, epsilon=DEFAULT_EPSILON):
    """Per-bin power, floored relative to its own maximum: the weights of
    every weighted least-squares stage (the target power of wpe and wmpdr,
    the residual power of fcp).

    The power is summed over channels when given a T x F x P field and taken
    directly for a T x F single-channel array.  The floor is
    max(epsilon * max power, power), with an absolute floor of PSD_ABS_FLOOR
    so an all-zero input still yields strictly positive weights.  Input that
    is not finite, or whose power overflows, raises ValueError.

    Return:
        float64 array, T x F, strictly positive
    """
    check("epsilon", epsilon)
    estimates = np.asarray(estimates)
    check_shapes(estimates=(estimates, "T x F [x P]"))
    # squared and floored in place: one float64 array beside the input
    power = np.abs(estimates).astype(np.float64, copy=False)
    np.square(power, out=power)
    if power.ndim == 3:
        power = np.sum(power, axis=2)
    # NaN or inf input has a NaN or inf power, as has one too large to square
    if not np.all(np.isfinite(power)):
        raise ValueError("estimates and their power must be finite")
    np.maximum(epsilon * power.max(), power, out=power)
    return np.maximum(power, PSD_ABS_FLOOR, out=power)
