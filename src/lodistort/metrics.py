"""Evaluation metrics: scale-invariant SDR and two phase-aware scores.

Both phase scores work on complex products, never on angles:

* The side of a phase difference phase(a) - phase(b), wrapped to (-pi, pi]
  with -pi mapped to +pi, is its sign with sign(x) = +1 iff x >= 0.  It is
  the sign of Im(a conj(b)) = a.imag b.real - a.real b.imag, and a tie (a
  difference of 0 or pi, up to rounding) reads as >= 0: a nonzero pair with
  |Im(a conj(b))| <= TIE_RTOL |a| |b|.  An exact zero a or b first takes the
  phasor copysign(1, real) + j imag, which carries the phase np.angle gives
  it (0 or pi, signed like the imaginary zero).
* pSNR compares the target S with |S| e / |e|, where e is any complex array
  carrying the estimate's phase (zeros treated as above):
  10 log10( Sum |S|^2 / Sum |S - (|S| / |e|) e|^2 ).
* |phase(a) - phase(b)| is arctan2(|Im(a conj(b))|, Re(a conj(b))) (zeros
  treated as above), held below pi.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rules import blocks, check_finite, check_nonempty, check_shapes
from .fsio import jsonable
from .phase_geometry import sign_flip_probability
from .stft import as_mono

ENERGY_MASK_DB = -60.0
# The tie bound.  For a = m b with a real m > 0, formed one component at a
# time as the mask oracles form it, Im(a conj(b)) is four roundings of at
# most eps / 2: one in each component of a and one in each of the products
# a.imag b.real and a.real b.imag, each of a term <= |a| |b| / 2.  So
# |Im(a conj(b))| <= eps |a| |b|; twice that covers the bound's own rounding.
TIE_RTOL = 2.0 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class MetricsReport:
    """Scores of one estimate against a reference."""

    si_sdr_db: float
    pdsacc_percent: float
    psnr_db: float

    def to_json_dict(self):
        # camelCase keys, non-finite scores as fsio's string sentinels
        return jsonable({
            "siSdrDb": self.si_sdr_db,
            "pdsAccPercent": self.pdsacc_percent,
            "pSnrDb": self.psnr_db,
        })


def si_sdr(estimate, reference):
    """Scale-invariant signal-to-distortion ratio, in dB.

    Projects the estimate onto the reference (alpha = <est, ref> / |ref|^2)
    and scores 10 log10(|alpha ref|^2 / |alpha ref - est|^2).  Returns -inf
    when the projection is zero (including an all-zero estimate) and +inf
    when a nonzero estimate equals its projection exactly.  Its sums are numpy's
    pairwise sums of float64 products: no score depends on BLAS threads.
    """
    est = as_mono(estimate, "estimate")
    ref = as_mono(reference, "reference")
    check_shapes(estimate=(est, "N"), reference=(ref, "N"))
    ref_energy = float(np.sum(np.square(ref)))
    if ref_energy <= 0.0:
        raise ValueError("reference signal is identically zero")
    alpha = float(np.sum(est * ref)) / ref_energy
    target = alpha * ref
    target_energy = float(np.sum(np.square(target)))
    error_energy = float(np.sum(np.square(target - est)))
    # a zero projection (orthogonal or all-zero estimate) has no target
    # component, even when the error energy is zero too
    if target_energy == 0.0:
        return -math.inf
    if error_energy == 0.0:
        return math.inf
    return 10.0 * math.log10(target_energy / error_energy)


def energy_mask(target_q):
    """Boolean mask of bins within ENERGY_MASK_DB of the target's peak power."""
    check_nonempty("target_q", target_q)
    magnitude = np.abs(check_finite("target_q", target_q)).astype(np.float64, copy=False)
    peak = magnitude.max()
    if peak <= 0.0:
        raise ValueError("target spectrogram is identically zero")
    # scaled by the peak before squaring, in place, so no finite power overflows
    magnitude /= peak
    return np.square(magnitude, out=magnitude) >= 10.0 ** (ENERGY_MASK_DB / 10.0)


def _zero_phasors(values):
    # an exact zero takes the unit phasor np.angle gives it
    out = np.empty_like(values)
    out.real = np.copysign(1.0, values.real)
    out.imag = values.imag
    return out


def _cross(a, b):
    # Im(a conj(b)), one ufunc call per product
    cross = a.imag * b.real
    cross -= a.real * b.imag
    return cross


def _with_zero_phasors(values):
    # a copy of values with each exact zero replaced by its phasor
    zero = values == 0.0
    if zero.any():
        values = values.copy()
        values[zero] = _zero_phasors(values[zero])
    return values


def _side(a, b):
    """True where phase(a) - phase(b), wrapped to (-pi, pi], is >= 0."""
    cross = _cross(a, b)
    side = cross >= 0.0
    # a tie, which a zero a or b always is: a nonzero pair reads >= 0, and a
    # zero takes its phasor
    bound = np.abs(a)
    bound *= TIE_RTOL
    tie = np.abs(cross, out=cross) <= np.multiply(bound, np.abs(b), out=bound)
    if tie.any():
        a_t, b_t = a[tie], b[tie]
        side[tie] = ((a_t != 0.0) & (b_t != 0.0)) | (
            _cross(_with_zero_phasors(a_t), _with_zero_phasors(b_t)) >= 0.0)
    return side


def _abs_phase_diff(a, b):
    """|phase(a) - phase(b)| in [0, pi), as the module docstring states."""
    a, b = _with_zero_phasors(a), _with_zero_phasors(b)
    theta = np.abs(_cross(a, b))
    dot = a.real * b.real
    dot += a.imag * b.imag
    np.arctan2(theta, dot, out=theta)
    return np.minimum(theta, np.nextafter(np.pi, 0.0), out=theta)


def _phase_sides(target_q, mixture_q):
    # -> (energy mask, mixture and target side on the masked bins)
    mask = energy_mask(target_q)
    mixture_q = check_finite("mixture_q", mixture_q)
    mixture_masked = np.asarray(mixture_q, dtype=np.complex128)[mask]
    true_side = _side(np.asarray(target_q, dtype=np.complex128)[mask], mixture_masked)
    return mask, mixture_masked, true_side


def _pdsacc(sides, estimate_q):
    # the masked bins of frames lo:hi are entries start[lo]:start[hi] of the
    # masked arrays; the count of agreeing sides is exact, so its share is
    # np.mean's
    mask, mixture_masked, true_side = sides
    start = np.concatenate(([0], np.cumsum(np.count_nonzero(mask, axis=1))))
    agree = 0
    for frames in blocks(len(mask), 16 * mask.shape[1]):
        part = slice(start[frames.start], start[frames.stop])
        est_side = _side(estimate_q[frames][mask[frames]], mixture_masked[part])
        agree += int(np.count_nonzero(est_side == true_side[part]))
    return 100.0 * (agree / true_side.size)


def _target_energy(target_q):
    # -> (contiguous Re S and Im S, |S|, sum |S|^2)
    target_q = np.asarray(target_q, dtype=np.complex128)
    magnitude = np.abs(target_q)
    signal_energy = float(np.sum(magnitude ** 2))
    if signal_energy <= 0.0:
        raise ValueError("target spectrogram is identically zero")
    parts = (np.ascontiguousarray(target_q.real), np.ascontiguousarray(target_q.imag))
    return parts, magnitude, signal_energy


def _psnr(parts, carrier):
    # carrier: complex array whose phase is the estimate's
    target_parts, magnitude, signal_energy = parts
    # S - gain e with gain = |S| / |e|, one float64 component at a time in
    # one buffer, summed pairwise; the buffer is filled a block of frames at
    # a time from a copy of the carrier's block, the gain taken again for
    # each component
    spans = blocks(len(magnitude), 16 * magnitude.shape[1])
    copy = np.empty((spans[0].stop, magnitude.shape[1]), dtype=np.complex128)
    error = np.empty(magnitude.shape)
    error_energy = 0.0
    for component, target_part in enumerate(target_parts):
        for frames in spans:
            block = copy[:frames.stop - frames.start]
            block[...] = carrier[frames]
            out = np.abs(block, out=error[frames])
            if not out.all():  # |e| is 0 only where e is
                block = _with_zero_phasors(block)
                np.abs(block, out=out)
            np.divide(magnitude[frames], out, out=out)
            np.multiply(out, (block.real, block.imag)[component], out=out)
            np.subtract(target_part[frames], out, out=out)
        error_energy += float(np.sum(np.square(error, out=error)))
    if error_energy == 0.0:
        return math.inf
    return 10.0 * math.log10(signal_energy / error_energy)


def pdsacc(estimate_q, target_q, mixture_q):
    """Phase-difference sign accuracy, in percent.

    Over target-energetic bins, the fraction where the estimate advances or
    delays the mixture phase on the same side as the true target does.  Phase
    differences are wrapped to (-pi, pi] and sign(x) is +1 iff x >= 0; the
    side is read from Im(a conj(b)) as the module docstring states.
    """
    estimate_q = check_finite("estimate_q", estimate_q)
    check_shapes(estimate_q=(estimate_q, "T x F"), target_q=(target_q, "T x F"),
                 mixture_q=(mixture_q, "T x F"))
    return _pdsacc(_phase_sides(target_q, mixture_q),
                   np.asarray(estimate_q, dtype=np.complex128))


def psnr(estimate_phase, target_q):
    """Phase SNR, in dB: distortion from replacing the target's phase.

        10 log10( Sum |S|^2 / Sum |S - |S| e^{j phase}|^2 )

    +inf when the phases coincide everywhere the target has energy.  The
    everywhere-antipodal phase scores 10 log10(1/4).
    """
    estimate_phase = check_finite("estimate_phase",
                                  np.asarray(estimate_phase, dtype=np.float64))
    check_shapes(estimate_phase=(estimate_phase, "T x F"), target_q=(target_q, "T x F"))
    return _psnr(_target_energy(check_finite("target_q", target_q)),
                 np.exp(1j * estimate_phase))


class ScoreReference:
    """The parts of the phase scores that depend only on the target and the
    mixture at one mic: the energy mask, the masked mixture and the target's
    phase-difference side on the masked bins, and S's parts, |S| and energy.
    Build it once, then score any number of estimates with `score_against`."""

    def __init__(self, target_q, mixture_q):
        check_shapes(target_q=(target_q, "T x F"), mixture_q=(mixture_q, "T x F"))
        self.shape = np.shape(target_q)
        self.phase_sides = _phase_sides(target_q, mixture_q)
        self.target_energy = _target_energy(target_q)


def score_against(reference, estimate_q, estimate_wave=None, target_wave=None):
    """score_estimate with the target and mixture given as a ScoreReference.

    A complex128 estimate is read in place, a strided view too: no T x F
    copy of it is made, only copies of blocks of its frames."""
    estimate_q = np.asarray(estimate_q, dtype=np.complex128)
    check_shapes(estimate_q=(estimate_q, "{} x {}".format(*reference.shape)))
    if estimate_wave is not None and target_wave is not None:
        sdr = si_sdr(estimate_wave, target_wave)
    else:
        sdr = math.nan
    return MetricsReport(
        si_sdr_db=sdr,
        pdsacc_percent=_pdsacc(reference.phase_sides, estimate_q),
        psnr_db=_psnr(reference.target_energy, estimate_q),
    )


def score_estimate(estimate_q, target_q, mixture_q, estimate_wave=None,
                   target_wave=None):
    """Bundle the three scores for one spectrogram estimate.

    SI-SDR is computed on the provided waveforms when given, otherwise NaN.
    """
    return score_against(ScoreReference(target_q, mixture_q),
                         check_finite("estimate_q", estimate_q), estimate_wave,
                         target_wave)


def phase_report(reference, estimate_q):
    """`analyze-phase`'s statistics of the estimate E against a ScoreReference,
    under its JSON keys.  Over the energy-masked bins: their count, the share
    where the mixture Y is exactly 0 (degenerate), the mean |theta| =
    |phase(S) - phase(Y)| read from S conj(Y), the share where phase(S) -
    phase(Y) >= 0, the mean forecast sign_flip_probability(|S|, |E - S|,
    |theta|), the measured flip rate 1 - PDSAcc / 100, and PDSAcc and pSNR."""
    report = score_against(reference, estimate_q)
    mask, mixture, true_side = reference.phase_sides
    (target_real, target_imag), magnitude, _ = reference.target_energy
    target = np.empty_like(mixture)
    target.real = target_real[mask]
    target.imag = target_imag[mask]
    theta = _abs_phase_diff(target, mixture)
    residual = np.abs(np.asarray(estimate_q, dtype=np.complex128)[mask] - target)
    flip = sign_flip_probability(magnitude[mask], residual, theta)
    return {
        "numMaskedBins": int(mixture.size),
        "degenerateFraction": float(np.mean(mixture == 0.0)),
        "meanAbsPhaseDiff": float(np.mean(theta)),
        "signPositiveFraction": float(np.mean(true_side)),
        "meanPredictedFlipProbability": float(np.mean(flip)),
        "empiricalFlipRate": float(1.0 - report.pdsacc_percent / 100.0),
        "pdsAccPercent": report.pdsacc_percent,
        "pSnrDb": report.psnr_db,
    }
