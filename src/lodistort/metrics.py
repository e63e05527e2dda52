"""Evaluation metrics: scale-invariant SDR and two phase-aware scores."""

import math
from dataclasses import dataclass

import numpy as np

from .phase_geometry import wrap_phase
from .stft import TimeSignal

ENERGY_MASK_DB = -60.0


@dataclass
class MetricsReport:
    """Scores of one estimate against a reference."""

    si_sdr_db: float
    pdsacc_percent: float
    psnr_db: float
    pipeline_name: str = ""
    ref_mic: int = 0

    def to_json_dict(self):
        # camelCase keys with "inf"/"-inf" sentinels for non-finite scores
        return {
            "siSdrDb": _sentinel(self.si_sdr_db),
            "pdsAccPercent": _sentinel(self.pdsacc_percent),
            "pSnrDb": _sentinel(self.psnr_db),
            "pipelineName": self.pipeline_name,
            "refMic": self.ref_mic,
        }


def _sentinel(value):
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _as_vector(signal, name):
    if isinstance(signal, TimeSignal):
        if signal.num_channels != 1:
            raise ValueError(f"{name} must be single-channel")
        return signal.channel(0)
    arr = np.asarray(signal, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array or mono TimeSignal")
    return arr


def si_sdr(estimate, reference):
    """Scale-invariant signal-to-distortion ratio, in dB.

    Projects the estimate onto the reference (alpha = <est, ref> / |ref|^2)
    and scores 10 log10(|alpha ref|^2 / |alpha ref - est|^2).  Returns -inf
    when the projection is zero (including an all-zero estimate) and +inf
    when a nonzero estimate equals its projection exactly.
    """
    if (
        isinstance(estimate, TimeSignal)
        and isinstance(reference, TimeSignal)
        and estimate.sample_rate != reference.sample_rate
    ):
        raise ValueError("estimate and reference sample rates differ")
    est = _as_vector(estimate, "estimate")
    ref = _as_vector(reference, "reference")
    if est.shape != ref.shape:
        raise ValueError(
            f"length mismatch: estimate {est.shape[0]} vs reference {ref.shape[0]}"
        )
    ref_energy = float(np.dot(ref, ref))
    if ref_energy <= 0.0:
        raise ValueError("reference signal is identically zero")
    alpha = float(np.dot(est, ref)) / ref_energy
    target = alpha * ref
    target_energy = float(np.dot(target, target))
    error_energy = float(np.sum((target - est) ** 2))
    # a zero projection (orthogonal or all-zero estimate) has no target
    # component, even when the error energy is zero too
    if target_energy == 0.0:
        return -math.inf
    if error_energy == 0.0:
        return math.inf
    return 10.0 * math.log10(target_energy / error_energy)


def energy_mask(target_q, threshold_db=ENERGY_MASK_DB):
    """Boolean mask of bins within `threshold_db` of the target's peak power."""
    power = np.abs(np.asarray(target_q)) ** 2
    peak = power.max()
    if peak <= 0.0:
        raise ValueError("target spectrogram is identically zero")
    return power >= peak * 10.0 ** (threshold_db / 10.0)


def _phase_sides(target_q, mixture_q, threshold_db):
    # -> (energy mask, mixture phase and target side on the masked bins)
    mask = energy_mask(target_q, threshold_db)
    if not mask.any():
        raise ValueError("energy mask selected no bins")
    mix_phase = np.angle(mixture_q)[mask]
    true_side = wrap_phase(np.angle(target_q)[mask] - mix_phase) >= 0.0
    return mask, mix_phase, true_side


def _pdsacc(sides, estimate_phase):
    mask, mix_phase, true_side = sides
    est_side = wrap_phase(estimate_phase[mask] - mix_phase) >= 0.0
    return 100.0 * float(np.mean(est_side == true_side))


def _target_energy(target_q):
    # -> (complex128 target, |S|, sum |S|^2)
    target_q = np.asarray(target_q, dtype=np.complex128)
    magnitude = np.abs(target_q)
    signal_energy = float(np.sum(magnitude ** 2))
    if signal_energy <= 0.0:
        raise ValueError("target spectrogram is identically zero")
    return target_q, magnitude, signal_energy


def _psnr(parts, estimate_phase):
    target_q, magnitude, signal_energy = parts
    error = target_q - magnitude * np.exp(1j * estimate_phase)
    error_energy = float(np.sum(np.abs(error) ** 2))
    if error_energy == 0.0:
        return math.inf
    return 10.0 * math.log10(signal_energy / error_energy)


def pdsacc(estimate_q, target_q, mixture_q, threshold_db=ENERGY_MASK_DB):
    """Phase-difference sign accuracy, in percent.

    Over target-energetic bins, the fraction where the estimate advances or
    delays the mixture phase on the same side as the true target does.  Phase
    differences are wrapped to (-pi, pi] and sign(x) is +1 iff x >= 0.
    """
    estimate_q = np.asarray(estimate_q)
    target_q = np.asarray(target_q)
    mixture_q = np.asarray(mixture_q)
    if estimate_q.shape != target_q.shape or estimate_q.shape != mixture_q.shape:
        raise ValueError("estimate, target, and mixture shapes must match")
    sides = _phase_sides(target_q, mixture_q, threshold_db)
    return _pdsacc(sides, np.angle(estimate_q))


def psnr(estimate_phase, target_q):
    """Phase SNR, in dB: distortion from replacing the target's phase.

        10 log10( Sum |S|^2 / Sum |S - |S| e^{j phase}|^2 )

    +inf when the phases coincide everywhere the target has energy.  The
    everywhere-antipodal phase scores 10 log10(1/4).
    """
    estimate_phase = np.asarray(estimate_phase, dtype=np.float64)
    if estimate_phase.shape != np.shape(target_q):
        raise ValueError(
            f"phase {estimate_phase.shape} and target {np.shape(target_q)} shapes differ"
        )
    return _psnr(_target_energy(target_q), estimate_phase)


class ScoreReference:
    """The parts of the phase scores that depend only on the target and the
    mixture at one mic: the energy mask, the mixture phase and the target's
    phase-difference side on the masked bins, and |S| with its energy.
    Build it once, then score any number of estimates with `score_against`."""

    def __init__(self, target_q, mixture_q, threshold_db=ENERGY_MASK_DB):
        target_q = np.asarray(target_q)
        mixture_q = np.asarray(mixture_q)
        if target_q.shape != mixture_q.shape:
            raise ValueError("estimate, target, and mixture shapes must match")
        self.shape = target_q.shape
        self.phase_sides = _phase_sides(target_q, mixture_q, threshold_db)
        self.target_energy = _target_energy(target_q)


def score_against(reference, estimate_q, estimate_wave=None, target_wave=None,
                  pipeline_name="", ref_mic=0):
    """score_estimate with the target and mixture given as a ScoreReference."""
    estimate_q = np.asarray(estimate_q)
    if estimate_q.shape != reference.shape:
        raise ValueError("estimate, target, and mixture shapes must match")
    if estimate_wave is not None and target_wave is not None:
        sdr = si_sdr(estimate_wave, target_wave)
    else:
        sdr = math.nan
    # one angle per estimate serves both phase scores
    phase = np.angle(estimate_q)
    return MetricsReport(
        si_sdr_db=sdr,
        pdsacc_percent=_pdsacc(reference.phase_sides, phase),
        psnr_db=_psnr(reference.target_energy, np.asarray(phase, dtype=np.float64)),
        pipeline_name=pipeline_name,
        ref_mic=ref_mic,
    )


def score_estimate(
    estimate_q,
    target_q,
    mixture_q,
    estimate_wave=None,
    target_wave=None,
    pipeline_name="",
    ref_mic=0,
):
    """Bundle the three scores for one spectrogram estimate.

    SI-SDR is computed on the provided waveforms when given, otherwise NaN.
    """
    return score_against(ScoreReference(target_q, mixture_q), estimate_q,
                         estimate_wave, target_wave, pipeline_name, ref_mic)
