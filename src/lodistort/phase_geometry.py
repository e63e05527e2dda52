"""Phase recovery geometry.

Per T-F bin, the magnitudes of mixture, target, and distortion fix the
absolute phase difference between target and mixture through the triangle
they span (law of cosines); only its sign stays ambiguous.  This module
computes the two candidate phases and the probability that a processed bin
with a known residual magnitude lands on the wrong side.
"""

from dataclasses import dataclass

import numpy as np

from ._rules import check_shapes


def wrap_phase(x):
    """Wrap angles to (-pi, pi]; -pi maps to +pi."""
    return np.pi - np.mod(np.pi - np.asarray(x, dtype=np.float64), 2.0 * np.pi)


def _check_magnitudes(*magnitudes):
    for magnitude in magnitudes:
        if not np.all((magnitude >= 0.0) & np.isfinite(magnitude)):
            raise ValueError("magnitudes must be nonnegative and finite")


@dataclass
class PhaseCandidates:
    """Candidate target phases per T-F bin.

    Attributes:
        abs_diff: |phase(target) - phase(mixture)|, in [0, pi]
        plus, minus: the two candidates phase(mixture) +- abs_diff,
            wrapped to (-pi, pi]
        degenerate: True where |mixture| * |target| vanished and the
            difference was pinned to 0
    """

    abs_diff: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    degenerate: np.ndarray


def phase_candidates(mixture_q, target_mag, residual_mag):
    """Absolute phase difference and the two candidate phases per bin.

        |theta| = arccos((|Y|^2 + |S|^2 - |V|^2) / (2 |Y| |S|))

    with the cosine argument clamped to [-1, 1].  Bins where |Y| |S| = 0 get
    |theta| = 0 and are flagged degenerate.

    Arguments:
        mixture_q: finite complex mixture at the reference mic, T x F
        target_mag, residual_mag: nonnegative finite magnitudes, T x F
    Return:
        PhaseCandidates
    """
    mixture_q = np.asarray(mixture_q, dtype=np.complex128)
    target_mag = np.asarray(target_mag, dtype=np.float64)
    residual_mag = np.asarray(residual_mag, dtype=np.float64)
    check_shapes(mixture_q=(mixture_q, "T x F"), target_mag=(target_mag, "T x F"),
                 residual_mag=(residual_mag, "T x F"))
    mix_mag = np.abs(mixture_q)
    _check_magnitudes(mix_mag, target_mag, residual_mag)
    denom = 2.0 * mix_mag * target_mag
    degenerate = denom == 0.0
    cosine = np.where(
        degenerate,
        1.0,
        (mix_mag ** 2 + target_mag ** 2 - residual_mag ** 2)
        / np.where(degenerate, 1.0, denom),
    )
    abs_diff = np.arccos(np.clip(cosine, -1.0, 1.0))
    mix_phase = np.angle(mixture_q)
    return PhaseCandidates(
        abs_diff=abs_diff,
        plus=wrap_phase(mix_phase + abs_diff),
        minus=wrap_phase(mix_phase - abs_diff),
        degenerate=degenerate,
    )


def sign_flip_probability(target_mag, residual_mag, abs_phase_diff):
    """Probability that a processed bin's phase lands past the mixture phase.

    For a target of magnitude |S| at angle theta from the mixture phase,
    corrupted by a residual of magnitude |V| with uniformly random phase, the
    processed bin falls on the wrong side of the mixture phase with
    probability

        (1/pi) * arccos(min(1, |S| sin(theta) / |V|))

    which is 0 whenever |S| sin(theta) >= |V| and 1/2 at theta = 0.  A zero
    residual magnitude gives probability 0.

    Arguments:
        target_mag, residual_mag: nonnegative finite magnitudes (scalars or arrays)
        abs_phase_diff: theta in [0, pi)
    Return:
        flip probability in [0, 1/2], matching the broadcast shape
    """
    target_mag, residual_mag, theta = np.broadcast_arrays(
        np.asarray(target_mag, dtype=np.float64),
        np.asarray(residual_mag, dtype=np.float64),
        np.asarray(abs_phase_diff, dtype=np.float64),
    )
    if not np.all((theta >= 0.0) & (theta < np.pi)):
        raise ValueError("abs_phase_diff must lie in [0, pi)")
    _check_magnitudes(target_mag, residual_mag)
    vanished = residual_mag == 0.0
    ratio = target_mag * np.sin(theta) / np.where(vanished, 1.0, residual_mag)
    prob = np.arccos(np.minimum(ratio, 1.0)) / np.pi
    prob = np.where(vanished, 0.0, prob)
    if prob.ndim == 0:
        return float(prob)
    return prob
