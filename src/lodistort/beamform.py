"""Frequency-domain beamformers: distortionless (MVDR and its power-weighted
variant), GEV with blind analytic normalization, and the multichannel Wiener
filter.

Each beamformer returns its weights as a complex F x P array, stored
conjugated-application style: the beamformer output is w(f)^H Z(t,f),
implemented by apply_beamformer.
"""

import numpy as np

from ._rules import check_channel, check_shapes
from .errors import SingularMatrixError
from .linalg import (
    DEFAULT_LOADING,
    cholesky_stack,
    hermitian_gram,
    hermitize,
    load_diagonal,
    principal_eigenpairs,
    rotate_reference_phase,
    solve_stack,
)


def _distortionless(phi, steering, ref_mic, loading, name):
    # name: phi's argument name, for the messages
    phi = np.asarray(phi, dtype=np.complex128)
    steering = np.asarray(steering, dtype=np.complex128)
    sizes = check_shapes(**{name: (phi, "F x P x P")}, steering=(steering, "F x P"))
    check_channel("ref_mic", ref_mic, sizes["P"])
    num = solve_stack(load_diagonal(phi.copy(), loading), steering)  # F x P
    den = np.einsum("fp,fp->f", np.conj(steering), num).real
    if np.any(den <= 0.0):
        bad = int(np.flatnonzero(den <= 0.0)[0])
        raise SingularMatrixError(
            f"non-positive quadratic form at frequency bin {bad} "
            "(zero steering vector or indefinite covariance)",
            frequency_bin=bad,
        )
    return num / den[:, None] * np.conj(steering[:, ref_mic])[:, None]


def mvdr(cov, ref_mic=0, loading=DEFAULT_LOADING):
    """Minimum-variance distortionless beamformer.

        w(f) = (phi_v^-1 d) / (d^H phi_v^-1 d) * conj(d_q)

    phi_v gets relative diagonal loading before the solve.  The weights
    satisfy w^H d = d_q exactly, so the target component at the reference
    mic passes through unchanged.

    Arguments:
        cov: CovarianceSet; cov.steering is used when present, otherwise
            derived from cov.phi_s
    """
    steering = cov.steering
    if steering is None:
        from .stats import steering_vector

        steering = steering_vector(cov.phi_s, ref_mic)
    return _distortionless(cov.phi_v, steering, ref_mic, loading, "phi_v")


def wmpdr(phi_y_prime, steering, ref_mic=0, loading=DEFAULT_LOADING):
    """Distortionless beamformer on the power-weighted observation covariance.

    Same ratio as mvdr with phi_v replaced by phi_y_prime
    (see stats.weighted_covariance).
    """
    return _distortionless(phi_y_prime, steering, ref_mic, loading, "phi_y_prime")


def gev_ban(cov, ref_mic=0, loading=DEFAULT_LOADING):
    """Generalized-eigenvector beamformer with blind analytic normalization.

    The principal generalized eigenvector of (phi_s, phi_v) is computed by
    whitening with the Cholesky factor of the loaded phi_v (solve the
    Hermitian problem L^-1 phi_s L^-H, then map back), unit-normalized, and
    rotated so its reference entry is real nonnegative.  The returned weights
    are pre-multiplied by the BAN gain

        c = sqrt(w^H phi_v phi_v w / P) / (w^H phi_v w)

    computed on the unloaded phi_v; c is real and nonnegative by construction.
    """
    phi_s = np.asarray(cov.phi_s, dtype=np.complex128)
    phi_v = np.asarray(cov.phi_v, dtype=np.complex128)
    num_mics = check_shapes(phi_s=(phi_s, "F x P x P"), phi_v=(phi_v, "F x P x P"))["P"]
    check_channel("ref_mic", ref_mic, num_mics)

    chol = cholesky_stack(load_diagonal(phi_v.copy(), loading))
    half = solve_stack(chol, phi_s)  # L^-1 phi_s
    whitened = solve_stack(chol, np.conj(np.swapaxes(half, -1, -2)))
    _, vectors, _ = principal_eigenpairs(hermitize(whitened))
    # back-substitute out of the whitened coordinates: w = L^-H u
    weights = solve_stack(np.conj(np.swapaxes(chol, -1, -2)), vectors)
    weights /= np.linalg.norm(weights, axis=1, keepdims=True)
    weights = rotate_reference_phase(weights, ref_mic)

    propagated = np.einsum("fpq,fq->fp", phi_v, weights)
    num = np.sqrt(np.sum(np.abs(propagated) ** 2, axis=1) / num_mics)
    den = np.einsum("fp,fp->f", np.conj(weights), propagated).real
    gain = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return weights * gain[:, None]


def mcwf(field, target_q, loading=DEFAULT_LOADING):
    """Multichannel Wiener filter regressing the field onto a target.

    Solves the per-frequency normal equations

        (Sum_t Z Z^H + load) w = Sum_t Z conj(target)

    so w^H Z is the least-squares approximation of the target.

    Arguments:
        field: complex spectrogram, T x F x P
        target_q: complex target, T x F
    """
    field = np.asarray(field, dtype=np.complex128)
    target_q = np.asarray(target_q, dtype=np.complex128)
    check_shapes(field=(field, "T x F x P"), target_q=(target_q, "T x F"))
    gram = load_diagonal(hermitian_gram(field.transpose(1, 0, 2)), loading)
    rhs = np.einsum("tfp,tf->fp", field, np.conj(target_q))
    return solve_stack(gram, rhs)


def apply_beamformer(weights, field):
    """Apply w^H to every frame: out(t,f) = Sum_p conj(w(f,p)) Z(t,f,p)."""
    field = np.asarray(field, dtype=np.complex128)
    w = np.asarray(weights)
    check_shapes(field=(field, "T x F x P"), weights=(w, "F x P"))
    return np.einsum("fp,tfp->tf", np.conj(w), field)
