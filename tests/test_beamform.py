"""Beamformer tests: distortionless constraints, independent constrained-QP /
generalized-eigensolver / least-squares oracles, and optimality probes."""

import numpy as np
import pytest
import scipy.linalg

from lodistort import (
    SingularMatrixError,
    apply_beamformer,
    gev_ban,
    mcwf,
    mvdr,
    steering_vector,
    wmpdr,
)
from lodistort.linalg import solve_stack
from lodistort.stats import CovarianceSet

from conftest import random_psd_stack, rank_one_field


def random_steering(rng, num_bins, num_mics):
    d = rng.standard_normal((num_bins, num_mics)) + 1j * rng.standard_normal(
        (num_bins, num_mics)
    )
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def test_distortionless_constraint_holds():
    rng = np.random.default_rng(0)
    for num_mics in (2, 3, 6):
        phi_v = random_psd_stack(rng, 5, num_mics)
        phi_y = random_psd_stack(rng, 5, num_mics)
        d = random_steering(rng, 5, num_mics)
        cov = CovarianceSet(phi_s=None, phi_v=phi_v, steering=d)
        for w in (mvdr(cov, ref_mic=1),
                  wmpdr(phi_y, d, ref_mic=1)):
            gap = np.einsum("fp,fp->f", np.conj(w), d) - d[:, 1]
            assert np.max(np.abs(gap)) < 1e-10, num_mics


def test_mvdr_against_bordered_kkt_oracle():
    """Minimum variance subject to w^H d = d_q, solved as the bordered KKT
    system [[phi, d], [d^H, 0]] [w; mu] = [0; conj(d_q)] — a different
    numerical path from the implementation's solve-then-normalize ratio."""
    rng = np.random.default_rng(1)
    num_bins, num_mics = 6, 3
    phi_v = random_psd_stack(rng, num_bins, num_mics)
    d = random_steering(rng, num_bins, num_mics)
    cov = CovarianceSet(phi_s=None, phi_v=phi_v, steering=d)
    got = mvdr(cov, ref_mic=0, loading=0.0)
    for f in range(num_bins):
        kkt = np.zeros((num_mics + 1, num_mics + 1), dtype=complex)
        kkt[:num_mics, :num_mics] = phi_v[f]
        kkt[:num_mics, num_mics] = d[f]
        kkt[num_mics, :num_mics] = np.conj(d[f])
        rhs = np.zeros(num_mics + 1, dtype=complex)
        rhs[num_mics] = np.conj(d[f, 0])
        w_oracle = np.linalg.solve(kkt, rhs)[:num_mics]
        assert np.max(np.abs(got[f] - w_oracle)) < 1e-8, f


def test_mvdr_derives_steering_from_phi_s():
    rng = np.random.default_rng(2)
    d = random_steering(rng, 4, 3)
    phi_s = 2.0 * np.einsum("fp,fq->fpq", d, np.conj(d))
    phi_v = random_psd_stack(rng, 4, 3)
    auto = mvdr(CovarianceSet(phi_s=phi_s, phi_v=phi_v), ref_mic=0)
    manual = mvdr(
        CovarianceSet(phi_s=None, phi_v=phi_v, steering=steering_vector(phi_s, 0)),
        ref_mic=0,
    )
    assert np.array_equal(auto, manual)


def test_scale_invariance():
    rng = np.random.default_rng(3)
    phi_v = random_psd_stack(rng, 5, 4)
    d = random_steering(rng, 5, 4)
    base = mvdr(CovarianceSet(None, phi_v, steering=d))
    scaled = mvdr(CovarianceSet(None, 37.5 * phi_v, steering=d))
    assert np.max(np.abs(base - scaled)) < 1e-10
    base_w = wmpdr(phi_v, d)
    scaled_w = wmpdr(0.004 * phi_v, d)
    assert np.max(np.abs(base_w - scaled_w)) < 1e-10


def test_single_channel_passthrough():
    rng = np.random.default_rng(4)
    phi_v = np.abs(rng.standard_normal((3, 1, 1))) + 0.5 + 0j
    d = np.ones((3, 1), dtype=complex)
    w = mvdr(CovarianceSet(None, phi_v, steering=d))
    assert np.max(np.abs(w - 1.0)) < 1e-12


def test_noiseless_rank_one_reproduces_reference_channel():
    field, _, _ = rank_one_field(5, num_frames=40, num_mics=3)
    cov = CovarianceSet(
        phi_s=np.einsum("tfp,tfq->fpq", field, np.conj(field)),
        phi_v=np.zeros((field.shape[1], 3, 3), dtype=complex),
    )
    cov.steering = steering_vector(cov.phi_s, ref_mic=1)
    out = apply_beamformer(mvdr(cov, ref_mic=1), field)
    ref = field[:, :, 1]
    rel = np.abs(out - ref) / np.abs(ref)
    assert np.max(rel) < 1e-8


def test_gev_matches_generalized_eigensolver():
    rng = np.random.default_rng(6)
    num_bins, num_mics = 5, 4
    phi_s = random_psd_stack(rng, num_bins, num_mics, rows=2)  # low-ish rank
    phi_v = random_psd_stack(rng, num_bins, num_mics)
    result = gev_ban(CovarianceSet(phi_s, phi_v), ref_mic=0, loading=0.0)
    w = result
    gain = np.linalg.norm(w, axis=1)
    unit = w / gain[:, None]
    for f in range(num_bins):
        vals, vecs = scipy.linalg.eigh(phi_s[f], phi_v[f])
        lam = vals[-1]
        resid = np.linalg.norm(phi_s[f] @ w[f] - lam * (phi_v[f] @ w[f]))
        assert resid < 1e-8 * np.linalg.norm(phi_s[f] @ w[f]), f
        top = vecs[:, -1] / np.linalg.norm(vecs[:, -1])
        assert 1.0 - abs(np.vdot(top, unit[f])) < 1e-8, f
        # reference-entry phase convention
        assert abs(unit[f, 0].imag) < 1e-12 and unit[f, 0].real >= 0.0
        # blind analytic normalization, recomputed from scratch
        u = unit[f]
        num = np.sqrt(np.real(np.conj(u) @ phi_v[f] @ phi_v[f] @ u) / num_mics)
        den = np.real(np.conj(u) @ phi_v[f] @ u)
        assert gain[f] >= 0.0
        assert abs(gain[f] - num / den) < 1e-10 * max(num / den, 1.0), f


def test_gev_maximizes_rayleigh_quotient():
    rng = np.random.default_rng(7)
    phi_s = random_psd_stack(rng, 3, 3)
    phi_v = random_psd_stack(rng, 3, 3)
    w = gev_ban(CovarianceSet(phi_s, phi_v), loading=0.0)

    def quotient(f, x):
        return np.real(np.conj(x) @ phi_s[f] @ x) / np.real(
            np.conj(x) @ phi_v[f] @ x
        )

    for f in range(3):
        best = quotient(f, w[f])
        for _ in range(100):
            u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert best >= quotient(f, u) - 1e-8 * abs(best)


def test_ban_gain_for_identity_noise():
    rng = np.random.default_rng(8)
    phi_s = random_psd_stack(rng, 4, 3, rows=1)  # rank one
    phi_v = np.stack([np.eye(3, dtype=complex)] * 4)
    w = gev_ban(CovarianceSet(phi_s, phi_v), loading=0.0)
    # with identity noise the BAN gain collapses to 1/sqrt(P)
    assert np.max(np.abs(np.linalg.norm(w, axis=1) - 1.0 / np.sqrt(3.0))) < 1e-10


def test_mcwf_selects_target_channel():
    rng = np.random.default_rng(9)
    field = rng.standard_normal((30, 4, 3)) + 1j * rng.standard_normal((30, 4, 3))
    w = mcwf(field, field[:, :, 2], loading=0.0)
    want = np.zeros((4, 3), dtype=complex)
    want[:, 2] = 1.0
    assert np.max(np.abs(w - want)) < 1e-10
    out = apply_beamformer(mcwf(field, field[:, :, 2], loading=0.0), field)
    assert np.max(np.abs(out - field[:, :, 2])) < 1e-10


def test_mcwf_matches_lstsq_oracle():
    rng = np.random.default_rng(10)
    field = rng.standard_normal((50, 6, 2)) + 1j * rng.standard_normal((50, 6, 2))
    target = rng.standard_normal((50, 6)) + 1j * rng.standard_normal((50, 6))
    got = mcwf(field, target, loading=0.0)
    for f in range(6):
        # w minimizing ||Z conj(w) - s||: lstsq on the conjugated system
        w_oracle = np.conj(np.linalg.lstsq(field[:, f, :], target[:, f], rcond=None)[0])
        assert np.max(np.abs(got[f] - w_oracle)) < 1e-9, f


def test_mcwf_residual_orthogonality():
    rng = np.random.default_rng(11)
    field = rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal((40, 3, 3))
    target = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    weights = mcwf(field, target, loading=0.0)
    resid = target - apply_beamformer(weights, field)
    # first-order optimality: residual uncorrelated with every input channel
    cross = np.einsum("tf,tfp->fp", resid, np.conj(field))
    assert np.max(np.abs(cross)) < 1e-8


def test_mcwf_perturbation_does_not_improve():
    rng = np.random.default_rng(12)
    field = rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))
    target = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
    weights = mcwf(field, target, loading=0.0)

    def objective(w):
        out = np.einsum("fp,tfp->tf", np.conj(w), field)
        return float(np.sum(np.abs(target - out) ** 2))

    base = objective(weights)
    for _ in range(50):
        step = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        step *= 1e-3 / np.linalg.norm(step)
        assert objective(weights + step) >= base - 1e-12


def test_apply_matches_scalar_loop_and_is_linear():
    rng = np.random.default_rng(13)
    field = rng.standard_normal((7, 3, 2)) + 1j * rng.standard_normal((7, 3, 2))
    w = mcwf(field, field[:, :, 0], loading=0.0)
    out = apply_beamformer(w, field)
    for t in range(7):
        for f in range(3):
            want = sum(np.conj(w[f, p]) * field[t, f, p] for p in range(2))
            assert abs(out[t, f] - want) < 1e-12
    c = 2.0 - 1.0j
    assert np.allclose(apply_beamformer(w, c * field), c * out, atol=1e-12)


def test_singular_noise_covariance_raises():
    d = np.ones((2, 2), dtype=complex) / np.sqrt(2.0)
    zeros = np.zeros((2, 2, 2), dtype=complex)
    with pytest.raises(SingularMatrixError) as info:
        mvdr(CovarianceSet(None, zeros, steering=d), loading=0.0)
    assert info.value.frequency_bin == 0


def test_indefinite_covariances_name_their_bin():
    # -I is negative definite: the Cholesky factor of gev_ban's phi_v fails,
    # and the distortionless quadratic form d^H phi^-1 d is negative
    minus_eye = -np.tile(np.eye(2, dtype=complex), (3, 1, 1))
    with pytest.raises(SingularMatrixError, match="not positive definite") as info:
        gev_ban(CovarianceSet(-minus_eye, minus_eye))
    assert info.value.frequency_bin == 0
    d = np.ones((3, 2), dtype=complex) / np.sqrt(2.0)
    with pytest.raises(SingularMatrixError, match="non-positive quadratic form") as info:
        wmpdr(minus_eye, d)
    assert info.value.frequency_bin == 0


def test_non_finite_solves_name_their_bin():
    # a NaN in bin 1's matrix makes that matrix unsolvable on its own; one
    # in bin 1's right-hand side leaves every matrix solvable, so the
    # non-finite result itself is reported
    mats = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
    rhs = np.ones((3, 2), dtype=complex)
    bad_mats, bad_rhs = mats.copy(), rhs.copy()
    bad_mats[1, 0, 1] = np.nan
    bad_rhs[1, 0] = np.nan
    for args, text in (((bad_mats, rhs), "singular matrix at frequency bin 1"),
                       ((mats, bad_rhs), "non-finite solve result at frequency bin 1")):
        with pytest.raises(SingularMatrixError, match=text) as info:
            solve_stack(*args)
        assert info.value.frequency_bin == 1


def test_shape_validation():
    rng = np.random.default_rng(14)
    phi_v = random_psd_stack(rng, 3, 2)
    d = random_steering(rng, 4, 2)  # wrong bin count
    with pytest.raises(ValueError):
        wmpdr(phi_v, d)
    with pytest.raises(ValueError):
        mvdr(CovarianceSet(None, phi_v, steering=d[:3]), ref_mic=5)
    field = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
    with pytest.raises(ValueError):
        mcwf(field, field[:, :2, 0])
    w = mcwf(field, field[:, :, 0])
    with pytest.raises(ValueError):
        apply_beamformer(w, field[:, :, :1])
