"""Covariance/mask/steering statistics against brute-force loop oracles and
an independent power-iteration eigensolver."""

import warnings

import numpy as np
import pytest

from lodistort import (
    compute_mask,
    fcp_weight,
    masked_covariances,
    psd_floor,
    signal_covariances,
    steering_vector,
    weighted_covariance,
)
from lodistort import _rules, stats
from lodistort.linalg import hermitian_gram


def random_field(seed, num_frames=12, num_bins=4, num_mics=3):
    rng = np.random.default_rng(seed)
    shape = (num_frames, num_bins, num_mics)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def loop_outer(a, b=None, weights=None):
    """Naive per-bin accumulation: sum_t w(t,f) a(t,f,:) b(t,f,:)^H."""
    b = a if b is None else b
    num_frames, num_bins, num_mics = a.shape
    out = np.zeros((num_bins, num_mics, num_mics), dtype=complex)
    for f in range(num_bins):
        for t in range(num_frames):
            w = 1.0 if weights is None else weights[t, f]
            out[f] += w * np.outer(a[t, f], np.conj(b[t, f]))
    return out


def test_single_frame_covariance_literal():
    est = np.array([[[1.0 + 0.0j, 0.0 + 1.0j]]])  # T=1, F=1, P=2
    cov = signal_covariances(est, est)
    want = np.array([[1.0, -1.0j], [1.0j, 1.0]])
    assert np.allclose(cov.phi_s[0], want, atol=1e-15)
    assert np.allclose(cov.phi_v[0], 0.0, atol=1e-15)


def test_signal_covariances_match_loop_oracle():
    mix = random_field(0)
    est = random_field(1)
    cov = signal_covariances(mix, est)
    assert np.max(np.abs(cov.phi_s - loop_outer(est))) < 1e-12
    assert np.max(np.abs(cov.phi_v - loop_outer(mix - est))) < 1e-12


def test_covariances_hermitian_and_psd():
    mix = random_field(2, num_frames=30)
    est = random_field(3, num_frames=30)
    for mats in signal_covariances(mix, est).phi_s, signal_covariances(mix, est).phi_v:
        assert np.max(np.abs(mats - np.conj(np.swapaxes(mats, 1, 2)))) < 1e-12
        eigs = np.linalg.eigvalsh(mats)
        assert eigs.min() > -1e-8 * max(eigs.max(), 1.0)


def test_mask_literal_values():
    est = np.array([[1.0 + 0.0j]])
    ref = np.array([[1.0 + 3.0j]])  # |ref - est| = 3
    assert abs(compute_mask(est, ref)[0, 0] - 0.25) < 1e-15
    assert compute_mask(ref, ref)[0, 0] == 1.0
    assert compute_mask(np.zeros((1, 1)), ref)[0, 0] == 0.0
    assert compute_mask(np.zeros((1, 1)), np.zeros((1, 1)))[0, 0] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mask_rejects_non_finite_input_by_name(bad):
    # a NaN estimate bin used to come out as mask 0 without an error
    good = np.ones((2, 3), dtype=complex)
    spoiled = good.copy()
    spoiled[1, 2] = complex(bad, 0.0)
    with pytest.raises(ValueError, match="^estimate_q must be finite"):
        compute_mask(spoiled, good)
    with pytest.raises(ValueError, match="^reference_q must be finite"):
        compute_mask(good, spoiled)


def test_masked_covariances_complementarity_and_oracle():
    field = random_field(4, num_frames=15)
    rng = np.random.default_rng(5)
    mask = rng.uniform(0.0, 1.0, size=field.shape[:2])
    cov = masked_covariances(field, mask)
    assert np.max(np.abs(cov.phi_s - loop_outer(field, weights=mask))) < 1e-12
    assert np.max(np.abs(cov.phi_v - loop_outer(field, weights=1.0 - mask))) < 1e-12
    # mask + complement recompose the plain sum exactly
    total = cov.phi_s + cov.phi_v
    assert np.max(np.abs(total - loop_outer(field))) < 1e-11


def test_masked_covariances_validation():
    field = random_field(6)
    with pytest.raises(ValueError):
        masked_covariances(field, np.full(field.shape[:2], 1.5))
    with pytest.raises(ValueError):
        masked_covariances(field, np.full(field.shape[:2], -0.1))
    with pytest.raises(ValueError):
        masked_covariances(field, np.ones((2, 2)))


def test_weighted_covariance_matches_loop():
    field = random_field(7)
    rng = np.random.default_rng(8)
    lam = rng.uniform(0.5, 2.0, size=field.shape[:2])
    got = weighted_covariance(field, lam)
    assert np.max(np.abs(got - loop_outer(field, weights=1.0 / lam))) < 1e-12
    with pytest.raises(ValueError):
        weighted_covariance(field, lam * 0.0)  # not strictly positive


@pytest.mark.parametrize("block_bytes", [1, _rules.BLOCK_BYTES, 2 ** 20])
@pytest.mark.parametrize("num_frames", [1, 300])
@pytest.mark.parametrize("num_mics", [1, 8])
def test_blocked_grams_equal_the_whole_field_gram(monkeypatch, block_bytes,
                                                  num_frames, num_mics):
    # each bin's Gram does not depend on its block: one bin at a time, and
    # blocks that do not divide F = 257 (at the shared budget and at the
    # covariances' former 1 MiB), give the whole field's Gram exactly
    monkeypatch.setattr(_rules, "BLOCK_BYTES", block_bytes)
    field = random_field(11, num_frames=num_frames, num_bins=257,
                         num_mics=num_mics)
    estimate = random_field(12, num_frames=num_frames, num_bins=257,
                            num_mics=num_mics)
    scale = np.random.default_rng(13).uniform(0.1, 2.0, size=field.shape[:2])
    assert np.array_equal(
        stats._scaled_gram(field, scale),
        hermitian_gram((field * scale[:, :, None]).transpose(1, 0, 2)))
    assert np.array_equal(
        signal_covariances(field, estimate).phi_v,
        hermitian_gram((field - estimate).transpose(1, 0, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_are_rejected(bad):
    # a NaN or infinite mask or psd entry raises, naming the argument,
    # instead of yielding NaN covariances or weight 0
    field = random_field(9)
    mask = np.full(field.shape[:2], 0.5)
    mask[3, 1] = bad
    psd = np.ones(field.shape[:2])
    psd[3, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mask.*finite"):
            masked_covariances(field, mask)
        with pytest.raises(ValueError, match="psd.*finite"):
            weighted_covariance(field, psd)


def power_iteration(mat, iters=300):
    v = np.ones(mat.shape[0], dtype=complex) / np.sqrt(mat.shape[0])
    for _ in range(iters):
        v = mat @ v
        v = v / np.linalg.norm(v)
    lam = np.real(np.conj(v) @ mat @ v)
    return lam, v


def test_steering_against_power_iteration():
    rng = np.random.default_rng(9)
    num_bins, num_mics = 6, 4
    d = rng.standard_normal((num_bins, num_mics)) + 1j * rng.standard_normal(
        (num_bins, num_mics)
    )
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    noise = rng.standard_normal((num_bins, num_mics, num_mics)) \
        + 1j * rng.standard_normal((num_bins, num_mics, num_mics))
    phi = 3.0 * np.einsum("fp,fq->fpq", d, np.conj(d)) \
        + 0.05 * np.einsum("fpr,fqr->fpq", noise, np.conj(noise))
    got = steering_vector(phi, ref_mic=1)
    norms = np.linalg.norm(got, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    # fixed phase: reference entry real and nonnegative
    assert np.max(np.abs(got[:, 1].imag)) < 1e-12
    assert np.all(got[:, 1].real >= 0.0)
    for f in range(num_bins):
        lam, v = power_iteration(phi[f])
        overlap = abs(np.vdot(v, got[f]))
        assert 1.0 - overlap < 1e-8, f
        resid = np.linalg.norm(phi[f] @ got[f] - lam * got[f])
        assert resid < 1e-8 * lam, f


def test_steering_degeneracy_warns():
    phi = np.stack([np.eye(3, dtype=complex)] * 2)
    with pytest.warns(RuntimeWarning):
        steering_vector(phi)
    # non-degenerate input stays silent
    phi2 = np.stack([np.diag([3.0, 1.0, 0.5]).astype(complex)] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steering_vector(phi2)


def test_psd_floor_literal_and_monotone():
    power = np.zeros((3, 4))
    power[1, 2] = 1.0
    lam = psd_floor(power)
    assert lam[1, 2] == 1.0
    assert np.all(np.delete(lam.ravel(), 1 * 4 + 2) == 1e-5)
    # all-silence input stays strictly positive at the absolute floor
    assert np.all(psd_floor(np.zeros((2, 2))) == 1e-12)
    # multichannel input sums power over channels
    field = np.ones((2, 2, 3), dtype=complex)
    assert np.allclose(psd_floor(field), 3.0)
    rng = np.random.default_rng(10)
    a = np.abs(rng.standard_normal((5, 6)))
    b = a + np.abs(rng.standard_normal((5, 6)))
    assert np.all(psd_floor(b) >= psd_floor(a))
    with pytest.raises(ValueError):
        psd_floor(a, epsilon=0.0)
    with pytest.raises(ValueError):
        psd_floor(a, epsilon=float("nan"))
    nan_input = a.copy()
    nan_input[2, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        psd_floor(nan_input)


def test_psd_floor_rejects_overflowing_power():
    # finite input whose power overflows float64 would leave inf weights;
    # fcp_weight floors the residual power by the same rule and rejects it too
    big = np.full((3, 4), 1e200 + 0j)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            psd_floor(big)
        with pytest.raises(ValueError, match="finite"):
            fcp_weight(big, np.zeros_like(big))
