"""Property tests: invariants the beamformer and mask math promise for every
input, checked on seeded random draws (derandomized, so runs are repeatable)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lodistort import compute_mask, mvdr, wmpdr
from lodistort.stats import CovarianceSet

from conftest import random_psd_stack

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    num_mics=st.integers(2, 8),
    data=st.data(),
)
def test_distortionless_response_at_reference(seed, num_mics, data):
    # w^H d = d_q for both distortionless beamformers, at every reference mic
    q = data.draw(st.integers(0, num_mics - 1), label="ref_mic")
    rng = np.random.default_rng(seed)
    num_bins = 4
    phi_v = random_psd_stack(rng, num_bins, num_mics)
    phi_y = random_psd_stack(rng, num_bins, num_mics)
    d = rng.standard_normal((num_bins, num_mics)) \
        + 1j * rng.standard_normal((num_bins, num_mics))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    cov = CovarianceSet(phi_s=None, phi_v=phi_v, steering=d)
    for w in (mvdr(cov, ref_mic=q).weights, wmpdr(phi_y, d, ref_mic=q).weights):
        response = np.einsum("fp,fp->f", np.conj(w), d)
        assert np.max(np.abs(response - d[:, q])) < 1e-9 * np.max(np.abs(d))


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    est_scale=st.floats(1e-6, 1e6),
    zero_frac=st.floats(0.0, 1.0),
)
def test_mask_stays_in_unit_interval(seed, est_scale, zero_frac):
    rng = np.random.default_rng(seed)
    shape = (6, 9)
    est = est_scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    ref = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # exact zeros in either input are part of the domain
    est[rng.uniform(size=shape) < zero_frac] = 0.0
    ref[rng.uniform(size=shape) < zero_frac] = 0.0
    mask = compute_mask(est, ref)
    assert mask.shape == shape
    assert np.all(np.isfinite(mask))
    assert np.all((mask >= 0.0) & (mask <= 1.0))
