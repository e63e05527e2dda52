"""Property tests: invariants the STFT, Gram, beamformer, mask, metric, phase
and file-format code promise for every input, checked on seeded random draws
(derandomized, so runs are repeatable)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodistort import (
    FormatError,
    StftConfig,
    analyze,
    compute_mask,
    mvdr,
    read_spectrogram,
    si_sdr,
    sign_flip_probability,
    synthesize,
    wmpdr,
    write_spectrogram,
)
from lodistort._rules import BLOCK_BYTES, blocks
from lodistort.linalg import hermitian_gram
from lodistort.metrics import _side
from lodistort.phase_geometry import wrap_phase
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
    for w in (mvdr(cov, ref_mic=q), wmpdr(phi_y, d, ref_mic=q)):
        response = np.einsum("fp,fp->f", np.conj(w), d)
        assert np.max(np.abs(response - d[:, q])) < 1e-9 * np.max(np.abs(d))


def gram_oracle(field, weights):
    # Sum_t w Z Z^H as one complex product averaged with its adjoint
    outer = np.matmul((weights[:, :, None] * field).transpose(1, 2, 0),
                      np.conj(field).transpose(1, 0, 2))
    return 0.5 * (outer + np.conj(np.swapaxes(outer, -1, -2)))


def assert_exact_hermitian_and_close(gram, oracle):
    assert np.array_equal(gram, np.conj(np.swapaxes(gram, -1, -2)))
    # per bin, relative to the bin's largest entry (a zero bin must be zero)
    err = np.max(np.abs(gram - oracle), axis=(1, 2))
    assert np.all(err <= 1e-12 * np.max(np.abs(oracle), axis=(1, 2)))


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    num_channels=st.sampled_from([1, 2, 6, 8]),
    num_frames=st.integers(1, 40),
    exact_frac=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_hermitian_gram_exact_and_matches_oracle(seed, num_channels, num_frames,
                                                 exact_frac, data):
    rng = np.random.default_rng(seed)
    shape = (num_frames, 5, num_channels)
    field = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # weights spanning 1e-12..1e12, a drawn share of them exactly 0 or 1
    weights = 10.0 ** rng.uniform(-12.0, 12.0, size=shape[:2])
    exact = rng.uniform(size=shape[:2]) < exact_frac
    weights[exact] = rng.integers(0, 2, size=int(exact.sum()))
    rows = (field * np.sqrt(weights)[:, :, None]).transpose(1, 0, 2)
    assert_exact_hermitian_and_close(hermitian_gram(rows), gram_oracle(field, weights))

    # one channel of a frozen frequency-major field, as mono runs pass it:
    # read-only and, for several channels, not contiguous
    frozen = np.ascontiguousarray(field.transpose(1, 0, 2))
    frozen.setflags(write=False)
    q = data.draw(st.integers(0, num_channels - 1), label="channel")
    column = field[:, :, q:q + 1]
    assert_exact_hermitian_and_close(
        hermitian_gram(frozen[:, :, q:q + 1]),
        gram_oracle(column, np.ones(shape[:2])),
    )


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


@PROPERTY_SETTINGS
@given(num_samples=st.integers(1, 3000),
       num_channels=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       a=st.floats(-1e3, 1e3), b=st.floats(-1e3, 1e3))
def test_stft_round_trip_and_linearity(num_samples, num_channels, seed, a, b):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((num_samples, num_channels))
    y = rng.standard_normal((num_samples, num_channels))
    spec_x, spec_y = analyze(x), analyze(y)
    assert spec_x.shape == (StftConfig.num_frames(num_samples), StftConfig.num_bins,
                            num_channels)
    back = synthesize(spec_x, num_samples).samples
    assert np.max(np.abs(back - x)) < 1e-10 * max(1.0, np.max(np.abs(x)))
    combined = analyze(a * x + b * y)
    scale = max(1.0, abs(a), abs(b)) * np.max(np.abs(spec_x) + np.abs(spec_y))
    assert np.max(np.abs(combined - (a * spec_x + b * spec_y))) < 1e-12 * scale


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(2, 400),
       noise=st.floats(1e-3, 1e3), scale=st.floats(1e-6, 1e6))
def test_si_sdr_scale_invariance_and_sign(seed, length, noise, scale):
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(length)
    est = ref + noise * rng.standard_normal(length)
    score = si_sdr(est, ref)
    # rescaling either signal, or flipping the estimate's sign, keeps the score
    for other in (si_sdr(scale * est, ref), si_sdr(est, scale * ref),
                  si_sdr(-est, ref)):
        assert other == pytest.approx(score, rel=1e-9, abs=1e-9)
    # positive exactly when the projection outweighs the residual
    alpha = np.dot(est, ref) / np.dot(ref, ref)
    projection = np.sum((alpha * ref) ** 2)
    residual = np.sum((alpha * ref - est) ** 2)
    if not math.isclose(projection, residual, rel_tol=1e-9):
        assert (score > 0) == (projection > residual)
    assert si_sdr(ref, ref) == math.inf
    orthogonal = rng.standard_normal(length)
    orthogonal -= np.dot(orthogonal, ref) / np.dot(ref, ref) * ref
    assert si_sdr(np.zeros(length), ref) == -math.inf
    assert si_sdr(orthogonal, ref) < 0.0


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), zero_frac=st.floats(0.0, 1.0),
       spread=st.floats(1e-6, 1e6))
def test_sign_flip_probability_in_half_unit_interval(seed, zero_frac, spread):
    rng = np.random.default_rng(seed)
    shape = (7, 11)
    target_mag = spread * rng.uniform(0.0, 1.0, shape)
    residual_mag = rng.uniform(0.0, 1.0, shape) / spread
    # exact zeros and theta = 0 are part of the domain
    target_mag[rng.uniform(size=shape) < zero_frac] = 0.0
    residual_mag[rng.uniform(size=shape) < zero_frac] = 0.0
    theta = rng.uniform(0.0, np.pi, shape)
    theta[rng.uniform(size=shape) < zero_frac] = 0.0
    prob = sign_flip_probability(target_mag, residual_mag, theta)
    assert prob.shape == shape
    assert np.all(np.isfinite(prob))
    assert np.all((prob >= 0.0) & (prob <= 0.5))


@PROPERTY_SETTINGS
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 9), st.integers(1, 3)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_ldspec_round_trip_and_rejections(tmp_path_factory, shape, seed, data):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    path = tmp_path_factory.mktemp("ldspec") / "x.ldspec"
    write_spectrogram(path, values)
    assert np.array_equal(read_spectrogram(path), values)
    raw = path.read_bytes()

    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    path.write_bytes(raw[:cut])
    with pytest.raises(FormatError):
        read_spectrogram(path)

    index = tuple(data.draw(st.integers(0, n - 1)) for n in shape)
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="bad")
    part = data.draw(st.sampled_from(["real", "imag"]), label="part")
    values[index] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    write_spectrogram(path, values)
    with pytest.raises(FormatError, match="non-finite"):
        read_spectrogram(path)


# finite components with signed zeros and both axes; magnitudes stay within
# 1e-3..1e3, where atan2 of an off-axis value never rounds onto an axis
COMPONENTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                       st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


def complex_from_parts(parts):
    # assembled component-wise, so signed zeros survive
    parts = np.asarray(parts, dtype=np.float64).reshape(-1, 2)
    out = np.empty(parts.shape[0], dtype=np.complex128)
    out.real = parts[:, 0]
    out.imag = parts[:, 1]
    return out


@PROPERTY_SETTINGS
@given(b_parts=st.lists(COMPONENTS, min_size=32, max_size=32),
       a_parts=st.lists(COMPONENTS, min_size=32, max_size=32),
       relation=st.sampled_from(["random", "equal", "double", "negated",
                                 "zero_a", "zero_b"]))
def test_side_rule_matches_wrapped_angle_difference(b_parts, a_parts, relation):
    b_parts, a_parts = np.array(b_parts), np.array(a_parts)
    if relation == "equal":
        a_parts = b_parts.copy()
    elif relation == "double":
        a_parts = 2.0 * b_parts
    elif relation == "negated":
        a_parts = -b_parts
    elif relation == "zero_a":
        a_parts = np.copysign(0.0, a_parts)
    elif relation == "zero_b":
        b_parts = np.copysign(0.0, b_parts)
    a, b = complex_from_parts(a_parts), complex_from_parts(b_parts)
    side = _side(a, b)
    difference = np.angle(a) - np.angle(b)
    reference = wrap_phase(difference) >= 0.0
    if relation == "negated":
        # the true difference is pi, which wraps to +pi; the angle rule reads
        # it exactly only where the float difference is exactly +-pi
        assert np.all(side)
        exact = np.abs(difference) == np.pi
        assert np.array_equal(side[exact], reference[exact])
    else:
        assert np.array_equal(side, reference)


# masks in (0, 1) that are not powers of two, whose products with a
# component round; components over 1e-100..1e100, where no product of two
# underflows or overflows
MASKS = st.floats(1e-3, 1.0).filter(lambda m: math.frexp(m)[0] != 0.5)
WIDE_COMPONENTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-100, 1e100),
                            st.floats(-1e100, -1e-100))


@PROPERTY_SETTINGS
@given(y_parts=st.lists(WIDE_COMPONENTS, min_size=32, max_size=32),
       masks=st.lists(MASKS, min_size=16, max_size=16))
def test_side_rule_reads_a_real_positive_mask_as_a_tie(y_parts, masks):
    # e = m y, formed one component at a time as the mask oracles form it,
    # has y's phase up to rounding: every bin reads phase(e) - phase(y) >= 0
    y = complex_from_parts(y_parts)
    m = np.array(masks)
    e = complex_from_parts(np.stack([m * y.real, m * y.imag], axis=1))
    assert np.all(_side(e, y))


def test_side_rule_on_signed_zero_and_axis_grid():
    # every pair of {+-0, +-1, +-2.5}^2: zeros on either side, both axes,
    # a == b, a == -b; here the angle rule's differences are exact
    values = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5]
    grid = complex_from_parts([(re, im) for re in values for im in values])
    a = np.repeat(grid, grid.size)
    b = np.tile(grid, grid.size)
    reference = wrap_phase(np.angle(a) - np.angle(b)) >= 0.0
    assert np.array_equal(_side(a, b), reference)


@PROPERTY_SETTINGS
@given(count=st.integers(1, 5000), item_bytes=st.integers(1, 4 * BLOCK_BYTES))
def test_blocks_partition_the_items_in_order(count, item_bytes):
    # every item once, in order; every block but the last as full as the
    # budget allows, at least one item
    spans = blocks(count, item_bytes)
    step = max(1, BLOCK_BYTES // item_bytes)
    assert [i for span in spans for i in range(count)[span]] == list(range(count))
    assert all(span.stop - span.start == step for span in spans[:-1])
    assert 1 <= spans[-1].stop - spans[-1].start <= step
