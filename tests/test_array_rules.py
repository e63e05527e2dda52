"""The array rules: every public function that takes arrays checks each one's
layout (its rank, and the sizes it shares with the call's other arrays or
that the call fixes) and names a bad argument in its ValueError.

energy_mask, sign_flip_probability and wrap_phase take arrays of any rank
(the latter two broadcast), so they have no layout to break."""

import re

import numpy as np
import pytest

import lodistort as ld
from lodistort import CovarianceSet
from lodistort._rules import check_channel, check_finite, check_shapes

T, F, P, N = 6, 4, 3, 800


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def grown(arr, axes=None):
    """`arr` with each axis in `axes` (every axis by default) one longer."""
    axes = range(arr.ndim) if axes is None else axes
    return np.pad(arr, [(0, int(k in axes)) for k in range(arr.ndim)])


def _cases():
    """(name, function of the arrays by keyword, valid arrays, wrong-size
    arrays).  An argument that shares no size with another, nor has a size
    the call fixes, has no wrong size."""
    rng = np.random.default_rng(25)
    field, q = _complex(rng, T, F, P), _complex(rng, T, F)
    phi = np.einsum("fpt,fqt->fpq", _complex(rng, F, P, 8), _complex(rng, F, P, 8).conj())
    phi = phi @ np.conj(np.swapaxes(phi, 1, 2)) + np.eye(P)
    steering = _complex(rng, F, P)
    mask, psd = rng.uniform(0.0, 1.0, (T, F)), rng.uniform(0.5, 1.0, (T, F))
    wave, signal = rng.standard_normal(N), rng.standard_normal((N, 2))
    spectrogram = _complex(rng, T, ld.StftConfig().num_bins)

    def sized(**arrays):
        return {name: grown(value) for name, value in arrays.items()}

    pairs = [
        ("analyze", lambda signal: ld.analyze(signal), dict(signal=signal), {}),
        ("apply_beamformer", ld.apply_beamformer,
         dict(weights=steering, field=field), None),
        ("build_delayed_stack", lambda field: ld.build_delayed_stack(field, 2, 1),
         dict(field=field), {}),
        ("compute_mask", ld.compute_mask, dict(estimate_q=q, reference_q=q), None),
        ("fcp", lambda reference, estimate: ld.fcp(reference, estimate, 2),
         dict(reference=q, estimate=q), None),
        ("fcp_weight", ld.fcp_weight, dict(reference=q, estimate=q), None),
        ("gev_ban", lambda phi_s, phi_v: ld.gev_ban(CovarianceSet(phi_s, phi_v)),
         dict(phi_s=phi, phi_v=phi), None),
        ("masked_covariances", ld.masked_covariances, dict(field=field, mask=mask), None),
        ("mcwf", ld.mcwf, dict(field=field, target_q=q), None),
        ("mvdr", lambda phi_v, steering: ld.mvdr(CovarianceSet(None, phi_v, steering)),
         dict(phi_v=phi, steering=steering), None),
        ("oracle_estimate",
         lambda mixture, target: ld.oracle_estimate(mixture, target, ld.ORACLE_KINDS[1]),
         dict(mixture=field, target=field), None),
        ("pdsacc", ld.pdsacc, dict(estimate_q=q, target_q=q, mixture_q=q), None),
        ("phase_candidates", ld.phase_candidates,
         dict(mixture_q=q, target_mag=np.abs(q), residual_mag=np.abs(q)), None),
        ("psd_floor", ld.psd_floor, dict(estimates=field), {}),
        ("psnr", ld.psnr, dict(estimate_phase=np.angle(q), target_q=q), None),
        ("score_estimate", ld.score_estimate,
         dict(estimate_q=q, target_q=q, mixture_q=q), None),
        ("si_sdr", ld.si_sdr, dict(estimate=wave, reference=wave), None),
        ("signal_covariances", ld.signal_covariances,
         dict(mixture=field, estimate=field), None),
        ("solve_weighted_lp", ld.solve_weighted_lp,
         dict(stack=field, target=q, weights=psd), None),
        ("steering_vector", ld.steering_vector, dict(phi_s=phi),
         dict(phi_s=grown(phi, axes=(2,)))),
        ("synthesize", ld.synthesize, dict(spectrogram=spectrogram), None),
        ("weighted_covariance", ld.weighted_covariance, dict(field=field, psd=psd), None),
        ("wmpdr", ld.wmpdr, dict(phi_y_prime=phi, steering=steering), None),
        ("wpe", lambda field, psd: ld.wpe(field, psd, 2), dict(field=field, psd=psd), None),
        ("wpe_field", lambda field, psd: ld.wpe_field(field, psd, 2),
         dict(field=field, psd=psd), None),
    ]
    # None: every argument has a wrong size, each axis one longer
    return [(name, function, arrays, sized(**arrays) if wrong is None else wrong)
            for name, function, arrays, wrong in pairs]


CASES = _cases()


def _names(err, name):
    return re.search(rf"\b{re.escape(name)}\b", str(err)) is not None


@pytest.mark.parametrize("name, function, arrays, wrong", CASES,
                         ids=[case[0] for case in CASES])
def test_every_array_argument_of_a_wrong_rank_or_size_is_named(
        tmp_path, name, function, arrays, wrong):
    function(**arrays)  # the valid call runs
    for arg, value in arrays.items():
        for kind, bad in (("rank", value[None, None]), ("size", wrong.get(arg))):
            if bad is None:
                continue
            with pytest.raises(ValueError) as info:
                function(**{**arrays, arg: bad})
            assert _names(info.value, arg), (name, arg, kind, str(info.value))


def test_spectrogram_writer_names_its_values(tmp_path):
    path = str(tmp_path / "bad.ldspec")
    with pytest.raises(ValueError, match=r"^values must be T x F \[x P\]"):
        ld.write_spectrogram(path, np.zeros((2, 3, 4, 5), dtype=complex))


def test_check_shapes_names_the_sizes_and_where_they_came_from():
    field = np.zeros((5, 3, 2))
    assert check_shapes(field=(field, "T x F x P"), target=(field[:, :, 0], "T x F"),
                        phi=(np.zeros((3, 2, 2)), "F x P x P")) == {"T": 5, "F": 3, "P": 2}
    with pytest.raises(ValueError, match=re.escape(
            "weights must be T x F with T = 5, F = 3 as in field, got shape (5, 2)")):
        check_shapes(field=(field, "T x F x P"), weights=(field[:, :2, 0], "T x F"))
    with pytest.raises(ValueError, match=re.escape(
            "phi must be F x P x P, got shape (3, 2, 3)")):
        check_shapes(phi=(np.zeros((3, 2, 3)), "F x P x P"))
    # optional trailing axes, and an axis of fixed size
    assert check_shapes(samples=(np.zeros(7), "N [x C]")) == {"N": 7}
    assert check_shapes(samples=(np.zeros((7, 2)), "N [x C]")) == {"N": 7, "C": 2}
    with pytest.raises(ValueError, match=re.escape(
            "spec must be T x 257 [x C], got shape (4, 256)")):
        check_shapes(spec=(np.zeros((4, 256)), "T x 257 [x C]"))
    # every size is at least 1
    with pytest.raises(ValueError, match=re.escape(
            "field must have every size >= 1, got shape (4, 0, 2)")):
        check_shapes(field=(np.zeros((4, 0, 2)), "T x F x P"))


def test_channel_and_value_rules():
    check_channel("ref_mic", 1, 2)
    with pytest.raises(ValueError, match=re.escape(
            "--ref-mic: ref_mic must be < 2, the channel count, got 2")):
        check_channel("ref_mic", 2, 2, "--ref-mic: ")
    with pytest.raises(ValueError, match="^ref_mic must be >= 0, got -1"):
        check_channel("ref_mic", -1, 2)
    assert check_finite("x", [1.0, -2.0]).tolist() == [1.0, -2.0]
    with pytest.raises(ValueError, match="^x must be finite$"):
        check_finite("x", [1.0, complex(0.0, np.nan)])
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^psd must be finite and > 0$"):
            check_finite("psd", [1.0, bad], positive=True)


EMPTY = np.zeros((0, 3), dtype=complex)


@pytest.mark.parametrize("name, call", [
    ("estimates", lambda: ld.psd_floor(EMPTY)),
    ("estimate_q", lambda: ld.pdsacc(EMPTY, EMPTY, EMPTY)),
    ("reference", lambda: ld.fcp(EMPTY, EMPTY, 2)),
    ("field", lambda: ld.wpe_field(np.zeros((0, 3, 2), dtype=complex),
                                   np.ones((0, 3)), 2)),
    ("signal", lambda: ld.analyze(np.zeros(0))),
    ("target_q", lambda: ld.energy_mask(EMPTY)),
    ("source", lambda: ld.render_scene(
        np.zeros(0), [], ld.RoomSpec(num_mics=2, t60_seconds=0.2, rir_len_samples=64),
        None)),
], ids=["psd_floor", "pdsacc", "fcp", "wpe_field", "analyze", "energy_mask",
        "render_scene"])
def test_an_array_with_an_empty_axis_is_named(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must have every size >= 1, "
                                         rf"got shape \(0,"):
        call()
