"""Waveform and phase-aware metrics against closed forms and counting
oracles."""

import math

import numpy as np
import pytest

from lodistort import (
    MetricsReport,
    PipelineSpec,
    TimeSignal,
    analyze,
    energy_mask,
    pdsacc,
    phase_candidates,
    psnr,
    read_wav,
    score_estimate,
    si_sdr,
    sign_flip_probability,
    wrap_phase,
)
from lodistort.cli import main as cli_main
from lodistort._pool import openblas_threads
from lodistort.metrics import (
    ScoreReference,
    _abs_phase_diff,
    phase_report,
    score_against,
)
from lodistort.pipeline import make_estimate

from conftest import build_suite_scene, suite_scene_params


def _pdsacc_oracle(est, tgt, mix, threshold_db=-60.0):
    """Per-bin python recount of the sign-agreement percentage."""
    power = np.abs(tgt) ** 2
    cutoff = power.max() * 10.0 ** (threshold_db / 10.0)
    agree = total = 0
    for t in range(est.shape[0]):
        for f in range(est.shape[1]):
            if power[t, f] < cutoff:
                continue
            dm = math.atan2(mix[t, f].imag, mix[t, f].real)
            de = math.atan2(est[t, f].imag, est[t, f].real) - dm
            dt = math.atan2(tgt[t, f].imag, tgt[t, f].real) - dm
            side_e = (math.pi - (math.pi - de) % (2.0 * math.pi)) >= 0.0
            side_t = (math.pi - (math.pi - dt) % (2.0 * math.pi)) >= 0.0
            total += 1
            agree += side_e == side_t
    return 100.0 * agree / total


# --- si_sdr ---


def test_si_sdr_scaled_copy_is_perfect():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(4000)
    assert si_sdr(2.7 * ref, ref) == math.inf
    assert si_sdr(-3.0 * ref, ref) == math.inf
    assert si_sdr(ref.copy(), ref) == math.inf


def test_si_sdr_orthogonal_estimate():
    assert si_sdr(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == -math.inf


def test_si_sdr_all_zero_estimate_is_minus_inf():
    # the projection test must win over the zero error energy of 0 - 0
    ref = np.random.default_rng(11).standard_normal(500)
    assert si_sdr(np.zeros(500), ref) == -math.inf


def test_si_sdr_scale_invariance():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal(3000)
    est = ref + 0.3 * rng.standard_normal(3000)
    base = si_sdr(est, ref)
    for c in [2.0, -1.0, 1e-7, 3.14e5]:
        assert abs(si_sdr(c * est, ref) - base) < 1e-9, c


def test_si_sdr_orthogonal_decomposition_formula():
    rng = np.random.default_rng(2)
    ref = rng.standard_normal(5000)
    noise = rng.standard_normal(5000)
    noise -= ref * np.dot(noise, ref) / np.dot(ref, ref)
    got = si_sdr(ref + noise, ref)
    want = 10.0 * np.log10(np.dot(ref, ref) / np.dot(noise, noise))
    assert abs(got - want) < 1e-10


def test_si_sdr_random_pair_formula_oracle():
    rng = np.random.default_rng(3)
    ref = rng.standard_normal(2048)
    est = rng.standard_normal(2048)
    alpha = np.dot(est, ref) / np.dot(ref, ref)
    want = 10.0 * np.log10(
        np.sum((alpha * ref) ** 2) / np.sum((alpha * ref - est) ** 2)
    )
    assert abs(si_sdr(est, ref) - want) < 1e-10


def test_si_sdr_accepts_time_signals():
    rng = np.random.default_rng(4)
    ref = rng.standard_normal(1000)
    est = ref + 0.1 * rng.standard_normal(1000)
    via_arrays = si_sdr(est, ref)
    via_signals = si_sdr(TimeSignal(est, 16000), TimeSignal(ref, 16000))
    assert via_signals == via_arrays


def test_si_sdr_validation():
    ref = np.ones(10)
    with pytest.raises(ValueError):
        si_sdr(np.ones(11), ref)
    with pytest.raises(ValueError):
        si_sdr(ref, np.zeros(10))
    with pytest.raises(ValueError):
        si_sdr(TimeSignal(ref, 16000), TimeSignal(ref, 8000))
    with pytest.raises(ValueError):
        si_sdr(TimeSignal(np.ones((10, 2)), 16000), TimeSignal(ref, 16000))
    with pytest.raises(ValueError):
        si_sdr(np.ones((5, 2)), np.ones((5, 2)))


def test_si_sdr_ignores_blas_thread_count():
    # the same waves score identically whatever OpenBLAS's thread count
    control = openblas_threads()
    if control is None:
        pytest.skip("numpy's OpenBLAS thread count is not reachable")
    get_threads, set_threads = control
    rng = np.random.default_rng(21)
    pairs = [(rng.standard_normal(64000), rng.standard_normal(64000))
             for _ in range(20)]
    saved = get_threads()
    scores = []
    try:
        for threads in (1, 2):
            set_threads(threads)
            scores.append([si_sdr(ref + 0.3 * noise, ref) for ref, noise in pairs])
    finally:
        set_threads(saved)
    assert scores[0] == scores[1]


# --- energy_mask ---


def test_energy_mask_thresholding():
    mag = np.array([[1.0, 10.0 ** (-2.995), 10.0 ** (-3.005), 1e-4, 0.0]])
    mask = energy_mask(mag)  # default -60 dB on power
    assert mask.dtype == bool and mask.shape == mag.shape
    assert list(mask[0]) == [True, True, False, False, False]


def test_energy_mask_custom_threshold_and_errors():
    mag = np.array([[1.0, 0.5, 0.05]])
    assert list(energy_mask(mag, threshold_db=-10.0)[0]) == [True, True, False]
    with pytest.raises(ValueError):
        energy_mask(np.zeros((3, 3)))


# --- pdsacc ---


def test_pdsacc_perfect_estimate():
    rng = np.random.default_rng(5)
    tgt = rng.standard_normal((30, 20)) + 1j * rng.standard_normal((30, 20))
    mix = tgt + rng.standard_normal((30, 20)) + 1j * rng.standard_normal((30, 20))
    assert pdsacc(tgt, tgt, mix) == 100.0


def test_pdsacc_matches_counting_oracle():
    rng = np.random.default_rng(6)
    shape = (40, 30)
    scale = 10.0 ** rng.uniform(-5, 0, shape)  # exercise the energy mask too
    tgt = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    est = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mix = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert pdsacc(est, tgt, mix) == pytest.approx(
        _pdsacc_oracle(est, tgt, mix), abs=1e-12
    )


def test_pdsacc_mixture_phase_estimate():
    # estimate carrying exactly the mixture phase claims the nonnegative side
    # everywhere, so accuracy is the masked share of truly nonnegative diffs
    rng = np.random.default_rng(7)
    shape = (25, 25)
    tgt = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mix = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    est = 2.0 * mix
    assert pdsacc(est, tgt, mix) == pytest.approx(
        _pdsacc_oracle(est, tgt, mix), abs=1e-12
    )


def test_pdsacc_random_phases_score_half():
    rng = np.random.default_rng(8)
    shape = (600, 257)  # > 1e5 bins, all inside the mask
    tgt = rng.uniform(0.5, 1.0, shape) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, shape)
    )
    mix = rng.uniform(0.5, 1.0, shape) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, shape)
    )
    est = np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    got = pdsacc(est, tgt, mix)
    assert abs(got - 50.0) < 1.0


def test_pdsacc_validation():
    good = np.ones((3, 3), dtype=complex)
    with pytest.raises(ValueError):
        pdsacc(good, np.ones((3, 4), dtype=complex), good)
    with pytest.raises(ValueError):
        pdsacc(good, good, good, threshold_db=10.0)  # mask selects nothing


# --- psnr ---


def test_psnr_exact_phase_is_infinite():
    tgt = np.array([[1.0 + 0.0j, 2.5 + 0.0j], [0.25 + 0.0j, 3.0 + 0.0j]])
    assert psnr(np.zeros((2, 2)), tgt) == math.inf


def test_psnr_near_perfect_on_random_target():
    rng = np.random.default_rng(9)
    tgt = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    # reconstructing |S| e^{j angle(S)} only matches S to rounding, so the
    # score is astronomically high rather than infinite
    assert psnr(np.angle(tgt), tgt) > 250.0


def test_psnr_antipodal_phase():
    rng = np.random.default_rng(10)
    tgt = rng.standard_normal((15, 33)) + 1j * rng.standard_normal((15, 33))
    got = psnr(np.angle(tgt) + np.pi, tgt)
    assert abs(got - 10.0 * math.log10(0.25)) < 1e-9


def test_psnr_cosine_dual_form():
    rng = np.random.default_rng(11)
    tgt = rng.standard_normal((30, 40)) + 1j * rng.standard_normal((30, 40))
    phase = rng.uniform(-np.pi, np.pi, (30, 40))
    power = np.abs(tgt) ** 2
    denom = np.sum(2.0 * power * (1.0 - np.cos(phase - np.angle(tgt))))
    want = 10.0 * np.log10(np.sum(power) / denom)
    assert abs(psnr(phase, tgt) - want) < 1e-9


def test_psnr_ignores_estimate_magnitude():
    rng = np.random.default_rng(12)
    tgt = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    est = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    assert psnr(np.angle(est), tgt) == psnr(np.angle(2.0 * est), tgt)


def test_psnr_validation():
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 3)), np.ones((2, 2), dtype=complex))


# --- bundling ---


def test_score_estimate_bundles_all_three():
    rng = np.random.default_rng(13)
    shape = (20, 20)
    tgt = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    est = tgt + 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    mix = tgt + rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    wave_t = rng.standard_normal(500)
    wave_e = wave_t + 0.01 * rng.standard_normal(500)
    report = score_estimate(est, tgt, mix, wave_e, wave_t)
    assert report.si_sdr_db == si_sdr(wave_e, wave_t)
    assert report.pdsacc_percent == pdsacc(est, tgt, mix)
    # the bundle scores the estimate's phasor est/|est|, psnr the rebuilt
    # exp(1j*angle(est)): equal up to rounding
    assert report.psnr_db == pytest.approx(psnr(np.angle(est), tgt), rel=1e-12)
    no_wave = score_estimate(est, tgt, mix)
    assert math.isnan(no_wave.si_sdr_db)


def test_metrics_report_json_sentinels():
    report = MetricsReport(math.inf, 75.0, -math.inf)
    blob = report.to_json_dict()
    assert blob == {
        "siSdrDb": "inf",
        "pdsAccPercent": 75.0,
        "pSnrDb": "-inf",
    }
    finite = MetricsReport(1.5, 50.0, -2.25).to_json_dict()
    assert finite["siSdrDb"] == 1.5 and finite["pSnrDb"] == -2.25


# --- phase report ---


def _parent_cli_statistics(mix_q, tgt_q, est_q):
    """analyze-phase's statistics as its command computed them before
    phase_report: the law of cosines over every bin for |theta|, and a second
    |theta| from two angles for the forecast.  -> (statistics, that clamped
    angle-form |theta| on the masked bins)"""
    candidates = phase_candidates(mix_q, np.abs(tgt_q), np.abs(mix_q - tgt_q))
    residual_mag = np.abs(est_q - tgt_q)
    reference = ScoreReference(tgt_q, mix_q)
    mask, _, true_side = reference.phase_sides
    report = score_against(reference, est_q)
    theta = np.abs(wrap_phase(np.angle(tgt_q) - np.angle(mix_q)))
    theta = np.minimum(theta, np.nextafter(np.pi, 0.0))
    predicted = sign_flip_probability(np.abs(tgt_q), residual_mag, theta)
    accuracy = report.pdsacc_percent
    stats = {
        "numMaskedBins": int(mask.sum()),
        "degenerateFraction": float(np.mean(candidates.degenerate[mask])),
        "meanAbsPhaseDiff": float(np.mean(candidates.abs_diff[mask])),
        "signPositiveFraction": float(np.mean(true_side)),
        "meanPredictedFlipProbability": float(np.mean(predicted[mask])),
        "empiricalFlipRate": float(1.0 - accuracy / 100.0),
        "pdsAccPercent": accuracy,
        "pSnrDb": report.psnr_db,
    }
    return stats, theta[mask]


def _cli_test_scene(tmp_path):
    # the scene test_cli.py simulates for its analyze-phase tests
    out = str(tmp_path / "scene")
    assert cli_main(["simulate", "--mics", "2", "--t60", "0.2", "--snr-db", "0",
                     "--seed", "7", "--out", out]) == 0
    return (read_wav(f"{out}/mixture.wav", 16000),
            read_wav(f"{out}/direct.wav", 16000))


@pytest.mark.parametrize("source", ["cli", "suite"])
def test_phase_report_matches_parent_cli_computation(source, tmp_path, capsys):
    if source == "cli":
        mixture, target = _cli_test_scene(tmp_path)
        capsys.readouterr()
    else:
        scene = build_suite_scene(*suite_scene_params()[0])
        mixture, target = scene.mixture, scene.direct_path
    mix_spec, tgt_spec = analyze(mixture), analyze(target)
    mix_q, tgt_q = mix_spec[:, :, 0], tgt_spec[:, :, 0]
    reference = ScoreReference(tgt_q, mix_q)
    for err_db in (20.0, 0.0):
        spec = PipelineSpec("wpe", est_err_snr_db=err_db, seed=3)
        est_q = make_estimate(spec, mix_spec, tgt_spec).channel(0)
        want, angle_theta = _parent_cli_statistics(mix_q, tgt_q, est_q)
        got = phase_report(reference, est_q)
        assert list(got) == list(want)
        for key in ("numMaskedBins", "degenerateFraction", "signPositiveFraction",
                    "empiricalFlipRate", "pdsAccPercent", "pSnrDb"):
            assert got[key] == want[key], key
        assert abs(got["meanPredictedFlipProbability"]
                   - want["meanPredictedFlipProbability"]) <= 1e-12
        # the declared change: |theta| from products, not the law of cosines
        assert abs(got["meanAbsPhaseDiff"] - want["meanAbsPhaseDiff"]) <= 1e-9
        mask = reference.phase_sides[0]
        theta = _abs_phase_diff(tgt_q[mask], mix_q[mask])
        assert np.max(np.abs(theta - angle_theta)) <= 1e-14
        assert got["meanAbsPhaseDiff"] == float(np.mean(theta))


def test_phase_report_degenerate_bins_read_the_zero_mixture_phasor():
    # a zero mixture bin takes the phase np.angle gives it, as in PDSAcc
    tgt = np.array([[1.0 + 1.0j, -1.0 + 1.0j, 2.0 - 0.5j]])
    mix = np.array([[0.0 + 0.0j, complex(-0.0, 0.0), 1.0 + 1.0j]])
    report = phase_report(ScoreReference(tgt, mix), tgt)
    assert report["numMaskedBins"] == 3
    assert report["degenerateFraction"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    theta = _abs_phase_diff(tgt[0], mix[0])
    want = np.abs(wrap_phase(np.angle(tgt[0]) - np.angle(mix[0])))
    assert np.max(np.abs(theta - want)) <= 1e-15
    assert theta[1] == pytest.approx(np.pi / 4.0, abs=1e-15)  # Y = -0 reads pi
    # an exact estimate has no residual and never flips
    assert report["meanPredictedFlipProbability"] == 0.0
    assert report["empiricalFlipRate"] == 0.0
