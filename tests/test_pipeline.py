"""Named pipelines: the name rule, the default set, bit-identical manual
composition, determinism, and suite-level quality orderings."""

import math
import os
import re

import numpy as np
import pytest

from lodistort import (
    PIPELINE_NAMES,
    PipelineSpec,
    RoomSpec,
    TimeSignal,
    analyze,
    apply_beamformer,
    compute_mask,
    default_taps,
    fcp,
    list_pipelines,
    masked_covariances,
    mvdr,
    oracle_estimate,
    pipeline,
    psd_floor,
    read_spectrogram,
    render_scene,
    run_pipeline,
    steering_vector,
    synth_noise,
    synth_speech_like,
    weighted_covariance,
    wmpdr,
    wpe,
    wpe_field,
    write_feature_bundle,
    write_spectrogram,
)

EXPECTED_STAGES = {
    "wpe": ["estimate", "wpe"],
    "fcp": ["estimate", "fcp"],
    "fcp_wpe": ["estimate", "wpe", "fcp_wpe"],
    "mvdr": ["estimate", "mvdr"],
    "mmvdr": ["estimate", "mmvdr"],
    "mmvdr_wpe": ["estimate", "wpe", "mmvdr_wpe"],
    "mwmpdr_wpe": ["estimate", "wpe", "mwmpdr_wpe"],
    "mcwf_wpe": ["estimate", "wpe", "mcwf_wpe"],
    "fcp_mwmpdr_wpe": ["estimate", "wpe", "mwmpdr_wpe", "fcp_mwmpdr_wpe"],
    "gev": ["estimate", "gev"],
    "mcwf": ["estimate", "mcwf"],
}

# the default set, in order, with each name's channel use
DEFAULT_CHANNELS = {
    "wpe": "any", "fcp": "mono", "fcp_wpe": "mono", "mvdr": "multi",
    "mmvdr": "multi", "mmvdr_wpe": "multi", "mwmpdr_wpe": "multi",
    "mcwf_wpe": "multi", "fcp_mwmpdr_wpe": "multi", "gev": "multi", "mcwf": "multi",
}

BEAMFORMERS = ("mvdr", "mmvdr", "mwmpdr", "mcwf", "gev")
NAME_RULE = "[fcp_][mvdr_|mmvdr_|mwmpdr_|mcwf_|gev_][wpe]"
# every chain the rule spells: an optional fcp, at most one beamformer, an
# optional wpe, at least one stage
CHAINS = [name for name in ("_".join(filter(None, (f, b, w)))
                            for f in ("fcp", "") for b in (*BEAMFORMERS, "")
                            for w in ("wpe", "")) if name]


def chain_stages(name):
    # "estimate", then each prefix of the chain, named newest stage first
    stages = name.split("_")[::-1]
    return ["estimate"] + ["_".join(stages[:k][::-1]) for k in range(1, len(stages) + 1)]


@pytest.fixture(scope="module")
def small_scene():
    room = RoomSpec(num_mics=2, t60_seconds=0.3, rir_len_samples=2048,
                    direct_delay_samples=(8, 11), seed=3)
    return render_scene(
        synth_speech_like(16000, seed=[3, 1]),
        [synth_noise(16000, seed=[3, 2])],
        room,
        snr_db=0.0,
    )


def test_catalog_contents():
    listed = list_pipelines()
    assert PIPELINE_NAMES == tuple(DEFAULT_CHANNELS)
    assert list(listed) == list(PIPELINE_NAMES)
    assert listed["fcp_mwmpdr_wpe"]["stages"] == ["estimator", "wpe", "mwmpdr", "fcp"]
    for name, entry in listed.items():
        assert entry["stages"] == ["estimator", *name.split("_")[::-1]], name
        assert entry["channels"] == DEFAULT_CHANNELS[name], name
        assert entry["description"]
        assert chain_stages(name) == EXPECTED_STAGES[name]


def test_every_chain_the_rule_spells_runs(small_scene):
    assert len(CHAINS) == len(set(CHAINS)) == 23
    assert set(PIPELINE_NAMES) < set(CHAINS)
    for name in CHAINS:
        result = run_pipeline(small_scene, PipelineSpec(name, taps=6))
        assert list(result.stages) == chain_stages(name), name
        assert result.final is result.stages[name]
        assert set(result.metrics) == set(result.stages) | {"mixture"}
        assert all(np.all(np.isfinite(out)) for out in result.stages.values()), name


def test_one_channel_runs_every_chain_without_a_beamformer():
    mono = render_scene(
        synth_speech_like(16000, seed=[4, 1]),
        [synth_noise(16000, seed=[4, 2])],
        RoomSpec(num_mics=1, t60_seconds=0.3, rir_len_samples=2048, seed=4),
        snr_db=0.0,
    )
    for name in CHAINS:
        spec = PipelineSpec(name, taps=6)
        if set(name.split("_")) & set(BEAMFORMERS):
            with pytest.raises(ValueError, match="needs at least 2 channels"):
                run_pipeline(mono, spec)
        else:
            assert list(run_pipeline(mono, spec).stages) == chain_stages(name)


@pytest.mark.parametrize("name", [
    "wpe_mvdr", "mvdr_mcwf", "wpe_wpe", "fcp_fcp", "", "fcp__wpe", "_wpe",
    "mono", "wpe_mono", "MVDR",
])
def test_malformed_names_are_refused_by_the_rule(name):
    with pytest.raises(ValueError, match="unknown pipeline") as caught:
        PipelineSpec(name)
    assert NAME_RULE in str(caught.value)


def test_every_name_constructs_a_spec():
    for name in PIPELINE_NAMES:
        spec = PipelineSpec(name)
        assert spec.name == name
        params = spec.params_dict()
        assert params["estimator"] == "oracleDirect"
        assert set(params) == {
            "estimator", "estErrSnrDb", "refMic", "taps", "tapsFcp", "delay",
            "epsilon", "epsilonFcp", "loading", "seed",
        }


def test_default_taps_table_and_nearest_rule():
    assert [default_taps(p) for p in (1, 2, 6, 8)] == [37, 30, 10, 8]
    assert default_taps(3) == 30   # nearest tabulated count is 2
    assert default_taps(4) == 10   # tie between 2 and 6 goes to the larger
    assert default_taps(7) == 8    # tie between 6 and 8 goes to the larger
    assert default_taps(100) == 8
    with pytest.raises(ValueError):
        default_taps(0)


def test_stage_keys_and_reports(small_scene):
    for name in PIPELINE_NAMES:
        result = run_pipeline(small_scene, PipelineSpec(name, taps=6))
        assert list(result.stages) == EXPECTED_STAGES[name], name
        assert set(result.waves) == set(result.stages)
        assert set(result.metrics) == set(result.stages) | {"mixture"}
        assert result.final is result.stages[name]
        assert result.final_wave is result.waves[name]
        t, f, p = result.mixture_spectrogram.shape
        assert (f, p) == (257, 2)
        for stage_spec in result.stages.values():
            assert stage_spec.shape == (t, f)
        for wave in result.waves.values():
            assert wave.num_samples == small_scene.mixture.num_samples


# The manual-composition tests run at both reference mics: at q = 1 a
# pipeline that confused a local channel index with q would differ.
REF_MICS = (0, 1)


def test_wpe_pipeline_matches_manual_composition(small_scene):
    for q in REF_MICS:
        taps = 6
        result = run_pipeline(small_scene, PipelineSpec("wpe", taps=taps, ref_mic=q))
        mix_spec = analyze(small_scene.mixture)
        tgt_spec = analyze(small_scene.direct_path)
        est_q = oracle_estimate(mix_spec, tgt_spec, "oracleDirect").channel(q)
        lam = psd_floor(est_q, 1e-5)
        _, manual = wpe(mix_spec, lam, taps, 3, q, 1e-8)
        assert np.array_equal(result.stages["estimate"], est_q), q
        assert np.array_equal(result.stages["wpe"], manual), q


def test_mwmpdr_wpe_pipeline_matches_manual_composition(small_scene):
    for q in REF_MICS:
        taps = 6
        result = run_pipeline(
            small_scene, PipelineSpec("mwmpdr_wpe", taps=taps, ref_mic=q)
        )
        mix_spec = analyze(small_scene.mixture)
        tgt_spec = analyze(small_scene.direct_path)
        est_q = oracle_estimate(mix_spec, tgt_spec, "oracleDirect").channel(q)
        lam = psd_floor(est_q, 1e-5)
        _, wfield = wpe_field(mix_spec, lam, taps, 3, 1e-8)
        mask = compute_mask(est_q, wfield[:, :, q])
        cov = masked_covariances(wfield, mask)
        steering = steering_vector(cov.phi_s, q)
        phi_y_prime = weighted_covariance(wfield, lam)
        weights = wmpdr(phi_y_prime, steering, q, 1e-8)
        manual = apply_beamformer(weights, wfield)
        assert np.array_equal(result.stages["wpe"], wfield[:, :, q]), q
        assert np.array_equal(result.stages["mwmpdr_wpe"], manual), q


def test_fcp_and_mmvdr_match_manual_composition(small_scene):
    for q in REF_MICS:
        mix_spec = analyze(small_scene.mixture)
        tgt_spec = analyze(small_scene.direct_path)
        est_q = oracle_estimate(mix_spec, tgt_spec, "oracleDirect").channel(q)
        mix_q = mix_spec[:, :, q]

        got_fcp = run_pipeline(small_scene, PipelineSpec("fcp", ref_mic=q)).final
        _, manual_fcp = fcp(mix_q, est_q, 40, 1e-3, 1e-8)
        assert np.array_equal(got_fcp, manual_fcp), q

        got_mmvdr = run_pipeline(small_scene, PipelineSpec("mmvdr", ref_mic=q)).final
        mask = compute_mask(est_q, mix_q)
        cov = masked_covariances(mix_spec, mask)
        cov.steering = steering_vector(cov.phi_s, q)
        manual_mmvdr = apply_beamformer(mvdr(cov, q, 1e-8), mix_spec)
        assert np.array_equal(got_mmvdr, manual_mmvdr), q


def test_fcp_wpe_pipeline_matches_manual_composition(small_scene):
    # a mono pipeline dereverberates channel q alone, with the one-channel order
    for q in REF_MICS:
        result = run_pipeline(small_scene, PipelineSpec("fcp_wpe", ref_mic=q))
        mix_spec = analyze(small_scene.mixture)
        tgt_spec = analyze(small_scene.direct_path)
        est_q = oracle_estimate(mix_spec, tgt_spec, "oracleDirect").channel(q)
        lam = psd_floor(est_q, 1e-5)
        _, wpe_q = wpe(mix_spec[:, :, q:q + 1], lam, default_taps(1), 3, 0, 1e-8)
        _, manual = fcp(wpe_q, est_q, 40, 1e-3, 1e-8)
        assert np.array_equal(result.stages["wpe"], wpe_q), q
        assert np.array_equal(result.stages["fcp_wpe"], manual), q


def test_run_is_deterministic(small_scene):
    spec = PipelineSpec("fcp_mwmpdr_wpe", taps=6)
    a = run_pipeline(small_scene, spec)
    b = run_pipeline(small_scene, spec)
    for key in a.stages:
        assert np.array_equal(a.stages[key], b.stages[key]), key
        assert np.array_equal(a.waves[key].samples, b.waves[key].samples), key
    for key in a.metrics:
        assert a.metrics[key].si_sdr_db == b.metrics[key].si_sdr_db
        assert a.metrics[key].psnr_db == b.metrics[key].psnr_db


def test_corrupted_estimator_is_seeded(small_scene):
    spec5 = PipelineSpec("mmvdr", est_err_snr_db=30.0, seed=5)
    a = run_pipeline(small_scene, spec5)
    b = run_pipeline(small_scene, spec5)
    c = run_pipeline(small_scene, PipelineSpec("mmvdr", est_err_snr_db=30.0, seed=6))
    clean = run_pipeline(small_scene, PipelineSpec("mmvdr"))
    assert np.array_equal(a.final, b.final)
    assert not np.array_equal(a.final, c.final)
    assert not np.array_equal(a.final, clean.final)


def test_external_estimator_roundtrip(small_scene, tmp_path):
    q = 0
    mix_spec = analyze(small_scene.mixture)
    tgt_spec = analyze(small_scene.direct_path)
    est_q = oracle_estimate(mix_spec, tgt_spec, "oracleDirect").channel(q)
    path = str(tmp_path / "estimate.ldspec")
    write_spectrogram(path, est_q)
    spec = PipelineSpec("fcp", estimator="external", estimate_path=path)
    got = run_pipeline(small_scene, spec).final
    _, manual = fcp(mix_spec[:, :, q], est_q, 40, 1e-3, 1e-8)
    assert np.array_equal(got, manual)
    # a multichannel chain that reads only channel q runs on it, as on the
    # oracle it was written from
    chain = run_pipeline(small_scene, PipelineSpec(
        "fcp_mwmpdr_wpe", estimator="external", estimate_path=path))
    oracle = run_pipeline(small_scene, PipelineSpec("fcp_mwmpdr_wpe"))
    for name in EXPECTED_STAGES["fcp_mwmpdr_wpe"]:
        assert np.array_equal(chain.stages[name], oracle.stages[name]), name
    # a one-channel estimate cannot give the multichannel signal covariances
    for name in ("gev", "mvdr"):
        with pytest.raises(ValueError, match="estimate"):
            run_pipeline(small_scene, PipelineSpec(name, estimator="external",
                                                   estimate_path=path))


def test_mixture_only_run_without_metrics(small_scene, tmp_path):
    path = str(tmp_path / "estimate.ldspec")
    mix_spec = analyze(small_scene.mixture)
    write_spectrogram(path, mix_spec[:, :, 0])
    spec = PipelineSpec("wpe", estimator="external", estimate_path=path, taps=6)
    result = run_pipeline(small_scene.mixture, spec)
    assert result.metrics == {}
    assert set(result.waves) == {"estimate", "wpe"}


def test_feature_bundle_roundtrip(small_scene, tmp_path):
    result = run_pipeline(small_scene, PipelineSpec("mwmpdr_wpe", taps=6))
    out = str(tmp_path / "features")
    paths = write_feature_bundle(result, out)
    assert set(paths) == {"mixture", "estimate", "wpe", "mwmpdr_wpe"}
    for name, path in paths.items():
        assert os.path.exists(path), name
    assert np.array_equal(
        read_spectrogram(paths["mixture"]), result.mixture_spectrogram
    )
    # single-stage estimates come back with the reader's channel axis
    assert np.array_equal(
        read_spectrogram(paths["mwmpdr_wpe"])[:, :, 0], result.stages["mwmpdr_wpe"]
    )


def test_validation_errors(small_scene):
    with pytest.raises(ValueError, match="unknown pipeline"):
        run_pipeline(small_scene, PipelineSpec("mvdr_wpe_x"))
    with pytest.raises(ValueError, match="ref_mic"):
        run_pipeline(small_scene, PipelineSpec("wpe", ref_mic=5))
    # the lower bound needs no scene, so the spec itself rejects it
    with pytest.raises(ValueError, match="ref_mic must be >= 0, got -3"):
        PipelineSpec("wpe", ref_mic=-3)
    # so is a negative seed, whether or not the estimate is corrupted
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        PipelineSpec("wpe", seed=-1)
    with pytest.raises(ValueError, match="needs the target"):
        run_pipeline(small_scene.mixture, PipelineSpec("wpe"))
    with pytest.raises(ValueError, match="estimate_path"):
        run_pipeline(small_scene, PipelineSpec("wpe", estimator="external"))
    with pytest.raises(ValueError, match="unknown estimator"):
        run_pipeline(small_scene, PipelineSpec("wpe", estimator="psychic"))
    with pytest.raises(TypeError):
        run_pipeline(np.zeros(100), PipelineSpec("wpe"))
    mono = render_scene(
        synth_noise(4000, seed=1),
        [synth_noise(4000, seed=2)],
        RoomSpec(num_mics=1, t60_seconds=0.0, rir_len_samples=64, seed=0),
        snr_db=0.0,
    )
    with pytest.raises(ValueError, match="at least 2 channels"):
        run_pipeline(mono, PipelineSpec("mvdr"))


@pytest.mark.parametrize("extra, named", [
    (1, "target must be N x C with N = 32001, C = 2 as in mixture, got shape (32002, 2)"),
    (1000, "target must be N x C with N = 32001, C = 2 as in mixture, got shape (33001, 2)"),
    (None, "estimator 'oracleDirect' needs the target signal"),
], ids=["same-frames", "more-frames", "no-target"])
def test_a_missing_or_misfit_target_is_refused_before_any_work(monkeypatch, extra,
                                                               named):
    # one sample more keeps the 257 frames of the mixture, 1000 more do not;
    # either way, and without a target, the error comes before a signal is
    # analyzed
    def no_analysis(signal):
        raise AssertionError("a signal was analyzed")

    monkeypatch.setattr(pipeline, "analyze", no_analysis)
    rng = np.random.default_rng(4)
    mixture = TimeSignal(rng.standard_normal((32001, 2)))
    target = extra and TimeSignal(rng.standard_normal((32001 + extra, 2)))
    with pytest.raises(ValueError, match=re.escape(named)):
        run_pipeline(mixture, PipelineSpec("fcp_mwmpdr_wpe"), target)


@pytest.mark.parametrize("kwargs, named", [
    ({"estimator": "psychic"}, "unknown estimator 'psychic'"),
    ({"estimator": "external"}, "estimate_path"),
    ({"estimate_path": "estimate.ldspec"}, "estimate_path"),
], ids=["unknown", "external-without-path", "path-with-oracle"])
def test_spec_checks_its_estimator_when_built(kwargs, named):
    # before any signal is analyzed, and the path is not read for an oracle
    with pytest.raises(ValueError, match=re.escape(named)):
        PipelineSpec("wpe", **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"epsilon": float("nan")},
    {"epsilon": 0.0},
    {"epsilon": math.inf},
    {"epsilon_fcp": -1e-3},
    {"epsilon_fcp": float("nan")},
    {"loading": -1.0},
    {"loading": float("nan")},
    {"loading": math.inf},
    {"est_err_snr_db": float("nan")},
    {"est_err_snr_db": -math.inf},
    {"taps": 0},
    {"taps_fcp": 0},
    {"delay": 0},
    {"seed": float("nan")},
    {"delay": math.inf},
    {"ref_mic": 0.5},
    {"taps": True},
    {"delay": "5"},  # shown with its quotes
])
def test_spec_rejects_invalid_parameters(kwargs):
    (name, value), = kwargs.items()
    with pytest.raises(ValueError, match=rf"^{name} must .*, got {re.escape(repr(value))}$"):
        PipelineSpec("fcp_mwmpdr_wpe", **kwargs)


def test_spec_accepts_boundary_parameters():
    # unloaded solves and one-frame orders stay valid
    PipelineSpec("wpe", loading=0.0, taps=1, taps_fcp=1, delay=1)


def test_all_zero_mixture_scores_minus_inf(small_scene):
    silent = TimeSignal(np.zeros_like(small_scene.mixture.samples))
    result = run_pipeline(silent, PipelineSpec("gev"), target=small_scene.direct_path)
    assert result.metrics["mixture"].si_sdr_db == -math.inf
    assert result.metrics["gev"].si_sdr_db == -math.inf


def test_suite_mean_orderings(scene_suite):
    # dataset-level trends on the fixed 20-scene suite, zero slack
    si = {name: scene_suite[name]["si"] for name in PIPELINE_NAMES}
    assert si["mmvdr_wpe"] >= si["mmvdr"]
    assert si["fcp_mwmpdr_wpe"] >= si["mwmpdr_wpe"] >= si["wpe"]


def test_every_pipeline_beats_the_mixture_on_suite_means(scene_suite):
    mix_si = scene_suite["mixture"]["si"]
    mix_psnr = scene_suite["mixture"]["psnr"]
    for name in PIPELINE_NAMES:
        assert scene_suite[name]["si"] > mix_si, name
        assert scene_suite[name]["psnr"] > mix_psnr, name
