"""Command-line front end: outputs, JSON schemas, and the exit-code
contract (0 ok / 2 usage / 3 file / 4 numerical)."""

import dataclasses
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import warnings
import wave

import numpy as np
import pytest

import lodistort
from lodistort import (
    ORACLE_KINDS,
    RoomSpec,
    TimeSignal,
    analyze,
    corrupt_estimate,
    load_external_estimate,
    oracle_estimate,
    read_wav,
    score_estimate,
    write_spectrogram,
    write_wav,
)
from lodistort import cli
from lodistort.cli import build_parser, main
from lodistort.fsio import camel, json_text
from lodistort.metrics import ScoreReference, phase_report


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def scene_dir(tmp_path, capsys):
    out = str(tmp_path / "scene")
    rc, _, _ = run_cli(capsys, "simulate", "--mics", "2", "--t60", "0.2",
                       "--snr-db", "0", "--seed", "7", "--out", out)
    assert rc == 0
    return out


def test_list_pipelines_json(capsys, tmp_path):
    out_path = str(tmp_path / "catalog.json")
    rc, out, _ = run_cli(capsys, "list-pipelines", "--out", out_path)
    assert rc == 0
    payload = json.loads(out)
    assert payload["schemaVersion"] == 1
    assert len(payload["pipelines"]) == 11
    assert payload["pipelines"]["fcp_mwmpdr_wpe"]["stages"] == [
        "estimator", "wpe", "mwmpdr", "fcp",
    ]
    with open(out_path) as handle:
        assert json.load(handle) == payload


def test_simulate_outputs(scene_dir):
    names = sorted(os.listdir(scene_dir))
    assert names == ["direct.wav", "manifest.json", "mixture.wav",
                     "noise.wav", "reverb.wav"]
    with open(os.path.join(scene_dir, "manifest.json")) as handle:
        manifest = json.load(handle)
    assert manifest["schemaVersion"] == 1
    assert manifest["sampleRateHz"] == 16000
    assert manifest["numMics"] == 2
    assert manifest["t60Seconds"] == 0.2
    assert manifest["snrDb"] == 0.0
    assert manifest["directDelaySamples"] == [8, 9]
    assert manifest["files"]["mixture"] == "mixture.wav"
    mixture = read_wav(os.path.join(scene_dir, "mixture.wav"))
    assert mixture.samples.shape == (16000, 2)
    # components recombine into the mixture up to WAV quantization
    parts = sum(
        read_wav(os.path.join(scene_dir, name)).samples
        for name in ("direct.wav", "reverb.wav", "noise.wav")
    )
    assert np.max(np.abs(parts - mixture.samples)) < 1e-5


def test_simulate_is_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for out in (a, b):
        rc, _, _ = run_cli(capsys, "simulate", "--mics", "2", "--t60", "0.4",
                           "--snr-db", "-3", "--seed", "11", "--out", out)
        assert rc == 0
    for name in os.listdir(a):
        with open(os.path.join(a, name), "rb") as fa, \
                open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


@pytest.mark.parametrize("flags", [
    (),  # the room's defaults: seed, tail gain and direct delay are RoomSpec's
    ("--seed", "4", "--tail-gain", "0.1", "--direct-delay", "3", "--rir-len", "900"),
])
def test_scene_manifest_rebuilds_its_room(tmp_path, capsys, monkeypatch, flags):
    # every RoomSpec field is in the manifest under its camelCase key, and
    # those entries give back the room the scene was rendered in
    rooms = []

    def recording(source, noises, room, snr_db):
        rooms.append(room)
        return lodistort.render_scene(source, noises, room, snr_db)

    monkeypatch.setattr(lodistort.cli, "render_scene", recording)
    out = str(tmp_path / "scene")
    rc, _, err = run_cli(capsys, "simulate", "--mics", "3", "--t60", "0.2",
                         "--snr-db", "5", "--duration", "0.25", *flags, "--out", out)
    assert rc == 0, err
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    room = {field.name: manifest[camel(field.name)]
            for field in dataclasses.fields(RoomSpec)}
    assert RoomSpec(**room) == rooms[0]
    if not flags:
        assert (rooms[0].seed, rooms[0].tail_gain) == (RoomSpec.seed, RoomSpec.tail_gain)
        assert rooms[0].direct_delay_samples == tuple(
            RoomSpec.direct_delay_samples + m for m in range(3))


def test_enhance_scene(scene_dir, tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    rc, out, _ = run_cli(capsys, "enhance", "--scene", scene_dir,
                         "--pipeline", "mwmpdr_wpe", "--taps", "6",
                         "--out", run_dir)
    assert rc == 0
    assert "mwmpdr_wpe" in out
    entries = sorted(os.listdir(run_dir))
    assert entries == ["estimate.wav", "features", "metrics.json",
                       "mwmpdr_wpe.wav", "wpe.wav"]
    assert sorted(os.listdir(os.path.join(run_dir, "features"))) == [
        "estimate.ldspec", "mixture.ldspec", "mwmpdr_wpe.ldspec", "wpe.ldspec",
    ]
    with open(os.path.join(run_dir, "metrics.json")) as handle:
        report = json.load(handle)
    assert report["schemaVersion"] == 1
    assert report["pipelineName"] == "mwmpdr_wpe"
    assert report["params"]["taps"] == 6
    assert set(report["stages"]) == {"mixture", "estimate", "wpe", "mwmpdr_wpe"}
    for scores in report["stages"].values():
        assert set(scores) == {"siSdrDb", "pdsAccPercent", "pSnrDb",
                               "pipelineName", "refMic"}
        assert scores["pipelineName"] == "mwmpdr_wpe" and scores["refMic"] == 0
    final = report["stages"]["mwmpdr_wpe"]
    assert final["siSdrDb"] > report["stages"]["mixture"]["siSdrDb"]


def test_enhance_config_file(scene_dir, tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    config = {
        "pipeline": "wpe",
        "scene": scene_dir,
        "out": run_dir,
        "params": {"taps": 5, "refMic": 1},
    }
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w") as handle:
        json.dump(config, handle)
    rc, _, _ = run_cli(capsys, "enhance", "--config", config_path)
    assert rc == 0
    with open(os.path.join(run_dir, "metrics.json")) as handle:
        report = json.load(handle)
    assert report["pipelineName"] == "wpe"
    assert report["params"]["taps"] == 5
    assert report["refMic"] == 1
    for scores in report["stages"].values():
        assert scores["pipelineName"] == "wpe" and scores["refMic"] == 1


def test_enhance_mixture_paths(scene_dir, tmp_path, capsys):
    mix = os.path.join(scene_dir, "mixture.wav")
    tgt = os.path.join(scene_dir, "direct.wav")
    run_dir = str(tmp_path / "run")
    # oracle estimator without a clean target is a usage error
    rc, _, err = run_cli(capsys, "enhance", "--mixture", mix,
                         "--pipeline", "wpe", "--out", run_dir)
    assert rc == 2 and "usage error" in err
    rc, _, _ = run_cli(capsys, "enhance", "--mixture", mix, "--target", tgt,
                       "--pipeline", "wpe", "--taps", "6", "--out", run_dir)
    assert rc == 0
    with open(os.path.join(run_dir, "metrics.json")) as handle:
        assert "mixture" in json.load(handle)["stages"]


def test_evaluate_wav_triple(scene_dir, tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    rc, _, _ = run_cli(capsys, "enhance", "--scene", scene_dir, "--pipeline",
                       "mmvdr", "--out", run_dir)
    assert rc == 0
    est = os.path.join(run_dir, "mmvdr.wav")
    ref = os.path.join(scene_dir, "direct.wav")
    mix = os.path.join(scene_dir, "mixture.wav")
    rc, out_long, _ = run_cli(capsys, "evaluate", "--estimate", est,
                              "--reference", ref, "--mixture", mix)
    assert rc == 0
    report = json.loads(out_long)
    assert report["schemaVersion"] == 1
    assert isinstance(report["siSdrDb"], float)
    assert 0.0 <= report["pdsAccPercent"] <= 100.0
    # short aliases behave identically
    rc, out_short, _ = run_cli(capsys, "evaluate", "--est", est, "--ref", ref,
                               "--mix", mix)
    assert rc == 0 and out_short == out_long


def test_evaluate_writes_the_run_labels(scene_dir, tmp_path, capsys):
    out_path = str(tmp_path / "report.json")
    rc, out, err = run_cli(capsys, "evaluate",
                           "--est", os.path.join(scene_dir, "mixture.wav"),
                           "--ref", os.path.join(scene_dir, "direct.wav"),
                           "--mix", os.path.join(scene_dir, "mixture.wav"),
                           "--pipeline-name", "x", "--ref-mic", "1",
                           "--out", out_path)
    assert rc == 0, err
    report = json.loads(out)
    assert set(report) == {"schemaVersion", "siSdrDb", "pdsAccPercent", "pSnrDb",
                           "pipelineName", "refMic"}
    assert report["pipelineName"] == "x" and report["refMic"] == 1
    with open(out_path) as handle:
        assert json.load(handle) == report


def test_evaluate_analyzes_only_the_picked_channel_of_a_wav(scene_dir, capsys,
                                                            monkeypatch):
    paths = {role: os.path.join(scene_dir, name) for role, name in (
        ("estimate", "reverb.wav"), ("reference", "direct.wav"),
        ("mixture", "mixture.wav"))}
    analyzed = []

    def recording(signal):
        analyzed.append(np.shape(signal))
        return analyze(signal)

    monkeypatch.setattr(cli, "analyze", recording)
    rc, out, err = run_cli(capsys, "evaluate", "--est", paths["estimate"],
                           "--ref", paths["reference"], "--mix", paths["mixture"],
                           "--ref-mic", "1")
    assert rc == 0, err
    assert analyzed == [(16000,)] * 3
    # the scores of channel 1 of each file's multichannel STFT, bit for bit
    waves = {role: read_wav(path) for role, path in paths.items()}
    specs = {role: analyze(wave)[:, :, 1] for role, wave in waves.items()}
    report = score_estimate(specs["estimate"], specs["reference"], specs["mixture"],
                            waves["estimate"].channel(1), waves["reference"].channel(1))
    assert json.loads(out) == {"schemaVersion": 1, **report.to_json_dict(),
                               "pipelineName": "", "refMic": 1}


def test_evaluate_names_the_input_short_of_the_reference_mic(scene_dir, tmp_path,
                                                             capsys):
    mono = str(tmp_path / "mono.wav")
    direct = read_wav(os.path.join(scene_dir, "direct.wav"))
    write_wav(mono, TimeSignal(direct.channel(0)))
    stereo = os.path.join(scene_dir, "mixture.wav")
    # a mono input is read at its one channel; the first input with fewer
    # channels than --ref-mic asks for is named
    for est, ref, role in ((stereo, stereo, "estimate"), (mono, stereo, "reference"),
                           (mono, mono, "mixture")):
        rc, _, err = run_cli(capsys, "evaluate", "--est", est, "--ref", ref,
                             "--mix", stereo, "--ref-mic", "2")
        assert rc == 2
        assert (f"--ref-mic ({role}): ref_mic must be < 2, the channel count, "
                "got 2") in err


def test_evaluate_spectrogram_estimate(scene_dir, tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    rc, _, _ = run_cli(capsys, "enhance", "--scene", scene_dir, "--pipeline",
                       "fcp", "--out", run_dir)
    assert rc == 0
    rc, out, _ = run_cli(
        capsys, "evaluate",
        "--est", os.path.join(run_dir, "features", "fcp.ldspec"),
        "--ref", os.path.join(scene_dir, "direct.wav"),
        "--mix", os.path.join(scene_dir, "mixture.wav"),
    )
    assert rc == 0
    assert "siSdrDb" in json.loads(out)


def test_evaluate_spectrogram_against_wav_on_a_scene_of_partial_hops(tmp_path, capsys):
    # 1.5 s is not a whole number of hops, so a spectrogram's default
    # synthesis is longer than the WAV file; the spectrogram side takes the
    # WAV side's sample count instead, either way round, and scores exactly
    # as enhance scored the same stage
    scene, run = str(tmp_path / "scene"), str(tmp_path / "run")
    rc, _, err = run_cli(capsys, "simulate", "--mics", "2", "--t60", "0.2",
                         "--snr-db", "0", "--duration", "1.5", "--out", scene)
    assert rc == 0, err
    rc, _, err = run_cli(capsys, "enhance", "--scene", scene, "--pipeline", "wpe",
                         "--out", run)
    assert rc == 0, err
    with open(os.path.join(run, "metrics.json")) as handle:
        stages = json.load(handle)["stages"]
    mix = os.path.join(scene, "mixture.wav")
    for est, ref, stage in (
            (os.path.join(run, "features", "wpe.ldspec"),
             os.path.join(scene, "direct.wav"), "wpe"),
            (os.path.join(scene, "direct.wav"),
             os.path.join(run, "features", "estimate.ldspec"), None)):
        rc, out, err = run_cli(capsys, "evaluate", "--estimate", est,
                               "--reference", ref, "--mixture", mix)
        assert rc == 0, err
        report = json.loads(out)
        if stage:
            assert report == {"schemaVersion": 1, **stages[stage], "pipelineName": ""}
        else:  # the oracleDirect estimate is the target's own spectrogram
            assert report["pdsAccPercent"] == 100.0 and report["siSdrDb"] > 60.0


def test_wav_estimate_reads_alike_under_any_other_suffix(scene_dir, tmp_path, capsys):
    # one suffix rule for every command: a name that does not end in .ldspec
    # is a WAV file, so est.wave loads and scores as est.wav does
    mix = os.path.join(scene_dir, "mixture.wav")
    ref = os.path.join(scene_dir, "direct.wav")
    wave = read_wav(mix)
    names = ("est.wav", "est.wave")
    for name in names:
        write_wav(str(tmp_path / name), wave)
    expected = analyze(read_wav(str(tmp_path / "est.wav")))
    for name in names:
        est = load_external_estimate(str(tmp_path / name), expected.shape)
        assert np.array_equal(est.values, expected)
    reports, runs = [], []
    for name in names:
        rc, out, err = run_cli(capsys, "evaluate", "--estimate", str(tmp_path / name),
                               "--reference", ref, "--mixture", mix)
        assert rc == 0, err
        reports.append(out)
        run_dir = tmp_path / f"run-{name}"
        rc, _, err = run_cli(capsys, "enhance", "--scene", scene_dir, "--pipeline",
                             "fcp", "--estimator", "external", "--estimate",
                             str(tmp_path / name), "--out", str(run_dir))
        assert rc == 0, err
        runs.append((run_dir / "metrics.json").read_bytes())
    assert reports[0] == reports[1]
    assert runs[0] == runs[1]


def test_analyze_phase_statistics(scene_dir, capsys):
    rc, out, _ = run_cli(capsys, "analyze-phase", "--scene", scene_dir)
    assert rc == 0
    stats = json.loads(out)
    assert stats["schemaVersion"] == 1
    assert stats["numMaskedBins"] > 1000
    assert 0.0 <= stats["meanAbsPhaseDiff"] <= np.pi
    assert 0.0 <= stats["meanPredictedFlipProbability"] <= 0.5
    # a perfect estimate never flips a sign
    assert stats["pdsAccPercent"] == 100.0
    assert stats["empiricalFlipRate"] == 0.0
    # the exact target's own phase scores +inf, written as its JSON sentinel
    assert stats["pSnrDb"] == "inf"


def test_analyze_phase_predicts_flip_rate(scene_dir, capsys):
    """With an isotropically corrupted estimate, the mean closed-form flip
    probability matches the observed sign-error rate."""
    rc, out, _ = run_cli(capsys, "analyze-phase", "--scene", scene_dir,
                         "--est-err-snr-db", "10", "--seed", "3")
    assert rc == 0
    stats = json.loads(out)
    assert stats["empiricalFlipRate"] == pytest.approx(
        1.0 - stats["pdsAccPercent"] / 100.0, abs=1e-12
    )
    assert stats["empiricalFlipRate"] > 0.01
    assert abs(
        stats["empiricalFlipRate"] - stats["meanPredictedFlipProbability"]
    ) < 0.02


def test_analyze_phase_reads_the_estimators_composed_by_hand(scene_dir, capsys):
    # analyze-phase builds the estimate in the target's STFT once its
    # reference is taken; composed by hand on copies, the statistics agree
    _, mixture, target = cli._load_scene_dir(scene_dir)
    mix_spec, tgt_spec = analyze(mixture), analyze(target)
    for kind in ORACLE_KINDS:
        for err_db in (math.inf, 10.0):
            est = corrupt_estimate(oracle_estimate(mix_spec, tgt_spec, kind), err_db,
                                   seed=5)
            for q in (0, 1):
                rc, out, _ = run_cli(capsys, "analyze-phase", "--scene", scene_dir,
                                     "--estimator", kind, "--est-err-snr-db",
                                     repr(err_db), "--seed", "5", "--ref-mic", str(q))
                assert rc == 0
                want = phase_report(ScoreReference(tgt_spec[:, :, q], mix_spec[:, :, q]),
                                    est.channel(q))
                got = json.loads(out)
                assert {key: got[key] for key in want} == json.loads(json_text(want))


def test_analyze_phase_uncorrupted_magnitude_mask_scores_the_target_side_share(
        scene_dir, capsys):
    # a real mask keeps the mixture's phase up to rounding, which PDSAcc
    # reads as a tie (>= 0): the uncorrupted magnitude mask scores the share
    # of bins whose target side is >= 0
    rc, out, err = run_cli(capsys, "analyze-phase", "--scene", scene_dir,
                           "--estimator", "oracleMagMask")
    assert rc == 0, err
    stats = json.loads(out)
    assert stats["pdsAccPercent"] == pytest.approx(
        100.0 * stats["signPositiveFraction"], abs=1e-9)


def test_usage_errors_exit_2(tmp_path, capsys):
    rc, _, _ = run_cli(capsys, "simulate", "--t60", "0.2", "--snr-db", "0",
                       "--out", str(tmp_path / "x"))  # missing --mics
    assert rc == 2
    rc, _, _ = run_cli(capsys, "no-such-command")
    assert rc == 2
    rc, _, err = run_cli(capsys, "enhance", "--scene", str(tmp_path),
                         "--pipeline", "nosuch", "--out", str(tmp_path / "y"))
    assert rc == 2  # the bad name is reported before the missing manifest


@pytest.mark.parametrize("flags, name", [
    ({"--t60": "nan"}, "t60_seconds"),
    ({"--t60": "inf"}, "t60_seconds"),
    ({"--t60": "nan", "--rir-len": None}, "--t60"),  # sizes the default response
    ({"--t60": "inf", "--rir-len": None}, "--t60"),
    ({"--tail-gain": "nan"}, "tail_gain"),
    ({"--snr-db": "-inf"}, "snr_db"),
    ({"--snr-db": "nan"}, "snr_db"),
    ({"--duration": "inf"}, "--duration"),
    ({"--duration": "nan"}, "--duration"),
    ({"--duration": "1e-9"}, "--duration"),
    ({"--duration": "1e308"}, "--duration"),  # too many samples for a float
    ({"--t60": "1e305", "--rir-len": None}, "--t60"),  # finite, but not its samples
])
def test_simulate_non_finite_or_empty_values_exit_2(tmp_path, capsys, flags, name):
    # each is named in a one-line usage error, with no warning before it
    argv = {"--mics": "2", "--t60": "0.3", "--rir-len": "2000",
            "--snr-db": "0", "--duration": "0.5"}
    argv.update(flags)
    out = str(tmp_path / "scene")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _, err = run_cli(capsys, "simulate", "--out", out,
                             *(f"{k}={v}" for k, v in argv.items() if v is not None))
    assert rc == 2 and "usage error" in err and name in err
    assert err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("num_noises", ["0", "2"])
@pytest.mark.parametrize("snr_db", ["nan", "-inf"])
def test_simulate_bad_snr_exits_2_before_drawing(tmp_path, capsys, monkeypatch,
                                                 snr_db, num_noises):
    # a noise-free scene renders unscaled, so the flag is checked by itself
    def no_draw(*args, **kwargs):
        raise AssertionError("a source was drawn")

    monkeypatch.setattr(lodistort.cli, "synth_speech_like", no_draw)
    monkeypatch.setattr(lodistort.cli, "synth_noise", no_draw)
    out = str(tmp_path / "scene")
    rc, stdout, err = run_cli(capsys, "simulate", "--mics", "2", "--t60", "0.3",
                              f"--snr-db={snr_db}", "--num-noises", num_noises,
                              "--duration", "0.5", "--out", out)
    assert rc == 2 and "usage error" in err and "--snr-db" in err
    assert stdout == "" and not os.path.exists(out)


@pytest.mark.parametrize("command, flags", [
    ("simulate", ("--mics", "2", "--t60", "0.3", "--snr-db", "0", "--duration", "0.5")),
    ("enhance", ("--pipeline", "wpe")),
    ("enhance", ("--pipeline", "wpe", "--est-err-snr-db", "10")),
    ("analyze-phase", ("--est-err-snr-db", "10")),
], ids=["simulate", "enhance", "enhance-corrupted", "analyze-phase"])
def test_negative_seed_exits_2(scene_dir, tmp_path, capsys, command, flags):
    # used or not, a negative seed is a usage error that names the seed
    out = str(tmp_path / "out")
    scene = () if command == "simulate" else ("--scene", scene_dir)
    rc, stdout, err = run_cli(capsys, command, *scene, *flags, "--seed", "-1",
                              "--out", out)
    assert rc == 2 and "usage error" in err and "seed must be >= 0, got -1" in err
    assert stdout == "" and not os.path.exists(out)


@pytest.mark.parametrize("command, snr_db, named", [
    ("enhance", "-4000", "est_err_snr_db"),
    ("analyze-phase", "-4000", "est_err_snr_db"),
    ("enhance", "-3000", "float32"),
], ids=["enhance-past-float64", "analyze-phase-past-float64", "enhance-past-float32"])
def test_an_error_snr_past_the_float_range_exits_2(scene_dir, tmp_path, capsys,
                                                   command, snr_db, named):
    # at -4000 dB the estimate's error is past float64's range; at -3000 dB it
    # is finite, but the estimate's samples are past float32's, so no WAV
    # file can hold them
    out = str(tmp_path / "out")
    flags = ("--pipeline", "mvdr", "--estimator", "oraclePhaseSensitiveMask") \
        if command == "enhance" else ()
    rc, stdout, err = run_cli(capsys, command, "--scene", scene_dir, *flags,
                              f"--est-err-snr-db={snr_db}", "--out", out)
    assert rc == 2 and "usage error" in err and named in err, err
    assert stdout == "" and not (os.path.exists(out) and os.listdir(out))


def test_a_refused_wav_leaves_the_output_directory_as_it_was(scene_dir, tmp_path,
                                                             capsys):
    # the PSM estimate at -3000 dB is past float32's range: enhance refuses
    # it before it creates or writes anything under --out
    argv = ("enhance", "--scene", scene_dir, "--pipeline", "mvdr",
            "--estimator", "oraclePhaseSensitiveMask", "--est-err-snr-db=-3000")
    fresh = str(tmp_path / "fresh")
    rc, _, err = run_cli(capsys, *argv, "--out", fresh)
    assert rc == 2 and "float32" in err
    assert not os.path.exists(fresh)
    kept = tmp_path / "kept"
    kept.mkdir()
    before = {"mixture.wav": b"earlier run", "metrics.json": b"{}"}
    for name, blob in before.items():
        (kept / name).write_bytes(blob)
    rc, _, err = run_cli(capsys, *argv, "--out", str(kept))
    assert rc == 2 and "float32" in err
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before


@pytest.mark.parametrize("argv", [
    ("--pipeline", "wpe", "--epsilon", "nan"),
    ("--pipeline", "nosuch"),
    ("--pipeline", "wpe", "--ref-mic", "-3"),
    # an estimate file is read only by the external estimator, which needs one
    ("--pipeline", "wpe", "--estimate", "missing.ldspec"),
    ("--pipeline", "wpe", "--estimator", "external"),
])
def test_invalid_spec_exits_2_before_reading_input(tmp_path, capsys, argv):
    rc, _, err = run_cli(capsys, "enhance", "--scene", str(tmp_path / "ghost"),
                         *argv, "--out", str(tmp_path / "run"))
    assert rc == 2 and "usage error" in err


def test_evaluate_negative_ref_mic_exits_2_before_reading_input(tmp_path, capsys):
    # the channel's lower bound needs no file, so it is checked first
    ghost = str(tmp_path / "ghost.wav")
    rc, _, err = run_cli(capsys, "evaluate", "--est", ghost, "--ref", ghost,
                         "--mix", ghost, "--ref-mic", "-3")
    assert rc == 2 and "usage error" in err
    assert "--ref-mic: ref_mic must be >= 0, got -3" in err


def test_unknown_pipeline_exits_2(scene_dir, tmp_path, capsys):
    rc, _, err = run_cli(capsys, "enhance", "--scene", scene_dir,
                         "--pipeline", "mvdr_wpe_x",
                         "--out", str(tmp_path / "run"))
    assert rc == 2
    assert "unknown pipeline" in err


def test_enhance_runs_a_chain_outside_the_default_set(scene_dir, tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    rc, out, err = run_cli(capsys, "enhance", "--scene", scene_dir,
                           "--pipeline", "fcp_mcwf_wpe", "--taps", "6",
                           "--out", run_dir)
    assert rc == 0, err
    assert out.startswith("fcp_mcwf_wpe: ")
    stages = ["estimate", "fcp_mcwf_wpe", "mcwf_wpe", "wpe"]
    assert sorted(os.listdir(run_dir)) == sorted(
        [f"{stage}.wav" for stage in stages] + ["features", "metrics.json"])
    assert sorted(os.listdir(os.path.join(run_dir, "features"))) == sorted(
        f"{stage}.ldspec" for stage in stages + ["mixture"])
    with open(os.path.join(run_dir, "metrics.json")) as handle:
        report = json.load(handle)
    assert report["pipelineName"] == "fcp_mcwf_wpe"
    assert set(report["stages"]) == {"mixture", *stages}


def test_a_name_the_rule_refuses_exits_2(scene_dir, tmp_path, capsys):
    out = str(tmp_path / "run")
    rc, stdout, err = run_cli(capsys, "enhance", "--scene", scene_dir,
                              "--pipeline", "wpe_mvdr", "--out", out)
    assert rc == 2 and "usage error" in err
    assert "unknown pipeline 'wpe_mvdr'" in err
    assert "[fcp_][mvdr_|mmvdr_|mwmpdr_|mcwf_|gev_][wpe]" in err
    assert stdout == "" and not os.path.exists(out)
    rc, stdout, _ = run_cli(capsys, "enhance", "--help")
    assert rc == 0 and "[fcp_][mvdr_|mmvdr_|mwmpdr_|mcwf_|gev_][wpe]" in stdout


@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "nan"),
    ("--epsilon-fcp", "0"),
    ("--loading", "-1"),
    ("--est-err-snr-db", "nan"),
    ("--delay", "0"),
])
def test_invalid_filter_parameters_exit_2(scene_dir, tmp_path, capsys, flag, value):
    rc, _, err = run_cli(capsys, "enhance", "--scene", scene_dir,
                         "--pipeline", "fcp_mwmpdr_wpe", flag, value,
                         "--out", str(tmp_path / "run"))
    assert rc == 2
    assert "usage error" in err


@pytest.mark.parametrize("flags, named", [
    (("--est-err-snr-db", "nan"), "est_err_snr_db"),
    (("--est-err-snr-db=-inf",), "est_err_snr_db"),
    (("--ref-mic", "-3"), "--ref-mic"),
    (("--seed", "-1"), "--seed"),
], ids=["nan-err-snr", "minus-inf-err-snr", "negative-ref-mic", "negative-seed"])
def test_analyze_phase_invalid_flag_exits_2_before_reading_scene(
        tmp_path, capsys, flags, named):
    # a bad flag is a usage error even when the scene is missing, and no
    # statistics file is written
    out = str(tmp_path / "phase.json")
    rc, _, err = run_cli(capsys, "analyze-phase", "--scene", str(tmp_path / "ghost"),
                         *flags, "--out", out)
    assert rc == 2 and "usage error" in err
    assert named in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key, field", [("tapsFcp", "taps_fcp"), ("delay", "delay")])
def test_config_null_filter_length_exits_2(scene_dir, tmp_path, capsys, key, field):
    # only taps may be null (its default follows the channel count)
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w") as handle:
        json.dump({"pipeline": "fcp_wpe", "scene": scene_dir,
                   "out": str(tmp_path / "run"), "params": {key: None}}, handle)
    rc, _, err = run_cli(capsys, "enhance", "--config", config_path)
    assert rc == 2 and "usage error" in err
    assert f"{field} must be >= 1, got None" in err


@pytest.mark.parametrize("params, named", [
    ({"refMic": 0.5}, "ref_mic must be an integer, got 0.5"),
    ({"delay": "inf"}, "delay must be an integer, got inf"),
    ({"seed": "nan", "estErrSnrDb": 10}, "seed must be an integer, got nan"),
    ({"tap": 3}, "unknown config params key 'tap'"),
], ids=["fractional-ref-mic", "infinite-delay", "nan-seed", "unknown-key"])
def test_config_invalid_param_exits_2_before_reading_scene(tmp_path, capsys,
                                                           params, named):
    # the scene does not exist: reading it first would exit 3
    out = str(tmp_path / "run")
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w") as handle:
        json.dump({"pipeline": "wpe", "scene": str(tmp_path / "ghost"),
                   "out": out, "params": params}, handle)
    rc, stdout, err = run_cli(capsys, "enhance", "--config", config_path)
    assert rc == 2 and "usage error" in err and named in err
    assert stdout == "" and not os.path.exists(out)


def _write_config(tmp_path, config):
    path = str(tmp_path / "config.json")
    with open(path, "w") as handle:
        json.dump(config, handle)
    return path


@pytest.mark.parametrize("config", [
    [1, 2],
    {"pipeline": "wpe", "scene": "ghost", "out": "run", "params": [1]},
], ids=["list", "params-list"])
def test_config_that_is_not_an_object_exits_3(tmp_path, capsys, config):
    config_path = _write_config(tmp_path, config)
    rc, stdout, err = run_cli(capsys, "enhance", "--config", config_path)
    assert rc == 3 and "file error" in err and config_path in err
    assert "Traceback" not in err and stdout == ""


def test_config_unknown_key_exits_2_before_reading_scene(tmp_path, capsys):
    config_path = _write_config(tmp_path, {"pipeline": "wpe", "outdir": "run",
                                           "scene": str(tmp_path / "ghost")})
    rc, stdout, err = run_cli(capsys, "enhance", "--config", config_path)
    assert rc == 2 and "usage error" in err
    assert "unknown config key 'outdir'" in err and stdout == ""


# the values every numeric flag is driven through; sizes that would
# exhaust memory are left out
SWEEP_VALUES = ("nan", "inf", "-inf", "-1", "0", "1.5")


def _numeric_flags(command):
    subparsers = next(action for action in build_parser()._actions
                      if action.choices and command in action.choices)
    return [action.option_strings[0]
            for action in subparsers.choices[command]._actions
            if action.type in (int, float)]


def _sweep_argv(command, flag, value, scene, out):
    wav = {name: os.path.join(scene, name) for name in ("mixture.wav", "direct.wav")}
    base = {
        "simulate": {"--mics": "2", "--t60": "0.2", "--snr-db": "0",
                     "--duration": "0.5"},
        "enhance": {"--scene": scene, "--pipeline": "fcp_mwmpdr_wpe"},
        "evaluate": {"--estimate": wav["mixture.wav"],
                     "--reference": wav["direct.wav"],
                     "--mixture": wav["mixture.wav"]},
        "analyze-phase": {"--scene": scene},
    }[command]
    argv = {**base, flag: value, "--out": out}
    return [command, *(f"{k}={v}" for k, v in argv.items())]


@pytest.mark.parametrize("command", ["simulate", "enhance", "evaluate",
                                     "analyze-phase"])
def test_numeric_flag_sweep(scene_dir, tmp_path, capsys, command):
    # each value either runs (exit 0) or is a one-line usage error (exit 2)
    # that names the flag; the run on a missing scene shows the error comes
    # before any file is read (reading first would exit 3), and nothing is
    # written
    flags = _numeric_flags(command)
    assert flags
    ghost = str(tmp_path / "ghost")
    out = str(tmp_path / "out")
    for flag in flags:
        for value in SWEEP_VALUES:
            case = f"{command} {flag}={value}"
            rc, _, err = run_cli(capsys, *_sweep_argv(command, flag, value, ghost, out))
            assert "Traceback" not in err, case
            if rc == 2:
                assert flag in err and "error" in err, (case, err)
                assert not os.path.exists(out), case
                continue
            if command != "simulate":  # the value passed: run on the real scene
                assert rc == 3, (case, err)
                rc, _, err = run_cli(capsys, *_sweep_argv(command, flag, value,
                                                          scene_dir, out))
            assert rc == 0, (case, err)
            if os.path.isdir(out):
                shutil.rmtree(out)
            else:
                os.remove(out)


@pytest.mark.parametrize("command", ["enhance", "evaluate"])
def test_a_wav_at_another_rate_exits_2(scene_dir, tmp_path, capsys, command):
    # every signal is at 16 kHz: a WAV at another rate is a usage error where
    # it is read; the standard library writes this one, as PCM16 at 8 kHz
    other_rate = str(tmp_path / "8k.wav")
    with wave.open(other_rate, "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(8000)
        handle.writeframes(bytes(range(256)) * 64)
    out = str(tmp_path / "run")
    argv = {
        "enhance": ("--mixture", other_rate, "--target", other_rate,
                    "--pipeline", "wpe", "--out", out),
        "evaluate": ("--estimate", other_rate,
                     "--reference", os.path.join(scene_dir, "direct.wav"),
                     "--mixture", os.path.join(scene_dir, "mixture.wav")),
    }[command]
    rc, stdout, err = run_cli(capsys, command, *argv)
    assert rc == 2 and "usage error" in err
    assert other_rate in err and "8000 Hz" in err
    assert stdout == "" and not os.path.exists(out)


def test_file_errors_exit_3(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "enhance", "--scene", str(tmp_path / "ghost"),
                         "--pipeline", "wpe", "--out", str(tmp_path / "run"))
    assert rc == 3 and "file error" in err

    bad_wav = str(tmp_path / "bad.wav")
    with open(bad_wav, "wb") as handle:
        handle.write(b"this is not a wav file")
    rc, _, _ = run_cli(capsys, "evaluate", "--est", bad_wav, "--ref", bad_wav,
                       "--mix", bad_wav)
    assert rc == 3

    bad_spec = str(tmp_path / "bad.ldspec")
    with open(bad_spec, "wb") as handle:
        handle.write(b"WRONGMAGIC" + b"\x00" * 32)
    rc, _, _ = run_cli(capsys, "evaluate", "--est", bad_spec, "--ref", bad_spec,
                       "--mix", bad_spec)
    assert rc == 3

    rc, _, _ = run_cli(capsys, "analyze-phase", "--scene", str(tmp_path))
    assert rc == 3  # no manifest.json here


@pytest.mark.parametrize("suffix", [".wav", ".ldspec"])
def test_non_finite_estimate_file_exits_3(scene_dir, tmp_path, capsys, suffix):
    # a NaN payload is a bad file (exit 3) named in the message, not a usage error
    ref = os.path.join(scene_dir, "direct.wav")
    bad = str(tmp_path / f"nan{suffix}")
    if suffix == ".wav":
        write_wav(bad, read_wav(ref))  # float32: the last 4 bytes are a sample
        with open(bad, "r+b") as handle:
            handle.seek(-4, os.SEEK_END)
            handle.write(struct.pack("<f", float("nan")))
    else:
        values = analyze(read_wav(ref))[:, :, :1].copy()
        values[3, 4, 0] = complex(np.nan, 0.0)
        write_spectrogram(bad, values)
    rc, _, err = run_cli(capsys, "evaluate", "--est", bad, "--ref", ref,
                         "--mix", os.path.join(scene_dir, "mixture.wav"))
    assert rc == 3 and "file error" in err
    assert bad in err and "non-finite" in err


@pytest.mark.parametrize("shape", [(5, 257, 0), (0, 257, 1)])
def test_spectrogram_of_a_zero_size_exits_3(scene_dir, tmp_path, capsys, shape):
    # a header with a size of zero is a bad file, named in the message, not
    # a usage error about the channel or the array
    empty = str(tmp_path / "empty.ldspec")
    with open(empty, "wb") as handle:
        handle.write(b"LDSPEC1" + struct.pack("<III", *shape))
    rc, _, err = run_cli(capsys, "evaluate", "--est", empty,
                         "--ref", os.path.join(scene_dir, "direct.wav"),
                         "--mix", os.path.join(scene_dir, "mixture.wav"))
    assert rc == 3 and "file error" in err
    assert empty in err


def test_mismatched_lengths_exit_3(scene_dir, tmp_path, capsys):
    short = str(tmp_path / "short")
    rc, _, _ = run_cli(capsys, "simulate", "--mics", "2", "--t60", "0.2",
                       "--snr-db", "0", "--duration", "0.5", "--out", short)
    assert rc == 0
    rc, _, err = run_cli(
        capsys, "evaluate",
        "--est", os.path.join(short, "mixture.wav"),
        "--ref", os.path.join(scene_dir, "direct.wav"),
        "--mix", os.path.join(scene_dir, "mixture.wav"),
    )
    assert rc == 3 and "shapes differ" in err


def test_numerical_errors_exit_4(tmp_path, capsys):
    # a noise-free anechoic scene makes the oracle mask all-ones, so the
    # residual covariance is exactly zero and an unloaded solve must fail
    sc = str(tmp_path / "clean")
    rc, _, _ = run_cli(capsys, "simulate", "--mics", "2", "--t60", "0",
                       "--snr-db", "0", "--num-noises", "0", "--out", sc)
    assert rc == 0
    rc, _, err = run_cli(capsys, "enhance", "--scene", sc, "--pipeline",
                         "mmvdr", "--loading", "0",
                         "--out", str(tmp_path / "run"))
    assert rc == 4
    assert "numerical error" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lodistort.cli", "list-pipelines"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["pipelines"]) == 11


@pytest.mark.skipif(sys.platform != "linux",
                    reason="the address-space cap is enforced on Linux only")
def test_out_of_memory_exits_2(tmp_path, capsys):
    # taps=3000 on 4 mics asks for one 12000 x 12000 complex Gram (2.15 GiB):
    # under a 2 GiB address-space cap that allocation fails, and the CLI
    # reports it as a one-line usage error instead of a traceback
    sc = str(tmp_path / "scene")
    rc, _, _ = run_cli(capsys, "simulate", "--mics", "4", "--t60", "0.2",
                       "--snr-db", "0", "--duration", "0.5", "--out", sc)
    assert rc == 0
    code = ("import resource, sys\n"
            "limit = 2 * 2 ** 30\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "from lodistort.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(lodistort.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "enhance", "--scene", sc,
         "--pipeline", "mmvdr_wpe", "--taps", "3000",
         "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "usage error" in proc.stderr and "GiB" in proc.stderr
