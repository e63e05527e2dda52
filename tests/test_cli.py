"""Command-line front end: outputs, JSON schemas, and the exit-code
contract (0 ok / 2 usage / 3 file / 4 numerical)."""

import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import lodistort
from lodistort import (
    StftConfig,
    analyze,
    load_external_estimate,
    read_wav,
    write_spectrogram,
    write_wav,
)
from lodistort.cli import main


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
    assert manifest["numMics"] == 2
    assert manifest["t60Seconds"] == 0.2
    assert manifest["snrDb"] == 0.0
    assert manifest["directDelaySamples"] == [8, 9]
    assert manifest["files"]["mixture"] == "mixture.wav"
    mixture = read_wav(os.path.join(scene_dir, "mixture.wav"), 16000)
    assert mixture.samples.shape == (16000, 2)
    # components recombine into the mixture up to WAV quantization
    parts = sum(
        read_wav(os.path.join(scene_dir, name), 16000).samples
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


def test_wav_estimate_reads_alike_under_any_other_suffix(scene_dir, tmp_path, capsys):
    # one suffix rule for every command: a name that does not end in .ldspec
    # is a WAV file, so est.wave loads and scores as est.wav does
    mix = os.path.join(scene_dir, "mixture.wav")
    ref = os.path.join(scene_dir, "direct.wav")
    wave = read_wav(mix, 16000)
    names = ("est.wav", "est.wave")
    for name in names:
        write_wav(str(tmp_path / name), wave)
    cfg = StftConfig()
    expected = analyze(read_wav(str(tmp_path / "est.wav"), 16000), cfg)
    for name in names:
        est = load_external_estimate(str(tmp_path / name), expected.shape, cfg)
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


@pytest.mark.parametrize("argv", [
    ("--pipeline", "wpe", "--epsilon", "nan"),
    ("--pipeline", "nosuch"),
    ("--pipeline", "wpe", "--ref-mic", "-3"),
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
    assert "--ref-mic -3" in err


def test_unknown_pipeline_exits_2(scene_dir, tmp_path, capsys):
    rc, _, err = run_cli(capsys, "enhance", "--scene", scene_dir,
                         "--pipeline", "mvdr_wpe_x",
                         "--out", str(tmp_path / "run"))
    assert rc == 2
    assert "unknown pipeline" in err


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
        write_wav(bad, read_wav(ref, 16000))  # float32: the last 4 bytes are a sample
        with open(bad, "r+b") as handle:
            handle.seek(-4, os.SEEK_END)
            handle.write(struct.pack("<f", float("nan")))
    else:
        values = analyze(read_wav(ref, 16000))[:, :, :1].copy()
        values[3, 4, 0] = complex(np.nan, 0.0)
        write_spectrogram(bad, values)
    rc, _, err = run_cli(capsys, "evaluate", "--est", bad, "--ref", ref,
                         "--mix", os.path.join(scene_dir, "mixture.wav"))
    assert rc == 3 and "file error" in err
    assert bad in err and "non-finite" in err


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
