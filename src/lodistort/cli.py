"""Command-line front end.

Subcommands:
    simulate        render a seeded multichannel scene to WAV files
    enhance         run a named pipeline over a scene, write per-stage outputs
    evaluate        score an estimate against reference and mixture
    analyze-phase   per-scene phase-geometry statistics as JSON
    list-pipelines  the pipeline catalog as JSON

Exit codes: 0 success, 2 usage error, 3 file/format error, 4 numerical error.
All file outputs are written atomically (temp file + rename).
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import FormatError, SingularMatrixError
from .estimator import ORACLE_KINDS, check_est_err_snr_db, load_spectrogram
from .fsio import atomic_write_json, atomic_write_text, from_jsonable, json_text
from .metrics import ScoreReference, phase_report, score_estimate
from .pipeline import PARAM_KEYS, PipelineSpec, list_pipelines, make_estimate
from .pipeline import run_pipeline, write_feature_bundle
from .scene import RoomSpec, check_snr_db, render_scene, synth_noise, synth_speech_like
from .stft import StftConfig, analyze, synthesize
from .wavio import read_wav, write_wav

SCHEMA_VERSION = 1


# a PipelineSpec field's flag has the field's name as dest and its default
def _add_estimate_flags(sub, kinds):
    sub.add_argument("--estimator", default=PipelineSpec.estimator, choices=kinds)
    sub.add_argument("--est-err-snr-db", type=float, default=PipelineSpec.est_err_snr_db)
    sub.add_argument("--ref-mic", type=int, default=PipelineSpec.ref_mic)
    sub.add_argument("--seed", type=int, default=PipelineSpec.seed)


def _add_filter_flags(sub):
    sub.add_argument("--taps", type=int, default=PipelineSpec.taps,
                     help="prediction order (default: per-channel-count table)")
    sub.add_argument("--taps-fcp", type=int, default=PipelineSpec.taps_fcp,
                     help="compensation filter length")
    sub.add_argument("--delay", type=int, default=PipelineSpec.delay,
                     help="prediction delay in frames")
    sub.add_argument("--epsilon", type=float, default=PipelineSpec.epsilon,
                     help="relative floor for the power weights")
    sub.add_argument("--epsilon-fcp", type=float, default=PipelineSpec.epsilon_fcp,
                     help="relative floor for the compensation weights")
    sub.add_argument("--loading", type=float, default=PipelineSpec.loading,
                     help="relative diagonal loading")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lodistort",
        description="linear low-distortion target estimation for multichannel speech",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="render a seeded multichannel scene")
    sim.add_argument("--mics", type=int, required=True)
    sim.add_argument("--t60", type=float, required=True, help="seconds")
    sim.add_argument("--snr-db", type=float, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--duration", type=float, default=1.0, help="seconds")
    sim.add_argument("--num-noises", type=int, default=2)
    sim.add_argument("--direct-delay", type=int, default=8,
                     help="direct-path delay of mic 0 in samples (mic m adds m)")
    sim.add_argument("--tail-gain", type=float, default=0.05)
    sim.add_argument("--rir-len", type=int, default=None, help="samples")
    sim.set_defaults(func=cmd_simulate)

    enh = sub.add_parser("enhance", help="run a pipeline over a scene")
    enh.add_argument("--scene", help="scene directory written by `simulate`")
    enh.add_argument("--mixture", help="mixture WAV (alternative to --scene)")
    enh.add_argument("--target", help="clean target WAV (for oracles/metrics)")
    enh.add_argument("--pipeline", help="pipeline name (see list-pipelines)")
    enh.add_argument("--out", help="output directory")
    enh.add_argument("--config",
                     help="JSON config {pipeline, params, scene|mixture, out}; "
                     "file values override flags")
    _add_estimate_flags(enh, ORACLE_KINDS + ("external",))
    enh.add_argument("--estimate", dest="estimate_path",
                     help="external estimate (.ldspec or .wav)")
    _add_filter_flags(enh)
    enh.set_defaults(func=cmd_enhance)

    ev = sub.add_parser("evaluate", help="score an estimate")
    ev.add_argument("--estimate", "--est", required=True, help=".wav or .ldspec")
    ev.add_argument("--reference", "--ref", required=True, help=".wav or .ldspec")
    ev.add_argument("--mixture", "--mix", required=True, help=".wav or .ldspec")
    ev.add_argument("--ref-mic", type=int, default=0)
    ev.add_argument("--pipeline-name", default="")
    ev.add_argument("--out", help="write the report here instead of stdout only")
    ev.set_defaults(func=cmd_evaluate)

    ap = sub.add_parser("analyze-phase", help="phase-geometry statistics")
    ap.add_argument("--scene", required=True, help="scene directory")
    _add_estimate_flags(ap, ORACLE_KINDS)
    ap.add_argument("--out", help="write the statistics here as well")
    ap.set_defaults(func=cmd_analyze_phase)

    lp = sub.add_parser("list-pipelines", help="pipeline catalog as JSON")
    lp.add_argument("--out", help="write the catalog here as well")
    lp.set_defaults(func=cmd_list_pipelines)
    return parser


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return from_jsonable(json.load(handle))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def _emit(obj, out_path=None):
    text = json_text(obj)
    print(text, end="")
    if out_path:
        atomic_write_text(out_path, text)


def cmd_simulate(args):
    rate = StftConfig.sample_rate
    # NaN compares False to everything, so test for the valid range
    if not 0 < args.duration * rate < math.inf:
        raise ValueError(
            f"--duration must be positive with a finite sample count at {rate} Hz, "
            f"got {args.duration}"
        )
    num_samples = round(args.duration * rate)
    if num_samples < 1:
        raise ValueError(
            f"--duration {args.duration:g} s is shorter than one sample at {rate} Hz"
        )
    if args.num_noises < 0:
        raise ValueError("--num-noises must be >= 0")
    # checked here, before anything is drawn: a noise-free scene renders
    # with snr_db=None, so render_scene never sees the flag's value
    try:
        check_snr_db(args.snr_db)
    except ValueError as exc:
        raise ValueError(f"--snr-db: {exc}") from None
    rir_len = args.rir_len
    if rir_len is None:
        if not 0 <= args.t60 * rate < math.inf:
            raise ValueError(
                f"--t60 must be >= 0 with a finite sample count at {rate} Hz, "
                f"got {args.t60}"
            )
        rir_len = max(args.direct_delay + args.mics + 2, int((args.t60 + 0.05) * rate))
    delays = tuple(args.direct_delay + m for m in range(args.mics))
    room = RoomSpec(
        num_mics=args.mics,
        t60_seconds=args.t60,
        rir_len_samples=rir_len,
        direct_delay_samples=delays,
        seed=args.seed,
        sample_rate_hz=rate,
        tail_gain=args.tail_gain,
    )
    source = synth_speech_like(num_samples, rate, seed=args.seed)
    noises = [
        synth_noise(num_samples, rate, seed=[args.seed, i])
        for i in range(args.num_noises)
    ]
    # a noise-free scene has no SNR to hit; render unscaled instead
    scene = render_scene(source, noises, room, args.snr_db if noises else None)

    files = {
        "mixture": "mixture.wav",
        "directPath": "direct.wav",
        "reverbResidual": "reverb.wav",
        "noise": "noise.wav",
    }
    os.makedirs(args.out, exist_ok=True)
    write_wav(os.path.join(args.out, files["mixture"]), scene.mixture)
    write_wav(os.path.join(args.out, files["directPath"]), scene.direct_path)
    write_wav(os.path.join(args.out, files["reverbResidual"]), scene.reverb_residual)
    write_wav(os.path.join(args.out, files["noise"]), scene.noise)
    manifest = {
        "schemaVersion": SCHEMA_VERSION,
        "kind": "scene",
        "sampleRateHz": rate,
        "numMics": args.mics,
        "t60Seconds": args.t60,
        "snrDb": scene.snr_db,
        "seed": args.seed,
        "durationSeconds": args.duration,
        "numNoises": args.num_noises,
        "directDelaySamples": list(delays),
        "rirLenSamples": rir_len,
        "tailGain": args.tail_gain,
        "files": files,
    }
    manifest_path = os.path.join(args.out, "manifest.json")
    atomic_write_json(manifest_path, manifest)
    print(f"wrote scene to {args.out} ({args.mics} mics, "
          f"t60={args.t60:g} s, snr={args.snr_db:g} dB, seed={args.seed})")
    return 0


def _load_scene_dir(scene_dir):
    manifest_path = os.path.join(scene_dir, "manifest.json")
    manifest = _read_json(manifest_path)
    try:
        files = manifest["files"]
        mixture_name = files["mixture"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{manifest_path}: missing files.mixture entry") from exc
    mixture = read_wav(os.path.join(scene_dir, mixture_name), StftConfig.sample_rate)
    target = None
    direct_name = files.get("directPath")
    if direct_name and os.path.exists(os.path.join(scene_dir, direct_name)):
        target = read_wav(os.path.join(scene_dir, direct_name), StftConfig.sample_rate)
    return manifest, mixture, target


def cmd_enhance(args):
    config = _read_json(args.config) if args.config else {}
    params = config.get("params", {})
    name = config.get("pipeline", args.pipeline)
    out_dir = config.get("out", args.out)
    scene_dir = config.get("scene", args.scene)
    mixture_path = config.get("mixture", args.mixture)
    target_path = config.get("target", args.target)
    if name is None:
        raise ValueError("no pipeline named (use --pipeline or the config file)")
    if out_dir is None:
        raise ValueError("no output directory (use --out or the config file)")
    spec = PipelineSpec(name, **{field: params.get(key, getattr(args, field))
                                 for field, key in PARAM_KEYS.items()})

    if scene_dir:
        _, mixture, target = _load_scene_dir(scene_dir)
    elif mixture_path:
        mixture = read_wav(mixture_path, StftConfig.sample_rate)
        target = read_wav(target_path, StftConfig.sample_rate) if target_path else None
    else:
        raise ValueError("no input scene (use --scene/--mixture or the config file)")
    result = run_pipeline(mixture, spec, target)

    os.makedirs(out_dir, exist_ok=True)
    stage_files = {}
    for stage_name, wave in result.waves.items():
        filename = f"{stage_name}.wav"
        write_wav(os.path.join(out_dir, filename), wave)
        stage_files[stage_name] = filename
    feature_paths = write_feature_bundle(result, os.path.join(out_dir, "features"))

    labels = {"pipelineName": spec.name, "refMic": spec.ref_mic}
    report = {
        "schemaVersion": SCHEMA_VERSION,
        **labels,
        "params": spec.params_dict(),
        "stages": {k: {**v.to_json_dict(), **labels}
                   for k, v in result.metrics.items()},
        "files": stage_files,
        "features": {
            k: os.path.relpath(v, out_dir) for k, v in feature_paths.items()
        },
    }
    atomic_write_json(os.path.join(out_dir, "metrics.json"), report)
    final = result.metrics.get(spec.name)
    if final is not None:
        print(
            f"{spec.name}: si_sdr={final.si_sdr_db:.2f} dB, "
            f"pdsacc={final.pdsacc_percent:.1f}%, psnr={final.psnr_db:.2f} dB "
            f"-> {out_dir}"
        )
    else:
        print(f"{spec.name}: wrote estimates to {out_dir} (no target, no metrics)")
    return 0


def cmd_evaluate(args):
    # the flag is checked before the files are read
    if args.ref_mic < 0:
        raise ValueError(f"--ref-mic {args.ref_mic} out of range")
    cfg = StftConfig()
    inputs = {role: load_spectrogram(path, cfg) for role, path in (
        ("estimate", args.estimate),
        ("reference", args.reference),
        ("mixture", args.mixture),
    )}

    def pick(role):
        spec, wave = inputs[role]
        chan = 0 if spec.shape[2] == 1 else args.ref_mic
        if not 0 <= chan < spec.shape[2]:
            raise ValueError(f"--ref-mic {args.ref_mic} out of range for {role}")
        wave_1d = wave.channel(min(chan, wave.num_channels - 1)) if wave else None
        return spec[:, :, chan], wave_1d

    est_spec, est_wave = pick("estimate")
    ref_spec, ref_wave = pick("reference")
    mix_spec, _ = pick("mixture")
    if est_spec.shape != ref_spec.shape or est_spec.shape != mix_spec.shape:
        raise FormatError(
            "estimate, reference, and mixture spectrogram shapes differ: "
            f"{est_spec.shape} vs {ref_spec.shape} vs {mix_spec.shape}"
        )
    if est_wave is None:
        est_wave = synthesize(est_spec, cfg).channel(0)
    if ref_wave is None:
        ref_wave = synthesize(ref_spec, cfg).channel(0)
    if est_wave.shape != ref_wave.shape:
        raise ValueError(
            "estimate and reference lengths differ; use matching formats"
        )
    report = score_estimate(est_spec, ref_spec, mix_spec, est_wave, ref_wave)
    _emit({"schemaVersion": SCHEMA_VERSION, **report.to_json_dict(),
           "pipelineName": args.pipeline_name, "refMic": args.ref_mic}, args.out)
    return 0


def cmd_analyze_phase(args):
    # the flags are checked before the scene is read
    check_est_err_snr_db(args.est_err_snr_db)
    q = args.ref_mic
    if q < 0:
        raise ValueError(f"--ref-mic {q} out of range")
    if args.seed < 0:
        raise ValueError(f"--seed: seed must be >= 0, got {args.seed}")
    _, mixture, target = _load_scene_dir(args.scene)
    if target is None:
        raise FormatError(f"{args.scene}: scene has no direct-path file; phase "
                          "analysis needs the clean target")
    if q >= mixture.num_channels:
        raise ValueError(f"--ref-mic {q} out of range")
    mix_spec, tgt_spec = analyze(mixture), analyze(target)
    # the estimator flags carry PipelineSpec's field names
    estimate = make_estimate(args, mix_spec, tgt_spec)
    reference = ScoreReference(tgt_spec[:, :, q], mix_spec[:, :, q])
    stats = {
        "schemaVersion": SCHEMA_VERSION,
        "scene": args.scene,
        "estimator": args.estimator,
        "estErrSnrDb": args.est_err_snr_db,
        "refMic": q,
        **phase_report(reference, estimate.channel(q)),
    }
    _emit(stats, args.out)
    return 0


def cmd_list_pipelines(args):
    payload = {"schemaVersion": SCHEMA_VERSION, "pipelines": list_pipelines()}
    _emit(payload, args.out)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"lodistort: file error: {exc}", file=sys.stderr)
        return 3
    except (SingularMatrixError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"lodistort: numerical error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, TypeError) as exc:
        print(f"lodistort: usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the allocation
        print(f"lodistort: usage error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
