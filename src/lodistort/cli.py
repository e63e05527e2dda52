"""Command-line front end.

Subcommands:
    simulate        render a seeded multichannel scene to WAV files
    enhance         run a chain of stages over a scene, write per-stage outputs
    evaluate        score an estimate against reference and mixture
    analyze-phase   per-scene phase-geometry statistics as JSON
    list-pipelines  the default pipelines' stages and channel use as JSON

Each numeric flag and config value is checked once, against its one rule,
before any file is read or written, and a bad flag's message names the flag.
Exit codes: 0 success, 2 usage error, 3 file/format error, 4 numerical error.
All file outputs are written atomically (temp file + rename).
"""

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from ._rules import RULES, check, check_channel
from .errors import FormatError, SingularMatrixError
from .estimator import ORACLE_KINDS, _build, _start_draws, read_input
from .fsio import atomic_write_bytes, atomic_write_json, atomic_write_text, camel
from .fsio import from_jsonable, json_text
from .metrics import ScoreReference, phase_report, score_estimate
from .pipeline import NAME_RULE, PARAM_KEYS, PipelineSpec, list_pipelines
from .pipeline import run_pipeline, write_feature_bundle
from .scene import RoomSpec, render_scene, synth_noise, synth_speech_like
from .stft import StftConfig, TimeSignal, analyze, synthesize
from .wavio import encode_wav, read_wav, write_wav

SCHEMA_VERSION = 1


def _flag(sub, name, **kwargs):
    # a ruled flag has its parameter's name as dest, so main can check it
    rule = RULES[name]
    sub.add_argument(rule.flag, dest=name, type=int if rule.integer else float,
                     **kwargs)


# a PipelineSpec field's flag has the field's default
def _add_estimate_flags(sub, kinds):
    sub.add_argument("--estimator", default=PipelineSpec.estimator, choices=kinds)
    for name in ("est_err_snr_db", "ref_mic", "seed"):
        _flag(sub, name, default=getattr(PipelineSpec, name))


def _add_filter_flags(sub):
    for name, text in (("taps", "prediction order (default: per-channel-count table)"),
                       ("taps_fcp", "compensation filter length"),
                       ("delay", "prediction delay in frames"),
                       ("epsilon", "relative floor for the power weights"),
                       ("epsilon_fcp", "relative floor for the compensation weights"),
                       ("loading", "relative diagonal loading")):
        _flag(sub, name, default=getattr(PipelineSpec, name), help=text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lodistort",
        description="linear low-distortion target estimation for multichannel speech",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="render a seeded multichannel scene")
    _flag(sim, "num_mics", required=True)
    _flag(sim, "t60_seconds", required=True, help="seconds")
    _flag(sim, "snr_db", required=True)
    _flag(sim, "seed", default=RoomSpec.seed)
    sim.add_argument("--out", required=True, help="output directory")
    _flag(sim, "duration_seconds", default=1.0, help="seconds")
    _flag(sim, "num_noises", default=2)
    _flag(sim, "direct_delay_samples", default=RoomSpec.direct_delay_samples,
          help="direct-path delay of mic 0 in samples (mic m adds m)")
    _flag(sim, "tail_gain", default=RoomSpec.tail_gain)
    _flag(sim, "rir_len_samples", default=None, help="samples")
    sim.set_defaults(func=cmd_simulate)

    enh = sub.add_parser("enhance", help="run a pipeline over a scene")
    enh.add_argument("--scene", help="scene directory written by `simulate`")
    enh.add_argument("--mixture", help="mixture WAV (alternative to --scene)")
    enh.add_argument("--target", help="clean target WAV (for oracles/metrics)")
    enh.add_argument("--pipeline", help=f"chain of stages {NAME_RULE}, such as fcp_wpe")
    enh.add_argument("--out", help="output directory")
    enh.add_argument("--config",
                     help="JSON config {pipeline, params, scene|mixture, target, "
                     "out}, params keyed as metrics.json's; file values override flags")
    _add_estimate_flags(enh, ORACLE_KINDS + ("external",))
    enh.add_argument("--estimate", dest="estimate_path",
                     help="external estimate (.ldspec or .wav)")
    _add_filter_flags(enh)
    enh.set_defaults(func=cmd_enhance)

    ev = sub.add_parser("evaluate", help="score an estimate")
    ev.add_argument("--estimate", "--est", required=True, help=".wav or .ldspec")
    ev.add_argument("--reference", "--ref", required=True, help=".wav or .ldspec")
    ev.add_argument("--mixture", "--mix", required=True, help=".wav or .ldspec")
    _flag(ev, "ref_mic", default=0)
    ev.add_argument("--pipeline-name", default="")
    ev.add_argument("--out", help="write the report here instead of stdout only")
    ev.set_defaults(func=cmd_evaluate)

    ap = sub.add_parser("analyze-phase", help="phase-geometry statistics")
    ap.add_argument("--scene", required=True, help="scene directory")
    _add_estimate_flags(ap, ORACLE_KINDS)
    ap.add_argument("--out", help="write the statistics here as well")
    ap.set_defaults(func=cmd_analyze_phase)

    lp = sub.add_parser("list-pipelines", help="the default pipelines as JSON")
    lp.add_argument("--out", help="write the list here as well")
    lp.set_defaults(func=cmd_list_pipelines)
    return parser


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return from_jsonable(json.load(handle))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


# the keys of an `enhance --config` object; its params take PARAM_KEYS' values
_CONFIG_KEYS = ("pipeline", "params", "scene", "mixture", "target", "out")


def _read_config(path):
    config = _read_json(path)
    params = config.get("params", {}) if isinstance(config, dict) else None
    if not isinstance(params, dict):
        raise FormatError(f"{path}: expected a JSON object whose params is an object")
    for given, known, what in ((config, _CONFIG_KEYS, "key"),
                               (params, tuple(PARAM_KEYS.values()), "params key")):
        for key in given:
            if key not in known:
                raise ValueError(f"{path}: unknown config {what} {key!r}; "
                                 f"expected one of {', '.join(known)}")
    return config, params


def _emit(obj, out_path=None):
    text = json_text(obj)
    print(text, end="")
    if out_path:
        atomic_write_text(out_path, text)


def cmd_simulate(args):
    rate = StftConfig.sample_rate
    # the rule holds the duration > 0 and finite; its sample count must be
    # finite too and round to at least one sample
    if not 0.5 < args.duration_seconds * rate < math.inf:
        raise ValueError(f"--duration {args.duration_seconds:g} s does not round to a "
                         f"finite count of at least one sample at {rate} Hz")
    num_samples = round(args.duration_seconds * rate)
    rir_len = args.rir_len_samples
    if rir_len is None:
        default_len = (args.t60_seconds + 0.05) * rate
        if not default_len < math.inf:
            raise ValueError(f"--t60 {args.t60_seconds:g} s gives no finite default "
                             f"--rir-len at {rate} Hz")
        rir_len = max(args.direct_delay_samples + args.num_mics + 2, int(default_len))
    delays = tuple(args.direct_delay_samples + m for m in range(args.num_mics))
    room = RoomSpec(
        num_mics=args.num_mics,
        t60_seconds=args.t60_seconds,
        rir_len_samples=rir_len,
        direct_delay_samples=delays,
        seed=args.seed,
        tail_gain=args.tail_gain,
    )
    source = synth_speech_like(num_samples, seed=args.seed)
    noises = [
        synth_noise(num_samples, seed=[args.seed, i])
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
        **{camel(f.name): getattr(room, f.name) for f in fields(room)},
        "snrDb": scene.snr_db,
        "durationSeconds": args.duration_seconds,
        "numNoises": args.num_noises,
        "files": files,
    }
    manifest_path = os.path.join(args.out, "manifest.json")
    atomic_write_json(manifest_path, manifest)
    print(f"wrote scene to {args.out} ({args.num_mics} mics, "
          f"t60={args.t60_seconds:g} s, snr={args.snr_db:g} dB, seed={args.seed})")
    return 0


def _load_scene_dir(scene_dir):
    manifest_path = os.path.join(scene_dir, "manifest.json")
    manifest = _read_json(manifest_path)
    try:
        files = manifest["files"]
        mixture_name = files["mixture"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{manifest_path}: missing files.mixture entry") from exc
    mixture = read_wav(os.path.join(scene_dir, mixture_name))
    target = None
    direct_name = files.get("directPath")
    if direct_name and os.path.exists(os.path.join(scene_dir, direct_name)):
        target = read_wav(os.path.join(scene_dir, direct_name))
    return manifest, mixture, target


def cmd_enhance(args):
    config, params = _read_config(args.config) if args.config else ({}, {})
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
        mixture = read_wav(mixture_path)
        target = read_wav(target_path) if target_path else None
    else:
        raise ValueError("no input scene (use --scene/--mixture or the config file)")
    result = run_pipeline(mixture, spec, target)

    # every WAV is encoded before --out is made, so a stage whose samples no
    # WAV can hold leaves it as it was
    stage_files = {stage: f"{stage}.wav" for stage in result.waves}
    blobs = {name: encode_wav(os.path.join(out_dir, name), result.waves[stage])
             for stage, name in stage_files.items()}
    os.makedirs(out_dir, exist_ok=True)
    for name, blob in blobs.items():
        atomic_write_bytes(os.path.join(out_dir, name), blob)
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
    # every file is read before any channel is checked; of a WAV file, only
    # the picked channel is analyzed
    inputs = {role: read_input(path) for role, path in (
        ("estimate", args.estimate),
        ("reference", args.reference),
        ("mixture", args.mixture),
    )}

    def pick(role):
        data = inputs[role]
        is_wave = isinstance(data, TimeSignal)
        channels = data.num_channels if is_wave else data.shape[2]
        chan = 0 if channels == 1 else args.ref_mic
        check_channel("ref_mic", chan, channels, f"--ref-mic ({role}): ")
        if not is_wave:
            return data[:, :, chan], None
        wave = data.channel(chan)
        return analyze(wave)[:, :, 0], wave

    est_spec, est_wave = pick("estimate")
    ref_spec, ref_wave = pick("reference")
    mix_spec, _ = pick("mixture")
    if est_spec.shape != ref_spec.shape or est_spec.shape != mix_spec.shape:
        raise FormatError(
            "estimate, reference, and mixture spectrogram shapes differ: "
            f"{est_spec.shape} vs {ref_spec.shape} vs {mix_spec.shape}"
        )
    # an LDSPEC side is synthesized at the length of a WAV side, if any
    num_samples = next((len(w) for w in (est_wave, ref_wave) if w is not None), None)
    if est_wave is None:
        est_wave = synthesize(est_spec, num_samples=num_samples).channel(0)
    if ref_wave is None:
        ref_wave = synthesize(ref_spec, num_samples=num_samples).channel(0)
    report = score_estimate(est_spec, ref_spec, mix_spec, est_wave, ref_wave)
    _emit({"schemaVersion": SCHEMA_VERSION, **report.to_json_dict(),
           "pipelineName": args.pipeline_name, "refMic": args.ref_mic}, args.out)
    return 0


def cmd_analyze_phase(args):
    q = args.ref_mic
    _, mixture, target = _load_scene_dir(args.scene)
    if target is None:
        raise FormatError(f"{args.scene}: scene has no direct-path file; phase "
                          "analysis needs the clean target")
    check_channel("ref_mic", q, mixture.num_channels, "--ref-mic: ")
    # the error, if any, is drawn on the pool while the scene is analyzed
    draws = _start_draws(mixture, args.est_err_snr_db, args.seed)
    mix_spec, tgt_spec = analyze(mixture), analyze(target)
    reference = ScoreReference(tgt_spec[:, :, q], mix_spec[:, :, q])
    # the estimate is built in tgt_spec's buffer, read no more (see estimator)
    estimate = _build(tgt_spec, args.estimator, args.est_err_snr_db, args.seed, mix_spec,
                      draws)
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
        # every flag with a rule, before the command reads or writes a file
        for name, rule in RULES.items():
            if getattr(args, name, None) is not None:
                check(name, getattr(args, name), f"{rule.flag}: ")
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"lodistort: file error: {exc}", file=sys.stderr)
        return 3
    except (SingularMatrixError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"lodistort: numerical error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, TypeError, OverflowError) as exc:
        print(f"lodistort: usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the allocation
        print(f"lodistort: usage error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
