#!/usr/bin/env python3
"""Memory of a long recording: all 11 pipelines on a 60 s 6-mic scene.

Run from anywhere (the checkout's src/ and tests/ are put on the path):

    python3 tools/long_scene_memory.py

The probe caps its own address space (RLIMIT_AS, 5 GiB, set on this
process only), renders the scene, and runs every pipeline with the
oracleDirect estimate.  It then measures, each from a fresh tracemalloc
start, the peaks of the steps whose memory grows with the field:

    analyze              the mixture's STFT, in T x F x C fields
    wpe_field            the multichannel WPE solve, in T x F x C fields
    fcp                  forward-filter compensation at mic 0, in T x F
                         (mono) fields
    masked_covariances   the mask-weighted covariances of the mixture,
    weighted_covariance  its power-weighted covariance and
    signal_covariances   its estimate and residual covariances, in
                         T x F x C fields
    synthesize           the resynthesis of mic 0's spectrogram, in T x F
                         (mono) fields
    estimate             the pipeline's estimate node, oraclePhaseSensitiveMask
                         at 10 dB at mic 0, built in the target's STFT with
                         its error's draws (one field, on the worker pool)
                         and block-sized squares, in T x F x C fields (the
                         oracleDirect pipelines never reach the mask and
                         error code)

A step's peak counts its output and its transients, not its inputs.  The
last line of standard output is the JSON result, with the process's peak
RSS (ru_maxrss) after the pipelines, before the step measurements, in MB
(1e6 bytes, the unit of fieldMb) and in T x F x C fields.  The probe exits
1 if the peak RSS is above RSS_BOUND_FIELDS fields, if a step's peak is
above the bound tests/test_memory.py holds it to (tests/_memtrace.py), or
if the pipelines exceed the cap.

It takes about 30 s and 1.2 GB on a 2-core Xeon, too long for Tier-1.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))  # _memtrace, test_memory.py's bounds

from lodistort import (  # noqa: E402
    PIPELINE_NAMES,
    PipelineSpec,
    RoomSpec,
    StftConfig,
    analyze,
    compute_mask,
    default_taps,
    fcp,
    masked_covariances,
    pipeline,
    psd_floor,
    render_scene,
    run_pipeline,
    signal_covariances,
    synth_noise,
    synth_speech_like,
    synthesize,
    weighted_covariance,
    wpe_field,
)
from _memtrace import (  # noqa: E402
    analyze_bound,
    covariance_bound,
    estimate_bound,
    fcp_bound,
    synthesize_bound,
    traced_peak,
    wpe_field_bound,
)

SECONDS = 60
MICS = 6
CAP_BYTES = 5 * 2 ** 30
# bound of the process's peak RSS, interpreter and libraries included, in
# T x F x C fields (185 MB each): measured 4.63 (857 MB) with the estimate
# kept as one channel and its covariances, 5.62 (1041 MB) with all six kept
RSS_BOUND_FIELDS = 5.0


def peak_rss_bytes():
    # Linux counts ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def make_scene(seed=11):
    num_samples = SECONDS * StftConfig.sample_rate
    room = RoomSpec(num_mics=MICS, t60_seconds=0.6, rir_len_samples=10400,
                    direct_delay_samples=tuple(8 + k for k in range(MICS)),
                    seed=seed)
    return render_scene(
        synth_speech_like(num_samples, seed=[seed, 1]),
        [synth_noise(num_samples, seed=[seed, 2]),
         synth_noise(num_samples, seed=[seed, 3])],
        room, snr_db=0.0,
    )


def main():
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))

    scene = make_scene()
    start = time.perf_counter()
    for name in PIPELINE_NAMES:
        run_pipeline(scene, PipelineSpec(name))
    pipelines_s = time.perf_counter() - start
    rss_bytes = peak_rss_bytes()

    # the steps as the pipelines call them, at mic 0 of the oracleDirect run
    mix, tgt = analyze(scene.mixture), analyze(scene.direct_path)
    lam = psd_floor(tgt[:, :, 0])
    field_bytes, mono_bytes = mix.nbytes, mix[:, :, 0].nbytes
    peak, spec = traced_peak(lambda: analyze(scene.mixture))
    analyze_fields = (peak / field_bytes, analyze_bound(spec) / field_bytes)
    taps = default_taps(MICS)
    peak, (_, out) = traced_peak(lambda: wpe_field(mix, lam, taps))
    wpe_fields = (peak / field_bytes, wpe_field_bound(mix, out, taps) / field_bytes)
    reference = mix[:, :, 0]
    peak, (_, out) = traced_peak(lambda: fcp(reference, tgt[:, :, 0]))
    fcp_fields = (peak / mono_bytes, fcp_bound(reference, out) / mono_bytes)
    mask = compute_mask(tgt[:, :, 0], reference)
    peak, cov = traced_peak(lambda: masked_covariances(mix, mask))
    masked_fields = (peak / field_bytes, covariance_bound(
        mix, cov.phi_s, cov.phi_v, weights=mask) / field_bytes)
    peak, phi = traced_peak(lambda: weighted_covariance(mix, lam))
    weighted_fields = (peak / field_bytes,
                       covariance_bound(mix, phi, weights=lam) / field_bytes)
    peak, cov = traced_peak(lambda: signal_covariances(mix, tgt))
    signal_fields = (peak / field_bytes, covariance_bound(
        mix, cov.phi_s, cov.phi_v) / field_bytes)
    peak, _ = traced_peak(lambda: synthesize(reference))
    synthesize_fields = (peak / mono_bytes, synthesize_bound(reference) / mono_bytes)
    # last: the estimate is built in tgt's buffer, which nothing reads after,
    # and its draws take one more field until it is built
    spec = PipelineSpec("mvdr", estimator="oraclePhaseSensitiveMask",
                        est_err_snr_db=10.0)
    peak, _ = traced_peak(lambda: pipeline._estimate(spec, mix, tgt))
    estimate_fields = (peak / field_bytes, estimate_bound(tgt) / field_bytes)
    steps = {"analyze": analyze_fields, "wpe_field": wpe_fields,
             "fcp": fcp_fields, "masked_covariances": masked_fields,
             "weighted_covariance": weighted_fields,
             "signal_covariances": signal_fields,
             "synthesize": synthesize_fields, "estimate": estimate_fields}
    result = {
        "seconds": SECONDS,
        "mics": MICS,
        "frames": mix.shape[0],
        "fieldMb": field_bytes / 1e6,
        "monoFieldMb": mono_bytes / 1e6,
        "capGib": CAP_BYTES / 2 ** 30,
        "pipelinesS": pipelines_s,
        "peakRssMb": rss_bytes / 1e6,
        "peakRssFields": round(rss_bytes / field_bytes, 3),
        "rssBoundFields": RSS_BOUND_FIELDS,
        "stepPeakFields": {name: round(peak, 3)
                           for name, (peak, _) in steps.items()},
        "stepBoundFields": {name: round(bound, 3)
                            for name, (_, bound) in steps.items()},
    }
    print(json.dumps(result))
    over = [name for name, (peak, bound) in steps.items() if peak > bound]
    if over:
        print("step peak above its bound: " + ", ".join(over), file=sys.stderr)
    if rss_bytes > RSS_BOUND_FIELDS * field_bytes:
        print(f"peak RSS above {RSS_BOUND_FIELDS} fields", file=sys.stderr)
        over.append("peakRss")
    if over:
        sys.exit(1)


if __name__ == "__main__":
    main()
