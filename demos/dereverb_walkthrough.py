#!/usr/bin/env python3
"""Step through delayed linear prediction and forward compensation by hand.

Rather than calling run_pipeline, this demo assembles the dereverberation
stages from their parts so the intermediate objects are visible:

  1. STFT the mixture and the oracle target.
  2. Floor the target power into prediction weights.
  3. WPE: predict each frame from frames at least `delay` steps back and
     subtract the prediction.  The delay protects the direct sound, which
     lives in the most recent frames, so only the late tail is removed.
  4. FCP: filter the target estimate forward onto the mixture and keep the
     part of the mixture the filtered estimate cannot explain away.
"""

import numpy as np

from lodistort import (
    RoomSpec,
    analyze,
    fcp,
    psd_floor,
    render_scene,
    si_sdr,
    synth_speech_like,
    synthesize,
    wpe,
)


def score(label, spec, target_wave):
    wave = synthesize(spec, num_samples=target_wave.size).channel(0)
    print(f"  {label:24s} SI-SDR {si_sdr(wave, target_wave):+7.2f} dB")


def main():
    room = RoomSpec(num_mics=2, t60_seconds=0.7,
                    rir_len_samples=12000, direct_delay_samples=(8, 11),
                    seed=21)
    source = synth_speech_like(48000, seed=[21, 1])
    scene = render_scene(source, [], room, snr_db=None)

    mix_spec = analyze(scene.mixture)          # T x F x 2
    tgt_spec = analyze(scene.direct_path)[:, :, 0]
    target_wave = scene.direct_path.channel(0)
    print(f"scene: T60 {room.t60_seconds} s, "
          f"{mix_spec.shape[0]} frames x {mix_spec.shape[1]} bins x 2 mics")
    score("mixture", mix_spec[:, :, 0], target_wave)

    # weighted prediction with the oracle target power as weights
    lam = psd_floor(tgt_spec)
    delay = 3
    for taps in (5, 15, 30):
        coeffs, dereverbed = wpe(mix_spec, lam, taps=taps, delay=delay)
        score(f"wpe taps={taps}", dereverbed, target_wave)
    print(f"  (last filter: {coeffs.shape[1]} coefficients per bin, "
          f"delay {delay} frames)")

    # forward compensation against the oracle target estimate
    _, compensated = fcp(mix_spec[:, :, 0], tgt_spec)
    score("fcp", compensated, target_wave)

    # and chained: compensate what prediction left behind
    _, dereverbed = wpe(mix_spec, lam, taps=30, delay=3)
    _, chained = fcp(dereverbed, tgt_spec)
    score("wpe + fcp", chained, target_wave)

    before = np.linalg.norm(mix_spec[:, :, 0] - tgt_spec)
    after = np.linalg.norm(chained - tgt_spec)
    print(f"spectrogram distance to target: {before:.1f} -> {after:.1f}")


if __name__ == "__main__":
    main()
