"""Shared fixtures: the seeded 20-scene pipeline suite and planted-reverb
scene builders used by both the module tests and the acceptance gate.

The suite is the most expensive fixture (about 11 s of Tier-1's 45 s on a
2-vCPU Xeon), so it is computed once per session and the wall time is
recorded inside the fixture for the runtime budget check.
"""

import time

import numpy as np
import pytest

from lodistort import (
    PIPELINE_NAMES,
    PipelineSpec,
    RoomSpec,
    StftConfig,
    render_scene,
    run_pipeline,
    synth_noise,
    synth_speech_like,
)

SUITE_NUM_SCENES = 20
SUITE_MICS = 6
SUITE_NUM_SAMPLES = 64000  # 4 s at 16 kHz


def suite_scene_params():
    """Deterministic per-scene (index, t60, snr_db, delay_offsets) draws."""
    rng = np.random.default_rng(2026)
    params = []
    for i in range(SUITE_NUM_SCENES):
        t60 = float(rng.uniform(0.2, 1.0))
        snr = float(rng.uniform(-8.0, 3.0))
        offsets = rng.integers(0, 6, size=SUITE_MICS)
        params.append((i, t60, snr, offsets))
    return params


def build_suite_scene(index, t60, snr_db, delay_offsets):
    seed = 100 + index
    room = RoomSpec(
        num_mics=SUITE_MICS,
        t60_seconds=t60,
        rir_len_samples=max(1024, int((t60 + 0.05) * 16000)),
        direct_delay_samples=tuple(8 + int(d) for d in delay_offsets),
        seed=seed,
    )
    source = synth_speech_like(SUITE_NUM_SAMPLES, seed=[seed, 1])
    noises = [
        synth_noise(SUITE_NUM_SAMPLES, seed=[seed, 2]),
        synth_noise(SUITE_NUM_SAMPLES, seed=[seed, 3]),
    ]
    return render_scene(source, noises, room, snr_db=snr_db)


@pytest.fixture(scope="session")
def scene_suite():
    """Run every pipeline over the 20-scene suite once.

    Returns a dict with per-pipeline suite means ("si", "psnr", "pdsacc"),
    the unprocessed-mixture means under "mixture", and the wall-clock
    seconds the whole computation took under "elapsed".
    """
    start = time.perf_counter()
    scores = {name: [] for name in PIPELINE_NAMES}
    scores["mixture"] = []
    for index, t60, snr, offsets in suite_scene_params():
        scene = build_suite_scene(index, t60, snr, offsets)
        for name in PIPELINE_NAMES:
            result = run_pipeline(scene, PipelineSpec(name))
            final = result.metrics[name]
            scores[name].append(
                (final.si_sdr_db, final.psnr_db, final.pdsacc_percent)
            )
        mix = result.metrics["mixture"]
        scores["mixture"].append((mix.si_sdr_db, mix.psnr_db, mix.pdsacc_percent))
    elapsed = time.perf_counter() - start

    means = {}
    for name, triples in scores.items():
        arr = np.asarray(triples)  # num_scenes x 3
        means[name] = {
            "si": float(arr[:, 0].mean()),
            "psnr": float(arr[:, 1].mean()),
            "pdsacc": float(arr[:, 2].mean()),
        }
    means["elapsed"] = elapsed
    return means


def planted_reverb_field(seed, num_frames=240, num_mics=2, reverb_taps=5,
                         delay=3, cfg=StftConfig()):
    """Transform-domain scene with known convolutive structure.

    The target frames are white complex Gaussians; each channel observes
    a per-channel gain of the current frame plus a per-frequency FIR of
    delayed frames (lags delay .. delay+reverb_taps-1).  Because the source
    frames are temporally white, the direct part is exactly the
    prediction-resistant component.

    Returns (mixture_field [T x F x P], direct_field [T x F x P]).
    """
    rng = np.random.default_rng([seed, 77])
    shape = (num_frames, cfg.num_bins)
    source = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    source /= np.sqrt(2.0)
    gains = rng.standard_normal((cfg.num_bins, num_mics)) \
        + 1j * rng.standard_normal((cfg.num_bins, num_mics))
    gains /= np.abs(gains)  # unit-modulus direct gains
    fir = 0.5 * (
        rng.standard_normal((cfg.num_bins, num_mics, reverb_taps))
        + 1j * rng.standard_normal((cfg.num_bins, num_mics, reverb_taps))
    )
    direct = source[:, :, None] * gains[None, :, :]
    reverb = np.zeros_like(direct)
    for k in range(reverb_taps):
        lag = delay + k
        reverb[lag:] += source[:-lag, :, None] * fir[None, :, :, k]
    return direct + reverb, direct


def rank_one_field(seed, num_frames=60, num_mics=3, cfg=StftConfig()):
    """Noiseless single-source field: every channel a fixed per-frequency
    complex gain of one white source.  Returns (field, source, gains)."""
    rng = np.random.default_rng([seed, 55])
    mags = 0.5 + rng.uniform(0.0, 1.0, size=(num_frames, cfg.num_bins))
    phases = rng.uniform(-np.pi, np.pi, size=(num_frames, cfg.num_bins))
    source = mags * np.exp(1j * phases)
    gains = rng.standard_normal((cfg.num_bins, num_mics)) \
        + 1j * rng.standard_normal((cfg.num_bins, num_mics))
    gains /= np.linalg.norm(gains, axis=1, keepdims=True)
    field = source[:, :, None] * gains[None, :, :]
    return field, source, gains


def random_psd_stack(rng, num_bins, num_mics, rows=None):
    """Well-conditioned random Hermitian PSD stack, num_bins x P x P."""
    rows = 2 * num_mics if rows is None else rows
    a = rng.standard_normal((num_bins, rows, num_mics)) \
        + 1j * rng.standard_normal((num_bins, rows, num_mics))
    return np.einsum("frp,frq->fpq", np.conj(a), a)
