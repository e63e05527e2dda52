"""Named estimation pipelines.

Each pipeline composes the public building blocks in a fixed order —
estimator, optional per-mic dereverberation, masks and covariances, a
beamformer, an optional forward-filter compensation — and reports every
intermediate estimate alongside the final one.  run_pipeline calls exactly
the same functions a manual composition would, in the same order, so its
outputs are bit-identical to composing by hand.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import beamform, linpred, stats
from .estimator import ORACLE_KINDS, corrupt_estimate, load_external_estimate, oracle_estimate
from .metrics import score_estimate
from .scene import Scene
from .specio import write_spectrogram
from .stft import StftConfig, TimeSignal, analyze, synthesize

# prediction order per channel count; other counts take the nearest entry
_TAP_TABLE = {1: 37, 2: 30, 6: 10, 8: 8}


def default_taps(num_channels):
    """Default prediction order for a channel count (nearest tabulated P,
    ties toward the larger count)."""
    if num_channels < 1:
        raise ValueError("num_channels must be >= 1")
    best = min(_TAP_TABLE, key=lambda p: (abs(p - num_channels), -p))
    return _TAP_TABLE[best]


@dataclass(frozen=True)
class PipelineInfo:
    stages: tuple
    channels: str  # "mono" (uses channel q only), "any", or "multi" (P >= 2)
    description: str


CATALOG = {
    "wpe": PipelineInfo(
        ("estimator", "wpe"),
        "any",
        "delayed linear-prediction dereverberation of the reference channel",
    ),
    "fcp": PipelineInfo(
        ("estimator", "fcp"),
        "mono",
        "forward-filter compensation of the mixture against the estimate",
    ),
    "fcp_wpe": PipelineInfo(
        ("estimator", "wpe", "fcp"),
        "mono",
        "single-channel dereverberation followed by forward-filter compensation",
    ),
    "mvdr": PipelineInfo(
        ("estimator", "mvdr"),
        "multi",
        "distortionless beamformer from estimate/residual covariances",
    ),
    "mmvdr": PipelineInfo(
        ("estimator", "mmvdr"),
        "multi",
        "distortionless beamformer from mask-weighted mixture covariances",
    ),
    "mmvdr_wpe": PipelineInfo(
        ("estimator", "wpe", "mmvdr"),
        "multi",
        "per-mic dereverberation, then mask-based distortionless beamformer",
    ),
    "mwmpdr_wpe": PipelineInfo(
        ("estimator", "wpe", "mwmpdr"),
        "multi",
        "per-mic dereverberation, then power-weighted distortionless beamformer",
    ),
    "mcwf_wpe": PipelineInfo(
        ("estimator", "wpe", "mcwf"),
        "multi",
        "per-mic dereverberation, then multichannel Wiener filter",
    ),
    "fcp_mwmpdr_wpe": PipelineInfo(
        ("estimator", "wpe", "mwmpdr", "fcp"),
        "multi",
        "dereverberation, power-weighted beamforming, forward-filter compensation",
    ),
    "gev": PipelineInfo(
        ("estimator", "gev"),
        "multi",
        "generalized-eigenvector beamformer with blind analytic normalization",
    ),
    "mcwf": PipelineInfo(
        ("estimator", "mcwf"),
        "multi",
        "multichannel Wiener filter regressing the mixture onto the estimate",
    ),
}

PIPELINE_NAMES = tuple(CATALOG)


def list_pipelines():
    """Catalog of pipeline names with their stage diagrams."""
    return {
        name: {
            "stages": list(info.stages),
            "channels": info.channels,
            "description": info.description,
        }
        for name, info in CATALOG.items()
    }


@dataclass(frozen=True)
class PipelineSpec:
    """Configuration of one pipeline run.

    Attributes:
        name: one of PIPELINE_NAMES
        estimator: oracle kind, "external" (with estimate_path), or the
            oracles' names; finite est_err_snr_db corrupts the estimate
        taps: prediction order for the dereverberation stage
            (None = per-channel-count default)
        taps_fcp: filter length of the compensation stage
        delay: prediction delay in frames
        epsilon / epsilon_fcp: relative floors for the power weights
        loading: relative diagonal loading for every matrix solve
    """

    name: str
    estimator: str = "oracleDirect"
    est_err_snr_db: float = math.inf
    ref_mic: int = 0
    taps: int = None
    taps_fcp: int = 40
    delay: int = 3
    epsilon: float = 1e-5
    epsilon_fcp: float = 1e-3
    loading: float = 1e-8
    seed: int = 0
    estimate_path: str = None

    def __post_init__(self):
        for name in ("epsilon", "epsilon_fcp"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (math.isfinite(self.loading) and self.loading >= 0):
            raise ValueError(
                f"loading must be nonnegative and finite, got {self.loading}"
            )
        if math.isnan(self.est_err_snr_db) or self.est_err_snr_db == -math.inf:
            raise ValueError(
                f"est_err_snr_db must be finite or +inf, got {self.est_err_snr_db}"
            )
        for name in ("taps", "taps_fcp", "delay"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def params_dict(self):
        return {
            "estimator": self.estimator,
            "estErrSnrDb": self.est_err_snr_db,
            "refMic": self.ref_mic,
            "taps": self.taps,
            "tapsFcp": self.taps_fcp,
            "delay": self.delay,
            "epsilon": self.epsilon,
            "epsilonFcp": self.epsilon_fcp,
            "loading": self.loading,
            "seed": self.seed,
        }


@dataclass
class PipelineResult:
    """Everything a pipeline run produced.

    stages maps stage names (insertion-ordered, ending with the pipeline
    name) to T x F estimates at the reference mic; waves holds their
    resynthesized signals; metrics (when a target was available) includes an
    extra "mixture" entry scoring the unprocessed reference channel.
    """

    spec: PipelineSpec
    stages: dict
    waves: dict
    metrics: dict
    mixture_spectrogram: np.ndarray
    cfg: StftConfig

    @property
    def final(self):
        return self.stages[self.spec.name]

    @property
    def final_wave(self):
        return self.waves[self.spec.name]


def _make_estimate(spec, mix_spec, tgt_spec, cfg):
    if spec.estimator in ORACLE_KINDS:
        if tgt_spec is None:
            raise ValueError(
                f"estimator {spec.estimator!r} needs the target signal"
            )
        est = oracle_estimate(mix_spec, tgt_spec, spec.estimator, spec.ref_mic)
        if not math.isinf(spec.est_err_snr_db):
            est = corrupt_estimate(est, spec.est_err_snr_db, spec.seed)
        return est
    if spec.estimator == "external":
        if spec.estimate_path is None:
            raise ValueError("external estimator needs estimate_path")
        return load_external_estimate(
            spec.estimate_path, mix_spec.shape, cfg, spec.ref_mic
        )
    raise ValueError(
        f"unknown estimator {spec.estimator!r}; expected one of "
        f"{ORACLE_KINDS + ('external',)}"
    )


def run_pipeline(scene_or_mixture, spec, target=None, cfg=StftConfig()):
    """Run one named pipeline on a scene or a raw mixture.

    Arguments:
        scene_or_mixture: Scene (target defaults to its direct path) or
            TimeSignal mixture
        spec: PipelineSpec
        target: TimeSignal of the clean target; required by oracle
            estimators and for metric computation
    Return:
        PipelineResult
    """
    if isinstance(scene_or_mixture, Scene):
        mixture = scene_or_mixture.mixture
        if target is None:
            target = scene_or_mixture.direct_path
    elif isinstance(scene_or_mixture, TimeSignal):
        mixture = scene_or_mixture
    else:
        raise TypeError("expected a Scene or TimeSignal")

    if spec.name not in CATALOG:
        raise ValueError(
            f"unknown pipeline {spec.name!r}; valid names: {', '.join(CATALOG)}"
        )
    info = CATALOG[spec.name]
    num_mics = mixture.num_channels
    if info.channels == "multi" and num_mics < 2:
        raise ValueError(f"pipeline {spec.name!r} needs at least 2 channels")
    q = spec.ref_mic
    if not 0 <= q < num_mics:
        raise ValueError(f"ref_mic {q} out of range for {num_mics} channels")
    if target is not None and target.num_channels != num_mics:
        raise ValueError("target and mixture channel counts differ")

    mix_spec = analyze(mixture, cfg)  # T x F x P
    tgt_spec = analyze(target, cfg) if target is not None else None
    est = _make_estimate(spec, mix_spec, tgt_spec, cfg)
    est_q = est.channel(q)
    mix_q = mix_spec[:, :, q]

    stages = {"estimate": est_q}
    name = spec.name

    # dereverberation stage
    wpe_field = None
    wpe_q = None
    lam = None
    if "wpe" in info.stages:
        lam = stats.psd_floor(est_q, spec.epsilon)
        if name == "wpe":
            taps = spec.taps or default_taps(num_mics)
            _, wpe_q = linpred.wpe(mix_spec, lam, taps, spec.delay, q, spec.loading)
        elif info.channels == "mono":
            taps = spec.taps or default_taps(1)
            _, wpe_q = linpred.wpe(
                mix_spec[:, :, q:q + 1], lam, taps, spec.delay, 0, spec.loading
            )
        else:
            taps = spec.taps or default_taps(num_mics)
            _, wpe_field = linpred.wpe_field(
                mix_spec, lam, taps, spec.delay, spec.loading
            )
            wpe_q = wpe_field[:, :, q]
        stages["wpe"] = wpe_q

    # beamforming stage
    if name in ("mvdr", "gev"):
        if est.num_channels != num_mics:
            raise ValueError(
                f"pipeline {name!r} needs a {num_mics}-channel estimate, got "
                f"{est.num_channels}"
            )
        cov = stats.signal_covariances(mix_spec, est.values)
        if name == "mvdr":
            cov.steering = stats.steering_vector(cov.phi_s, q)
            weights = beamform.mvdr(cov, q, spec.loading)
        else:
            weights = beamform.gev_ban(cov, q, spec.loading)
        stages[name] = beamform.apply_beamformer(weights, mix_spec)
    elif name == "mcwf":
        weights = beamform.mcwf(mix_spec, est_q, q, spec.loading)
        stages[name] = beamform.apply_beamformer(weights, mix_spec)
    elif name == "mmvdr":
        mask = stats.compute_mask(est_q, mix_q)
        cov = stats.masked_covariances(mix_spec, mask)
        cov.steering = stats.steering_vector(cov.phi_s, q)
        weights = beamform.mvdr(cov, q, spec.loading)
        stages[name] = beamform.apply_beamformer(weights, mix_spec)
    elif name == "mmvdr_wpe":
        mask = stats.compute_mask(est_q, wpe_q)
        cov = stats.masked_covariances(wpe_field, mask)
        cov.steering = stats.steering_vector(cov.phi_s, q)
        weights = beamform.mvdr(cov, q, spec.loading)
        stages[name] = beamform.apply_beamformer(weights, wpe_field)
    elif name in ("mwmpdr_wpe", "fcp_mwmpdr_wpe"):
        mask = stats.compute_mask(est_q, wpe_q)
        cov = stats.masked_covariances(wpe_field, mask)
        steering = stats.steering_vector(cov.phi_s, q)
        phi_y_prime = stats.weighted_covariance(wpe_field, lam)
        weights = beamform.wmpdr(phi_y_prime, steering, q, spec.loading)
        stages["mwmpdr_wpe"] = beamform.apply_beamformer(weights, wpe_field)
    elif name == "mcwf_wpe":
        weights = beamform.mcwf(wpe_field, est_q, q, spec.loading)
        stages[name] = beamform.apply_beamformer(weights, wpe_field)

    # compensation stage
    if name in ("fcp", "fcp_wpe", "fcp_mwmpdr_wpe"):
        if name == "fcp":
            reference = mix_q
        elif name == "fcp_wpe":
            reference = wpe_q
        else:
            reference = stages["mwmpdr_wpe"]
        _, compensated = linpred.fcp(
            reference, est_q, spec.taps_fcp, spec.epsilon_fcp, spec.loading
        )
        stages[name] = compensated

    # resynthesis and scoring
    waves = {}
    metrics = {}
    num_samples = mixture.num_samples
    if target is not None:
        tgt_q = tgt_spec[:, :, q]
        tgt_wave = target.channel(q)
        metrics["mixture"] = score_estimate(
            mix_q, tgt_q, mix_q, mixture.channel(q), tgt_wave, name, q
        )
    for stage_name, stage_spec in stages.items():
        wave = synthesize(stage_spec, cfg, num_samples)
        waves[stage_name] = wave
        if target is not None:
            metrics[stage_name] = score_estimate(
                stage_spec, tgt_q, mix_q, wave.channel(0), tgt_wave, name, q
            )
    return PipelineResult(spec, stages, waves, metrics, mix_spec, cfg)


def write_feature_bundle(result, out_dir):
    """Write the feature set a second-stage predictor would consume.

    One LDSPEC1 file per input: the full multichannel mixture, the first-stage
    estimate, and every low-distortion stage estimate.

    Return:
        dict mapping feature names to file paths
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    mixture_path = os.path.join(out_dir, "mixture.ldspec")
    write_spectrogram(mixture_path, result.mixture_spectrogram)
    paths["mixture"] = mixture_path
    for stage_name, stage_spec in result.stages.items():
        path = os.path.join(out_dir, f"{stage_name}.ldspec")
        write_spectrogram(path, stage_spec)
        paths[stage_name] = path
    return paths
