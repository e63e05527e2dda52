"""Named estimation pipelines.

CATALOG lists each pipeline's stages in order, and run_pipeline runs exactly
that list: the estimator, then one _STAGES function per stage over a per-run
context, naming each output by the chain so far, newest stage first (wpe ->
mwmpdr_wpe -> fcp_mwmpdr_wpe).  Stages call the library functions a manual
composition would, in the same order, so their outputs are bit-identical to
composing by hand.  The wpe stage runs linpred.wpe_field on any channel
count; on the one channel of a mono run that equals linpred.wpe bit for bit.

Calls on the same scene share their common nodes.  A module-level memo keeps
one scene, identified by a SHA-256 digest of the StftConfig and of the
mixture's and target's shapes, sample rates and samples.  Its STFTs are
keyed by name, every other node by one rule: the estimate's key is the
spec's params_dict() values, or None for an external estimate (its file may
change between calls), and None propagates; a mono run appends a marker,
each stage its name, and each sub-node (the mask with its masked covariances
and steering, the signal covariances, a wave, a score, the scoring reference)
its own name to its input's key.  A stage's output, wave and score are kept
only when several CATALOG pipelines run its chain of stages.  A call on a
different digest drops the old scene before computing anything; the scene
also goes when the mixture object it was built from is collected.  Shared
arrays are read-only, including those a PipelineResult exposes, and shared
scores are frozen MetricsReports, handed out as they are.
"""

import math
import os
import threading
import weakref
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import beamform, linpred, stats
from .estimator import ORACLE_KINDS, check_est_err_snr_db, corrupt_estimate
from .estimator import load_external_estimate, oracle_estimate
from .linalg import DEFAULT_LOADING
from .metrics import ScoreReference, score_against
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


def _paths(info):
    # each stage output's key less the estimate's: a mono marker, the stages so far
    head = ("mono",) if info.channels == "mono" else ()
    return [head + info.stages[1:k] for k in range(2, len(info.stages) + 1)]


# chains several pipelines run: only their outputs, waves and scores are kept
_RUN = [path for info in CATALOG.values() for path in _paths(info)]
_KEPT = {path for path in _RUN if _RUN.count(path) > 1}


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
    taps_fcp: int = linpred.DEFAULT_TAPS_FCP
    delay: int = linpred.DEFAULT_DELAY
    epsilon: float = stats.DEFAULT_EPSILON
    epsilon_fcp: float = linpred.DEFAULT_EPSILON_FCP
    loading: float = DEFAULT_LOADING
    seed: int = 0
    estimate_path: str = None

    def __post_init__(self):
        if self.name not in CATALOG:
            raise ValueError(
                f"unknown pipeline {self.name!r}; valid names: {', '.join(CATALOG)}"
            )
        for name in ("epsilon", "epsilon_fcp"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (math.isfinite(self.loading) and self.loading >= 0):
            raise ValueError(
                f"loading must be nonnegative and finite, got {self.loading}"
            )
        check_est_err_snr_db(self.est_err_snr_db)
        # the upper bound needs the scene's channel count: run_pipeline checks it
        if self.ref_mic < 0:
            raise ValueError(f"ref_mic must be >= 0, got {self.ref_mic}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("taps", "taps_fcp", "delay"):
            value = getattr(self, name)
            # only taps has a default (None) chosen from the channel count
            if value is None and name == "taps":
                continue
            if value is None or value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def params_dict(self):
        # the estimate's file is an input of the run, not one of its parameters
        return {key: getattr(self, field) for field, key in PARAM_KEYS.items()
                if field != "estimate_path"}


def _camel(field):
    head, *words = field.split("_")
    return head + "".join(word.title() for word in words)


# PipelineSpec field -> its camelCase key in metrics.json and `enhance --config`
PARAM_KEYS = {f.name: _camel(f.name) for f in fields(PipelineSpec) if f.name != "name"}


@dataclass
class PipelineResult:
    """Everything a pipeline run produced.

    stages maps stage names (insertion-ordered, ending with the pipeline
    name) to T x F estimates at the reference mic; waves holds their
    resynthesized signals; metrics (when a target was available) includes an
    extra "mixture" entry scoring the unprocessed reference channel.  Arrays
    shared with other calls on the same scene (mixture_spectrogram, an oracle
    estimate, the multichannel wpe and mwmpdr_wpe stages, their waves) are read-only.
    """

    spec: PipelineSpec
    stages: dict
    waves: dict
    metrics: dict
    mixture_spectrogram: np.ndarray

    @property
    def final(self):
        return self.stages[self.spec.name]

    @property
    def final_wave(self):
        return self.waves[self.spec.name]


def make_estimate(spec, mix_spec, tgt_spec, cfg=None):
    """First-stage estimate for `spec`, a PipelineSpec or any object with its
    estimator, est_err_snr_db and seed fields (and estimate_path for the
    external estimator)."""
    if spec.estimator in ORACLE_KINDS:
        if tgt_spec is None:
            raise ValueError(
                f"estimator {spec.estimator!r} needs the target signal"
            )
        est = oracle_estimate(mix_spec, tgt_spec, spec.estimator)
        if not math.isinf(spec.est_err_snr_db):
            est = corrupt_estimate(est, spec.est_err_snr_db, spec.seed)
        return est
    if spec.estimator == "external":
        if spec.estimate_path is None:
            raise ValueError("external estimator needs estimate_path")
        return load_external_estimate(spec.estimate_path, mix_spec.shape, cfg)
    raise ValueError(
        f"unknown estimator {spec.estimator!r}; expected one of "
        f"{ORACLE_KINDS + ('external',)}"
    )


class _SceneNodes:
    """The memoized nodes of one scene: `get(key, compute)` returns the value
    stored under `key`, or computes, freezes and stores it.  A None key marks
    a node that must not be shared (an external estimate and what follows
    from it) and is always computed."""

    def __init__(self, digest):
        self.digest = digest
        self.values = {}
        self.finalizer = None

    def get(self, key, compute):
        if key is None:
            return compute()
        value = self.values.get(key)
        if value is None:
            value = self.values.setdefault(key, _freeze(compute()))
        return value


def _freeze(value):
    # shared nodes are read by every later call: make their arrays read-only
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            _freeze(item)
    return value


# the one scene whose nodes are kept between calls, swapped under the lock
# (reentrant: a finalizer may run during a collection inside the swap)
_memo = None
_memo_lock = threading.RLock()


def _scene_digest(mixture, target, cfg):
    import hashlib  # only run_pipeline needs it; `import lodistort` stays lean

    digest = hashlib.sha256(repr(cfg).encode())
    for signal in (mixture, target):
        if signal is None:
            digest.update(b"no signal")
            continue
        samples = np.ascontiguousarray(signal.samples)
        digest.update(repr((samples.shape, samples.dtype.str,
                            signal.sample_rate)).encode())
        digest.update(samples)
    return digest.digest()


def _forget(nodes_ref):
    # the finalizer holds the nodes weakly, so dropping _memo frees them
    global _memo
    with _memo_lock:
        if _memo is nodes_ref():
            _memo = None


def _scene_nodes(mixture, target, cfg):
    """The memo entry for this mixture and target, replacing the old one
    (dropped before anything new is computed) when the content differs.  An
    entry also goes when the mixture object it was built from is collected."""
    global _memo
    digest = _scene_digest(mixture, target, cfg)
    with _memo_lock:
        nodes = _memo
        if nodes is None or nodes.digest != digest:
            if nodes is not None:
                nodes.finalizer.detach()
            _memo = nodes = _SceneNodes(digest)
            nodes.finalizer = weakref.finalize(mixture, _forget,
                                              weakref.ref(nodes))
    return nodes


@dataclass
class _Context:
    """What one run's stages read and advance."""

    spec: PipelineSpec
    field: np.ndarray  # T x F x C input of the next multichannel stage
    q: int  # reference channel within field
    ref: np.ndarray  # T x F output of the last stage at the reference mic
    est: object  # TargetEstimate
    est_q: np.ndarray
    nodes: _SceneNodes
    key: tuple = None  # memo key of field and ref, None after an external estimate

    @cached_property
    def lam(self):
        # power weights of the estimate, shared by wpe and mwmpdr
        return stats.psd_floor(self.est_q, self.spec.epsilon)

    def node(self, compute):
        # the sub-node compute(self) of field and ref, named by the function
        name = compute.__name__
        return self.nodes.get(self.key and self.key + (name,), lambda: compute(self))


def _wpe(ctx):
    spec = ctx.spec
    taps = spec.taps or default_taps(ctx.field.shape[2])
    field = linpred.wpe_field(ctx.field, ctx.lam, taps, spec.delay, spec.loading)[1]
    return field, field[:, :, ctx.q]


def _masked_covariances(ctx):
    mask = stats.compute_mask(ctx.est_q, ctx.ref)
    cov = stats.masked_covariances(ctx.field, mask)
    cov.steering = stats.steering_vector(cov.phi_s, ctx.q)
    return cov


def _signal_covariances(ctx):
    return stats.signal_covariances(ctx.field, ctx.est.values)


def _mvdr(ctx):
    weights = beamform.mvdr(ctx.node(_signal_covariances), ctx.q, ctx.spec.loading)
    return ctx.field, beamform.apply_beamformer(weights, ctx.field)


def _mmvdr(ctx):
    weights = beamform.mvdr(ctx.node(_masked_covariances), ctx.q, ctx.spec.loading)
    return ctx.field, beamform.apply_beamformer(weights, ctx.field)


def _mwmpdr(ctx):
    steering = ctx.node(_masked_covariances).steering
    phi_y_prime = stats.weighted_covariance(ctx.field, ctx.lam)
    weights = beamform.wmpdr(phi_y_prime, steering, ctx.q, ctx.spec.loading)
    return ctx.field, beamform.apply_beamformer(weights, ctx.field)


def _mcwf(ctx):
    weights = beamform.mcwf(ctx.field, ctx.est_q, ctx.q, ctx.spec.loading)
    return ctx.field, beamform.apply_beamformer(weights, ctx.field)


def _gev(ctx):
    weights = beamform.gev_ban(ctx.node(_signal_covariances), ctx.q, ctx.spec.loading)
    return ctx.field, beamform.apply_beamformer(weights, ctx.field)


def _fcp(ctx):
    spec = ctx.spec
    _, out = linpred.fcp(ctx.ref, ctx.est_q, spec.taps_fcp, spec.epsilon_fcp,
                         spec.loading)
    return ctx.field, out


# CATALOG stage name -> function of the run context returning (field, T x F output)
_STAGES = {"wpe": _wpe, "mvdr": _mvdr, "mmvdr": _mmvdr, "mwmpdr": _mwmpdr,
           "mcwf": _mcwf, "gev": _gev, "fcp": _fcp}


def run_pipeline(scene_or_mixture, spec, target=None, cfg=StftConfig()):
    """Run one named pipeline on a scene or a raw mixture.

    Arguments:
        scene_or_mixture: Scene (target defaults to its direct path) or
            TimeSignal mixture
        spec: PipelineSpec
        target: TimeSignal of the clean target; required by oracle
            estimators and for metric computation
    Return:
        PipelineResult (shared arrays read-only; see the module docstring)
    """
    if isinstance(scene_or_mixture, Scene):
        mixture = scene_or_mixture.mixture
        if target is None:
            target = scene_or_mixture.direct_path
    elif isinstance(scene_or_mixture, TimeSignal):
        mixture = scene_or_mixture
    else:
        raise TypeError("expected a Scene or TimeSignal")

    info = CATALOG[spec.name]
    num_mics = mixture.num_channels
    if info.channels == "multi" and num_mics < 2:
        raise ValueError(f"pipeline {spec.name!r} needs at least 2 channels")
    q = spec.ref_mic
    if not 0 <= q < num_mics:
        raise ValueError(f"ref_mic {q} out of range for {num_mics} channels")
    if target is not None and target.num_channels != num_mics:
        raise ValueError("target and mixture channel counts differ")

    nodes = _scene_nodes(mixture, target, cfg)
    mix_spec = nodes.get("mixture", lambda: analyze(mixture, cfg))  # T x F x P
    tgt_spec = None
    if target is not None:
        tgt_spec = nodes.get("target", lambda: analyze(target, cfg))
    params = tuple(spec.params_dict().values())
    key = None if spec.estimator == "external" else params
    est = nodes.get(key, lambda: make_estimate(spec, mix_spec, tgt_spec, cfg))
    est_q = est.channel(q)
    mix_q = mix_spec[:, :, q]

    if info.channels == "mono":  # channel q alone, as the context's channel 0
        ctx = _Context(spec, mix_spec[:, :, q:q + 1], 0, mix_q, est, est_q, nodes)
    else:
        ctx = _Context(spec, mix_spec, q, mix_q, est, est_q, nodes)
    outputs = [("estimate", est_q, key)]  # (name, T x F output, key when kept)
    for k, path in enumerate(_paths(info), 1):  # path ends with stage k
        ctx.key = key and key + path[:-1]  # the stage's input
        out_key = key and key + path if path in _KEPT else None
        ctx.field, ctx.ref = nodes.get(out_key, lambda: _STAGES[path[-1]](ctx))
        outputs.append(("_".join(info.stages[k:0:-1]), ctx.ref, out_key))

    # resynthesis and scoring once every stage has run (measured faster than
    # between stages); a kept output's wave and score are kept too
    stages, waves, metrics = {}, {}, {}
    num_samples = mixture.num_samples
    if target is not None:
        tgt_wave = target.channel(q)
        reference = nodes.get(params + ("reference",),
                              lambda: ScoreReference(tgt_spec[:, :, q], mix_q))
        metrics["mixture"] = nodes.get(
            params + ("reference", "mixture"),
            lambda: score_against(reference, mix_q, mixture.channel(q), tgt_wave))
    for name, out, out_key in outputs:
        stages[name] = out
        waves[name] = wave = nodes.get(out_key and out_key + ("wave",),
                                       lambda: synthesize(out, cfg, num_samples))
        if target is not None:
            metrics[name] = nodes.get(
                out_key and out_key + ("score",),
                lambda: score_against(reference, out, wave.channel(0), tgt_wave))
    return PipelineResult(spec, stages, waves, metrics, mix_spec)


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
