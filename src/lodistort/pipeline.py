"""Estimation pipelines, each named by its chain of stages.

A name spells its chain, newest stage first: fcp_mwmpdr_wpe runs wpe, then
mwmpdr, then fcp (_stages).  Any chain NAME_RULE spells runs: an optional
fcp, at most one beamformer and an optional wpe (wpe after a beamformer
would dereverberate the unbeamformed field).  A beamformer needs P >= 2
channels; without one, fcp runs on channel ref_mic alone (_channels).
PIPELINE_NAMES is the default set.  run_pipeline runs the estimator, then
one _STAGES function per stage over a per-run context, naming each output
by the chain so far (wpe -> mwmpdr_wpe -> fcp_mwmpdr_wpe).  Stages call the
library functions a manual composition would, in the same order, so their
outputs are bit-identical to composing by hand.  The wpe stage runs
linpred.wpe_field on any channel count; on the one channel of a mono run
that equals linpred.wpe bit for bit.  Every run analyzes and resynthesizes
with the one STFT (StftConfig's constants), in whose frames the defaults of
taps, delay and taps_fcp are counted.

Calls on the same scene share their common nodes.  The memo is a weak map
with at most one entry: the mixture object -> (a weak reference to the
target, the scene's nodes).  A call is on that scene when its mixture and
target are those objects (TimeSignals are read-only values, so identity is
exact); another scene replaces the entry before anything is computed, and
the entry goes with its mixture.  Each node is keyed by what it reads: the
mixture's STFT by name; the scoring reference and the mixture's score by
(ref_mic, name); the estimate by (estimator, est_err_snr_db, seed, ref_mic),
or None for an external estimate, whose file may change, and None
propagates.  A call that will build a corrupted oracle estimate submits
its error draws to the worker pool before the mixture's STFT, and the
estimate node takes the job's result (see the estimator module).  The
node holds what the stages read of the estimate: a contiguous copy of
channel ref_mic and, when the estimate has all P >= 2 of the mixture's
channels, their signal covariances (mvdr, gev), computed once when the node
is built; the T x F x P estimate is dropped then.  The
estimate's wave and score append their name.  A stage's input is keyed by
the spec's params_dict() values; a mono run appends a marker, each stage its
name, and each sub-node (the masked covariances, a wave, a score) its name.
Stage outputs, waves and scores are kept only when several default
pipelines run that chain; other chains reuse them.  The target's STFT is
not kept: the call that builds the estimate or the reference computes it,
takes the reference first (ScoreReference copies what it keeps), builds
the estimate in it (the estimator module's in-place contract) and drops it
on return.  Shared arrays are read-only, and shared scores are frozen
MetricsReports.
"""

import functools
import itertools
import math
import os
import threading
import weakref
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import beamform, linpred, stats
from ._rules import check_channel, check_fields, check_shapes
from .estimator import ORACLE_KINDS, _build, _start_draws, load_external_estimate
from .fsio import camel
from .linalg import DEFAULT_LOADING
from .metrics import ScoreReference, score_against
from .scene import Scene
from .specio import write_spectrogram
from .stft import TimeSignal, analyze, synthesize

# prediction order per channel count; other counts take the nearest entry
_TAP_TABLE = {1: 37, 2: 30, 6: 10, 8: 8}


def default_taps(num_channels):
    """Default prediction order for a channel count (nearest tabulated P,
    ties toward the larger count)."""
    if num_channels < 1:
        raise ValueError("num_channels must be >= 1")
    best = min(_TAP_TABLE, key=lambda p: (abs(p - num_channels), -p))
    return _TAP_TABLE[best]


_BEAMFORMERS = ("mvdr", "mmvdr", "mwmpdr", "mcwf", "gev")
NAME_RULE = f"[fcp_][{'|'.join(b + '_' for b in _BEAMFORMERS)}][wpe]"
# every chain NAME_RULE spells, with at least one stage
_CHAINS = {"_".join(filter(None, parts)) for parts in itertools.product(
    ("fcp", None), _BEAMFORMERS + (None,), ("wpe", None))} - {""}

# the default set: the chains the test suite and the benchmark run
PIPELINE_NAMES = ("wpe", "fcp", "fcp_wpe", "mvdr", "mmvdr", "mmvdr_wpe",
                  "mwmpdr_wpe", "mcwf_wpe", "fcp_mwmpdr_wpe", "gev", "mcwf")


def _stages(name):
    # the chain a pipeline name spells, oldest stage first
    return tuple(name.split("_")[::-1])


def _channels(name):
    # "multi" (P >= 2), "mono" (channel q only) or "any"
    stages = set(_stages(name))
    return ("multi" if stages & set(_BEAMFORMERS) else
            "mono" if "fcp" in stages else "any")


def _paths(name):
    # each stage output's key less the estimate's: a mono marker, the stages so far
    head = ("mono",) if _channels(name) == "mono" else ()
    stages = _stages(name)
    return [head + stages[:k] for k in range(1, len(stages) + 1)]


# chains several default pipelines run: only their outputs, waves and scores are kept
_RUN = [path for name in PIPELINE_NAMES for path in _paths(name)]
_KEPT = {path for path in _RUN if _RUN.count(path) > 1}


def list_pipelines():
    """The default pipelines with their stages, channel use and description."""
    return {name: {"stages": ["estimator", *_stages(name)], "channels": _channels(name),
                   "description": ", then ".join(" ".join(_STAGES[stage].__doc__.split())
                                                 for stage in _stages(name))}
            for name in PIPELINE_NAMES}


@dataclass(frozen=True)
class PipelineSpec:
    """Configuration of one pipeline run.

    Attributes:
        name: a chain of stages as NAME_RULE spells it, newest stage
            first, such as fcp_mcwf_wpe; PIPELINE_NAMES is the default set
        estimator: one of ORACLE_KINDS, or "external", which reads
            estimate_path (only it does); finite est_err_snr_db corrupts
            an oracle estimate
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
        if self.name not in _CHAINS:
            raise ValueError(f"unknown pipeline {self.name!r}; a name spells "
                             f"{NAME_RULE}, at least one stage")
        # only taps may be None: its default follows the channel count; the
        # upper bound of ref_mic needs the scene's, so run_pipeline checks it
        check_fields(self, optional=("taps",))
        kinds = ORACLE_KINDS + ("external",)
        if self.estimator not in kinds:
            raise ValueError(f"unknown estimator {self.estimator!r}; expected one of {kinds}")
        if (self.estimator == "external") != (self.estimate_path is not None):
            raise ValueError("estimator 'external' needs estimate_path, and only it reads "
                             f"one (got {self.estimator!r} and {self.estimate_path!r})")

    def params_dict(self):
        # the estimate's file is an input of the run, not one of its parameters
        return {key: getattr(self, field) for field, key in PARAM_KEYS.items()
                if field != "estimate_path"}


# PipelineSpec field -> its camelCase key in metrics.json and `enhance --config`
PARAM_KEYS = {f.name: camel(f.name) for f in fields(PipelineSpec) if f.name != "name"}


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


def _node(nodes, key, compute):
    """The node stored under `key`, or compute()'s value, frozen and stored.
    A None key marks a node that is not shared (an external estimate and
    what follows from it): it is computed on every call."""
    if key is None:
        return compute()
    value = nodes.get(key)
    if value is None:
        value = nodes.setdefault(key, _freeze(compute()))
    return value


# mixture -> (weak reference to the target, nodes): one scene at most
_memo = weakref.WeakKeyDictionary()
_memo_lock = threading.Lock()


def _scene_nodes(mixture, target):
    # weak references to live objects compare their referents, which
    # TimeSignal compares by identity; a dead one equals only itself
    target_ref = target and weakref.ref(target)
    with _memo_lock:
        entry = _memo.get(mixture)
        if entry is None or entry[0] != target_ref:
            _memo.clear()  # before anything of the new scene is computed
            entry = _memo[mixture] = (target_ref, {})
    return entry[1]


@dataclass
class _Context:
    """What one run's stages read and advance."""

    spec: PipelineSpec
    field: np.ndarray  # T x F x C input of the next multichannel stage
    q: int  # reference channel within field
    ref: np.ndarray  # T x F output of the last stage at the reference mic
    est_q: np.ndarray  # T x F estimate at the reference mic
    est_cov: stats.CovarianceSet  # signal covariances of the estimate, or None
    nodes: dict
    key: tuple = None  # memo key of field and ref, None after an external estimate

    @cached_property
    def lam(self):
        # power weights of the estimate, shared by wpe and mwmpdr
        return stats.psd_floor(self.est_q, self.spec.epsilon)

    def node(self, compute):
        # the sub-node compute(self) of field and ref, named by the function
        name = compute.__name__
        return _node(self.nodes, self.key and self.key + (name,), lambda: compute(self))


def _wpe(ctx):
    """delayed linear-prediction dereverberation"""
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
    # the estimate's covariances against the mixture, whatever field the stage
    # beamforms: mvdr_wpe and gev_wpe weight the WPE output by the mixture's
    if ctx.est_cov is None:  # a one-channel estimate: the shape error
        check_shapes(mixture=(ctx.field, "T x F x P"),
                     estimate=(ctx.est_q[:, :, None], "T x F x P"))
    return ctx.est_cov


def _mvdr(ctx):
    """distortionless beamformer from the estimate's covariances against the mixture"""
    weights = beamform.mvdr(_signal_covariances(ctx), ctx.q, ctx.spec.loading)
    return ctx.field, beamform.apply_beamformer(weights, ctx.field)


def _mmvdr(ctx):
    """distortionless beamformer from mask-weighted covariances"""
    weights = beamform.mvdr(ctx.node(_masked_covariances), ctx.q, ctx.spec.loading)
    return ctx.field, beamform.apply_beamformer(weights, ctx.field)


def _mwmpdr(ctx):
    """power-weighted distortionless beamformer"""
    steering = ctx.node(_masked_covariances).steering
    phi_y_prime = stats.weighted_covariance(ctx.field, ctx.lam)
    weights = beamform.wmpdr(phi_y_prime, steering, ctx.q, ctx.spec.loading)
    return ctx.field, beamform.apply_beamformer(weights, ctx.field)


def _mcwf(ctx):
    """multichannel Wiener filter regressing the input onto the estimate"""
    weights = beamform.mcwf(ctx.field, ctx.est_q, ctx.spec.loading)
    return ctx.field, beamform.apply_beamformer(weights, ctx.field)


def _gev(ctx):
    """generalized-eigenvector beamformer with blind analytic normalization, from
    the estimate's covariances against the mixture"""
    weights = beamform.gev_ban(_signal_covariances(ctx), ctx.q, ctx.spec.loading)
    return ctx.field, beamform.apply_beamformer(weights, ctx.field)


def _fcp(ctx):
    """forward-filter compensation against the estimate"""
    spec = ctx.spec
    _, out = linpred.fcp(ctx.ref, ctx.est_q, spec.taps_fcp, spec.epsilon_fcp,
                         spec.loading)
    return ctx.field, out


# stage name -> function of the run context returning (field, T x F output)
_STAGES = {"wpe": _wpe, "mvdr": _mvdr, "mmvdr": _mmvdr, "mwmpdr": _mwmpdr,
           "mcwf": _mcwf, "gev": _gev, "fcp": _fcp}


def _estimate(spec, mix_spec, tgt_spec, draws=None):
    # (a contiguous copy of channel ref_mic, the signal covariances of all
    # P >= 2 channels or None): the estimate node, which drops the estimate;
    # an oracle's is built in tgt_spec, with the draws job if one was started
    if spec.estimator == "external":
        est = load_external_estimate(spec.estimate_path, mix_spec.shape)
    else:
        est = _build(tgt_spec, spec.estimator, spec.est_err_snr_db, spec.seed, mix_spec,
                     draws)
    cov = None
    if est.values.shape[2] == mix_spec.shape[2] >= 2:
        cov = stats.signal_covariances(mix_spec, est.values)
    return np.ascontiguousarray(est.channel(spec.ref_mic)), cov


def _estimate_key(spec):
    # the estimate node's key: None for an external estimate, never shared
    if spec.estimator == "external":
        return None
    return spec.estimator, spec.est_err_snr_db, spec.seed, spec.ref_mic


def _estimate_and_reference(nodes, spec, mix_spec, target, draws):
    """(the estimate's node, the ScoreReference at ref_mic or None without
    a target).  The target's STFT is read only here: it is computed once if
    either node is, the reference taken from it first, the estimate built
    in its buffer, and it is dropped on return."""
    tgt_spec = functools.cache(lambda: target and analyze(target))
    q = spec.ref_mic
    reference = target and _node(
        nodes, (q, "reference"),
        lambda: ScoreReference(tgt_spec()[:, :, q], mix_spec[:, :, q]))
    est = _node(nodes, _estimate_key(spec),
                lambda: _estimate(spec, mix_spec, tgt_spec(), draws))
    return est, reference


def run_pipeline(scene_or_mixture, spec, target=None):
    """Run the chain spec.name spells on a scene or a raw mixture.

    Arguments:
        scene_or_mixture: Scene (target defaults to its direct path) or
            TimeSignal mixture
        spec: PipelineSpec
        target: TimeSignal of the clean target, of the mixture's sample and
            channel counts; required by oracle estimators and for metric
            computation
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

    channels = _channels(spec.name)
    num_mics = mixture.num_channels
    if channels == "multi" and num_mics < 2:
        raise ValueError(f"pipeline {spec.name!r} needs at least 2 channels")
    q = spec.ref_mic
    check_channel("ref_mic", q, num_mics)
    if target is not None:
        check_shapes(mixture=(mixture.samples, "N x C"), target=(target.samples, "N x C"))
    elif spec.estimator != "external":
        raise ValueError(f"estimator {spec.estimator!r} needs the target signal")

    nodes = _scene_nodes(mixture, target)
    est_key = _estimate_key(spec)
    # an oracle estimate to corrupt: its error is drawn on the pool meanwhile
    draws = None
    if est_key is not None and est_key not in nodes:
        draws = _start_draws(mixture, spec.est_err_snr_db, spec.seed)
    mix_spec = _node(nodes, "mixture", lambda: analyze(mixture))  # T x F x P
    mix_q = mix_spec[:, :, q]
    (est_q, est_cov), reference = _estimate_and_reference(
        nodes, spec, mix_spec, target, draws)
    # stages read every parameter; None after an external estimate
    key = est_key and tuple(spec.params_dict().values())

    if channels == "mono":  # channel q alone, as the context's channel 0
        ctx = _Context(spec, mix_spec[:, :, q:q + 1], 0, mix_q, est_q, est_cov, nodes)
    else:
        ctx = _Context(spec, mix_spec, q, mix_q, est_q, est_cov, nodes)
    # (name, T x F output, key when kept)
    outputs = [("estimate", est_q, est_key)]
    for path in _paths(spec.name):  # path ends with the stage to run
        ctx.key = key and key + path[:-1]  # the stage's input
        out_key = key and key + path if path in _KEPT else None
        ctx.field, ctx.ref = _node(nodes, out_key, lambda: _STAGES[path[-1]](ctx))
        # named by the chain so far, newest stage first
        outputs.append(("_".join(path[::-1]).removesuffix("_mono"), ctx.ref, out_key))

    # resynthesis and scoring once every stage has run (measured faster than
    # between stages); a kept output's wave and score are kept too
    stages, waves, metrics = {}, {}, {}
    num_samples = mixture.num_samples
    if target is not None:
        tgt_wave = target.channel(q)
        metrics["mixture"] = _node(
            nodes, (q, "mixture"),
            lambda: score_against(reference, mix_q, mixture.channel(q), tgt_wave))
    for name, out, out_key in outputs:
        stages[name] = out
        waves[name] = wave = _node(nodes, out_key and out_key + ("wave",),
                                   lambda: synthesize(out, num_samples=num_samples))
        if target is not None:
            metrics[name] = _node(
                nodes, out_key and out_key + ("score",),
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
