"""Linear low-distortion target estimation for multichannel speech.

The package provides the complete linear back end of a two-stage enhancement
system: STFT processing, spatial statistics, four beamformers, two
linear-prediction dereverberators, their cascaded pipelines, and phase-aware
evaluation.  A first-stage estimate of the target spectrogram (here: oracles
or files, in a full system a learned model) drives every filter.
"""

from .beamform import apply_beamformer, gev_ban, mcwf, mvdr, wmpdr
from .errors import FormatError, SingularMatrixError
from .estimator import (
    ORACLE_KINDS,
    TargetEstimate,
    corrupt_estimate,
    load_external_estimate,
    oracle_estimate,
)
from .linpred import (
    build_delayed_stack,
    fcp,
    fcp_weight,
    solve_weighted_lp,
    wpe,
    wpe_field,
)
from .metrics import (
    MetricsReport,
    energy_mask,
    pdsacc,
    psnr,
    score_estimate,
    si_sdr,
)
from .phase_geometry import (
    PhaseCandidates,
    phase_candidates,
    sign_flip_probability,
    wrap_phase,
)
from .pipeline import (
    PIPELINE_NAMES,
    PipelineResult,
    PipelineSpec,
    default_taps,
    list_pipelines,
    run_pipeline,
    write_feature_bundle,
)
from .scene import (
    RoomSpec,
    Scene,
    generate_rir,
    render_noise_component,
    render_scene,
    synth_noise,
    synth_speech_like,
)
from .specio import read_spectrogram, write_spectrogram
from .stats import (
    CovarianceSet,
    compute_mask,
    masked_covariances,
    psd_floor,
    signal_covariances,
    steering_vector,
    weighted_covariance,
)
from .stft import StftConfig, TimeSignal, analyze, sqrt_hann_window, synthesize
from .wavio import read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "CovarianceSet",
    "FormatError",
    "MetricsReport",
    "ORACLE_KINDS",
    "PIPELINE_NAMES",
    "PhaseCandidates",
    "PipelineResult",
    "PipelineSpec",
    "RoomSpec",
    "Scene",
    "SingularMatrixError",
    "StftConfig",
    "TargetEstimate",
    "TimeSignal",
    "analyze",
    "apply_beamformer",
    "build_delayed_stack",
    "compute_mask",
    "corrupt_estimate",
    "default_taps",
    "energy_mask",
    "fcp",
    "fcp_weight",
    "generate_rir",
    "gev_ban",
    "list_pipelines",
    "load_external_estimate",
    "masked_covariances",
    "mcwf",
    "mvdr",
    "oracle_estimate",
    "pdsacc",
    "phase_candidates",
    "psd_floor",
    "psnr",
    "score_estimate",
    "read_spectrogram",
    "read_wav",
    "render_noise_component",
    "render_scene",
    "run_pipeline",
    "si_sdr",
    "sign_flip_probability",
    "signal_covariances",
    "solve_weighted_lp",
    "sqrt_hann_window",
    "steering_vector",
    "synth_noise",
    "synth_speech_like",
    "synthesize",
    "weighted_covariance",
    "wmpdr",
    "wpe",
    "wpe_field",
    "wrap_phase",
    "write_feature_bundle",
    "write_spectrogram",
    "write_wav",
]
