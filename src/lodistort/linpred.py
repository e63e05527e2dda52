"""Linear-prediction dereverberation.

Two flavors share one weighted least-squares core:

* wpe predicts the current frame from delayed past observation frames and
  subtracts the prediction (late-reverberation removal),
* fcp filters the current-and-past frames of a target estimate to match a
  reverberant reference, then removes the excess (the estimated reverberation
  of the estimate) from the reference.

The core works frequency-major: it takes its predictor source, targets and
weights as F x T x ... arrays and solves one D x D system per frequency bin,
D = taps * channels.  Bins are processed in chunks.  Each chunk builds its
own F x T x D delayed stack, a weighted conjugate copy of it, and its D x D
Grams, and CHUNK_BUDGET_BYTES bounds that working set.  Peak memory
therefore grows with the chunk, not with the full T x F x D stack or the
F x D x D Gram stack.  The Gram, the right-hand side and the prediction are
batched matrix products.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import hermitize, load_hermitian, solve_stack

DEFAULT_LOADING = 1e-8
# absolute floor for the prediction-error weights
WEIGHT_ABS_FLOOR = 1e-12
# bound on one bin chunk's delayed stack, weighted copy and D x D Grams;
# a single bin that exceeds it still runs alone
CHUNK_BUDGET_BYTES = 8 * 2 ** 20


@dataclass
class PredictionFilter:
    """Per-frequency prediction coefficients.

    Attributes:
        coeffs: complex array, F x (taps * channels); applied conjugated,
            prediction(t,f) = coeffs(f)^H stack(t,f)
        taps: prediction order
        delay: frame gap between predicted frame and newest predictor frame
        kind: "wpe" or "fcp"
    """

    coeffs: np.ndarray
    taps: int
    delay: int
    kind: str


def _check_lags(taps, delay):
    if taps < 1:
        raise ValueError(f"taps must be >= 1, got {taps}")
    if delay < 0:
        raise ValueError(f"delay must be >= 0, got {delay}")


def _stack_fmajor(field, taps, delay):
    # field F x T x P -> F x T x (taps * P), lag-major, channel-minor
    num_bins, num_frames, num_channels = field.shape
    lead = delay + taps - 1
    padded = np.zeros(
        (num_bins, lead + num_frames, num_channels), dtype=np.complex128
    )
    padded[:, lead:] = field
    # windows[f, t, p, j] = padded[f, t + j, p]: lag k sits at j = taps-1-k
    windows = sliding_window_view(padded[:, :num_frames + taps - 1], taps, axis=1)
    stack = np.empty(
        (num_bins, num_frames, taps, num_channels), dtype=np.complex128
    )
    stack[...] = windows[..., ::-1].transpose(0, 1, 3, 2)
    return stack.reshape(num_bins, num_frames, taps * num_channels)


def build_delayed_stack(field, taps, delay):
    """Stack delayed frames for prediction.

    Row t holds frames t-delay, t-delay-1, ..., t-delay-taps+1, channel-minor
    within each lag block; frames before the start of the signal are zeros.
    The result is a T x F x D view of a frequency-major F x T x D array.

    Arguments:
        field: complex spectrogram, T x F x P
        taps: number of lags K (>= 1)
        delay: base lag (>= 0)
    Return:
        complex array, T x F x (K * P)
    """
    field = np.asarray(field, dtype=np.complex128)
    if field.ndim != 3:
        raise ValueError(f"field must be T x F x P, got shape {field.shape}")
    _check_lags(taps, delay)
    return _stack_fmajor(field.transpose(1, 0, 2), taps, delay).transpose(1, 0, 2)


def _check_weights(weights, shape, name):
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != shape:
        raise ValueError(f"{name} shape does not match frames/bins {shape}")
    # a NaN fails both comparisons, so test for the good case
    if not np.all((weights > 0.0) & np.isfinite(weights)):
        raise ValueError(f"{name} must be finite and strictly positive")
    return weights


def _fmajor(arr):
    # T x F [x ...] -> contiguous F x T [x ...]
    return np.ascontiguousarray(np.swapaxes(arr, 0, 1))


def _solve_chunk(stack, targets, weights, loading):
    # conj(stack) / weights, transposed against the stack and the targets,
    # gives the conjugated Gram and right-hand side, so the solve returns
    # conj(coeffs): the factor the prediction stack @ conj(coeffs) applies
    weighted = np.conjugate(stack)
    weighted /= weights[:, :, None]
    weighted_t = weighted.transpose(0, 2, 1)
    gram = hermitize(np.matmul(weighted_t, stack))
    rhs = np.matmul(weighted_t, targets)
    return solve_stack(load_hermitian(gram, loading), rhs)


def _predict_fmajor(source, targets, weights, taps, delay, loading):
    """Weighted linear prediction of `targets` from delayed `source` frames.

    Arguments:
        source: F x T x P, the frames the delayed stack is built from
        targets: F x T x M
        weights: strictly positive F x T
    Return:
        (coefficients F x D x M, predictions F x T x M), D = taps * P
    """
    num_bins, num_frames, num_channels = source.shape
    dim = taps * num_channels
    coeffs = np.empty((num_bins, dim, targets.shape[2]), dtype=np.complex128)
    predictions = np.empty(targets.shape, dtype=np.complex128)
    # complex128 bytes per bin: the stack and its weighted copy (T x D each),
    # the Gram and the copies that symmetrizing and loading it make (D x D)
    per_bin = 16 * (2 * num_frames * dim + 3 * dim * dim)
    chunk = max(1, CHUNK_BUDGET_BYTES // per_bin)
    for lo in range(0, num_bins, chunk):
        bins = slice(lo, lo + chunk)
        stack = _stack_fmajor(source[bins], taps, delay)
        conj_coeffs = _solve_chunk(stack, targets[bins], weights[bins], loading)
        coeffs[bins] = np.conjugate(conj_coeffs)
        predictions[bins] = np.matmul(stack, conj_coeffs)
    return coeffs, predictions


def solve_weighted_lp(stack, target, weights, loading=DEFAULT_LOADING):
    """Per-frequency weighted least squares for prediction coefficients.

    Minimizes Sum_t |target(t,f) - g(f)^H stack(t,f)|^2 / weights(t,f) via the
    normal equations, with relative diagonal loading on the Gram matrix.  An
    identically zero stack yields the zero filter (the loading falls back to
    an absolute identity load, and the right-hand side vanishes).

    Arguments:
        stack: T x F x D predictors
        target: T x F
        weights: strictly positive T x F
    Return:
        coefficients g, F x D
    """
    stack = np.asarray(stack, dtype=np.complex128)
    target = np.asarray(target, dtype=np.complex128)
    if stack.ndim != 3:
        raise ValueError(f"stack must be T x F x D, got shape {stack.shape}")
    if target.shape != stack.shape[:2]:
        raise ValueError(
            f"target shape {target.shape} does not match stack frames/bins "
            f"{stack.shape[:2]}"
        )
    weights = _check_weights(weights, stack.shape[:2], "weights")
    # a given stack is its own one-tap, zero-delay stack
    coeffs, _ = _predict_fmajor(
        _fmajor(stack), _fmajor(target)[:, :, None], _fmajor(weights), 1, 0,
        loading,
    )
    return coeffs[:, :, 0]


def predict(coeffs, stack):
    """Apply prediction coefficients: out(t,f) = coeffs(f)^H stack(t,f)."""
    return np.einsum("fd,tfd->tf", np.conj(coeffs), stack)


def _check_wpe_inputs(field, psd, taps, delay):
    field = np.asarray(field, dtype=np.complex128)
    if field.ndim != 3:
        raise ValueError(f"field must be T x F x P, got shape {field.shape}")
    if delay < 1:
        raise ValueError(f"delay must be >= 1 for wpe, got {delay}")
    _check_lags(taps, delay)
    return field, _check_weights(psd, field.shape[:2], "psd")


def wpe(field, psd, taps, delay=3, ref_mic=0, loading=DEFAULT_LOADING):
    """Dereverberate one channel by delayed multichannel linear prediction.

    Arguments:
        field: observed spectrogram, T x F x P
        psd: positive prediction weights, T x F (floored target power)
        taps: prediction order K
        delay: prediction delay in frames (>= 1 so the direct frame and its
            immediate successors are never predicted away)
        ref_mic: channel to dereverberate
    Return:
        (PredictionFilter, dereverbed T x F)
    """
    field, psd = _check_wpe_inputs(field, psd, taps, delay)
    if not 0 <= ref_mic < field.shape[2]:
        raise ValueError(f"ref_mic {ref_mic} out of range")
    source = _fmajor(field)
    coeffs, predictions = _predict_fmajor(
        source, source[:, :, ref_mic:ref_mic + 1], _fmajor(psd), taps, delay,
        loading,
    )
    dereverbed = field[:, :, ref_mic] - predictions[:, :, 0].T
    return PredictionFilter(coeffs[:, :, 0], taps, delay, "wpe"), dereverbed


def wpe_field(field, psd, taps, delay=3, loading=DEFAULT_LOADING):
    """Dereverberate every channel with a shared stack and shared weights.

    One Gram factorization per frequency serves all channels (multiple
    right-hand sides).

    Return:
        (coefficients F x D x P, dereverbed field T x F x P)
    """
    field, psd = _check_wpe_inputs(field, psd, taps, delay)
    source = _fmajor(field)
    coeffs, predictions = _predict_fmajor(
        source, source, _fmajor(psd), taps, delay, loading
    )
    return coeffs, field - predictions.transpose(1, 0, 2)


def fcp_weight(reference, estimate, epsilon=1e-3):
    """Prediction-error weights from the reference-mic residual.

    max(epsilon * max |ref - est|^2, |ref - est|^2), floored absolutely so the
    weights stay strictly positive.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    residual_power = np.abs(
        np.asarray(reference, dtype=np.complex128)
        - np.asarray(estimate, dtype=np.complex128)
    ) ** 2
    if not np.all(np.isfinite(residual_power)):
        raise ValueError("reference and estimate must be finite")
    floored = np.maximum(epsilon * residual_power.max(), residual_power)
    return np.maximum(floored, WEIGHT_ABS_FLOOR)


def fcp(reference, estimate, taps=40, epsilon=1e-3, loading=DEFAULT_LOADING):
    """Forward-filter the estimate onto the reference, keep only the excess.

    The filter g' minimizes Sum_t |ref - g'^H stack(est)|^2 / eta with a
    zero-delay stack of the estimate's current and past frames; the output is

        ref - (g'^H stack(est) - est)

    i.e. the reference minus the estimated reverberation of the estimate.

    Arguments:
        reference, estimate: complex arrays, T x F
        taps: filter length K'
        epsilon: relative floor for the weights eta
    Return:
        (PredictionFilter, compensated T x F)
    """
    reference = np.asarray(reference, dtype=np.complex128)
    estimate = np.asarray(estimate, dtype=np.complex128)
    if reference.ndim != 2 or reference.shape != estimate.shape:
        raise ValueError(
            f"reference {reference.shape} and estimate {estimate.shape} must be "
            "matching T x F arrays"
        )
    _check_lags(taps, 0)
    eta = fcp_weight(reference, estimate, epsilon)
    coeffs, filtered = _predict_fmajor(
        _fmajor(estimate)[:, :, None], _fmajor(reference)[:, :, None],
        _fmajor(eta), taps, 0, loading,
    )
    compensated = reference - (filtered[:, :, 0].T - estimate)
    return PredictionFilter(coeffs[:, :, 0], taps, 0, "fcp"), compensated
