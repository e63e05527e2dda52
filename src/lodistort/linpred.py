"""Linear-prediction dereverberation.

Two flavors share one weighted least-squares core:

* wpe predicts the current frame from delayed past observation frames and
  subtracts the prediction (late-reverberation removal),
* fcp filters the current-and-past frames of a target estimate to match a
  reverberant reference, then removes the excess (the estimated reverberation
  of the estimate) from the reference.

The core works frequency-major: it reads its predictor source, targets and
weights as F x T x ... arrays, in practice the transposed views of the
callers' T x F x ... arrays (no F-major copy is made), and solves one D x D
system per frequency bin, D = taps * channels.  The bins are independent,
so the core splits them into chunks and runs the chunks on the process-wide
worker pool of the _pool module, one worker per CPU in the process's
affinity mask (`os.sched_getaffinity`): the calling thread solves chunks
itself and the pool's threads help.  Each worker fills a workspace that the
calling thread allocates once per call: the chunk's zero-padded frames, its
F x T x D delayed stack, per bin the real 2D x 2D Gram of
linalg.hermitian_gram and the complex D x D Gram G, and an F x T x M
buffer that holds first the chunk's conjugated, scaled targets and then
its predictions.  The worker copies the predictions into the caller's
output bins, and wpe and fcp subtract in place, so no F x T x M copy of
the predictions exists either.  CHUNK_BUDGET_BYTES bounds every in-flight
chunk together (_bin_bytes is one bin's share), so peak memory grows with
the budget, not with the full T x F x D stack or the F x D x D Gram stack.

With weights w, the stack s is scaled in place by w^-1/2, so the weighted
normal equations become plain ones: G = Sum_t s' s'^H comes exactly
Hermitian from hermitian_gram and is loaded in place, and
coeffs = G^-1 Sum_t s' conj(z) with z = targets * w^-1/2.  The prediction
coeffs^H s is (s' @ conj(coeffs)) * w^1/2.  The right-hand side and the
prediction are batched matrix products.

While the workers run, numpy's OpenBLAS is held at one thread (see
_pool).  Where that cannot be done, the core runs with one worker: the same
code, serially on the caller.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _pool
from .linalg import DEFAULT_LOADING, hermitian_gram, load_diagonal, solve_stack
from .stats import psd_floor

# bound on every in-flight bin chunk together: each worker's padded frames,
# delayed stack, Grams and target/prediction buffer.  The worker count comes
# from CPU affinity and each worker gets an equal share, at least one bin's
# worth; a single bin that exceeds the whole budget still runs, alone
CHUNK_BUDGET_BYTES = 8 * 2 ** 20

# prediction delay of wpe and wpe_field, in frames
DEFAULT_DELAY = 3
# filter length and relative weight floor of fcp and fcp_weight
DEFAULT_TAPS_FCP = 40
DEFAULT_EPSILON_FCP = 1e-3


def _check_lags(taps, delay):
    if taps < 1:
        raise ValueError(f"taps must be >= 1, got {taps}")
    if delay < 0:
        raise ValueError(f"delay must be >= 0, got {delay}")


def _stack_buffers(num_bins, num_frames, num_channels, taps, delay):
    # the zero-padded frames (the first delay + taps - 1 stay zero: the
    # frames before the signal) and the F x T x taps x P stack built from them
    padded = np.zeros(
        (num_bins, delay + taps - 1 + num_frames, num_channels),
        dtype=np.complex128,
    )
    stack = np.empty(
        (num_bins, num_frames, taps, num_channels), dtype=np.complex128
    )
    return padded, stack


def _fill_stack(stack, padded, field):
    # field F x T x P -> stack[f, t, k, p] = field[f, t - delay - k, p]:
    # lag-major, channel-minor once the last two axes are merged
    num_frames, taps = stack.shape[1:3]
    padded[:, padded.shape[1] - num_frames:] = field
    # windows[f, t, p, j] = padded[f, t + j, p]: lag k sits at j = taps-1-k
    windows = sliding_window_view(padded[:, :num_frames + taps - 1], taps, axis=1)
    stack[...] = windows[..., ::-1].transpose(0, 1, 3, 2)


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
    num_frames, num_bins, num_channels = field.shape
    padded, stack = _stack_buffers(num_bins, num_frames, num_channels, taps, delay)
    _fill_stack(stack, padded, field.transpose(1, 0, 2))
    return stack.reshape(num_bins, num_frames, -1).transpose(1, 0, 2)


def _workspace(num_bins, num_frames, num_channels, taps, delay, num_targets):
    # one worker's buffers for chunks of up to num_bins bins: the padded
    # frames, the stack, the real Gram hermitian_gram works in, the complex
    # Gram, and the conjugated targets, later the predictions
    dim = taps * num_channels
    return (
        *_stack_buffers(num_bins, num_frames, num_channels, taps, delay),
        np.empty((num_bins, 2 * dim, 2 * dim)),
        np.empty((num_bins, dim, dim), dtype=np.complex128),
        np.empty((num_bins, num_frames, num_targets), dtype=np.complex128),
    )


def _bin_bytes(num_frames, num_channels, taps, delay, num_targets):
    # one bin's share of the chunk budget, in complex128 units: the padded
    # frames, the stack (T x D), the real Gram (two D x D units), the complex
    # Gram and the copy of it that LAPACK factors (D x D each), and the
    # targets/predictions (T x M)
    dim = taps * num_channels
    return 16 * ((delay + taps - 1 + num_frames) * num_channels
                 + num_frames * (dim + num_targets) + 4 * dim * dim)


def _check_weights(weights, shape, name):
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != shape:
        raise ValueError(f"{name} shape does not match frames/bins {shape}")
    # a NaN fails both comparisons, so test for the good case
    if not np.all((weights > 0.0) & np.isfinite(weights)):
        raise ValueError(f"{name} must be finite and strictly positive")
    return weights


def _scaled(arr, factors):
    # arr[f, t, :] *= factors[f, t] in place, a real multiply on the float64
    # view of the contiguous complex F x T x K arr
    real = arr.view(np.float64)
    real *= factors[:, :, None]
    return arr


def _predict_fmajor(source, targets, weights, taps, delay, loading, out=None):
    """Weighted linear prediction of `targets` from delayed `source` frames.

    Every argument may be a strided view, such as the transpose of a T x F
    [x ...] array: each chunk of bins is copied into the workspace.

    Arguments:
        source: F x T x P, the frames the delayed stack is built from
        targets: F x T x M
        weights: strictly positive F x T
        out: F x T x M destination of the predictions, or None for none
    Return:
        coefficients F x D x M, D = taps * P
    """
    num_bins, num_frames, num_channels = source.shape
    num_targets = targets.shape[2]
    dim = taps * num_channels
    coeffs = np.empty((num_bins, dim, num_targets), dtype=np.complex128)
    per_bin = _bin_bytes(num_frames, num_channels, taps, delay, num_targets)
    # each worker's share of the budget holds at least one bin
    workers = max(1, min(_pool.worker_count(), CHUNK_BUDGET_BYTES // per_bin))
    chunk = max(1, CHUNK_BUDGET_BYTES // workers // per_bin)
    starts = range(0, num_bins, chunk)
    # allocated here rather than in the workers: buffers a worker thread
    # allocates stay resident in its own malloc arena after the call
    spaces = [
        _workspace(min(chunk, num_bins), num_frames, num_channels, taps, delay,
                   num_targets)
        for _ in range(max(1, min(workers, len(starts))))
    ]

    def solve(space, lo):
        bins = slice(lo, min(lo + chunk, num_bins))
        padded, stack, work, gram, target_buf = (buf[:bins.stop - lo] for buf in space)
        root = np.sqrt(weights[bins])
        inverse_root = 1.0 / root
        _fill_stack(stack, padded, source[bins])
        stack = _scaled(stack.reshape(len(gram), num_frames, dim), inverse_root)
        load_diagonal(hermitian_gram(stack, out=gram, work=work), loading)
        conj_z = _scaled(np.conjugate(targets[bins], out=target_buf), inverse_root)
        coeffs[bins] = solve_stack(gram, np.matmul(stack.transpose(0, 2, 1), conj_z))
        if out is not None:
            # the product goes to the contiguous buffer, not straight to the
            # strided output, so its rounding does not follow the layout
            out[bins] = _scaled(
                np.matmul(stack, np.conjugate(coeffs[bins]), out=target_buf), root)

    _pool.run_chunks(solve, spaces, starts)
    return coeffs


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
    coeffs = _predict_fmajor(stack.transpose(1, 0, 2), target.T[:, :, None],
                             weights.T, 1, 0, loading)
    return coeffs[:, :, 0]


def predict(coeffs, stack):
    """Apply prediction coefficients: out(t,f) = coeffs(f)^H stack(t,f)."""
    return np.einsum("fd,tfd->tf", np.conj(coeffs), stack)


def wpe(field, psd, taps, delay=DEFAULT_DELAY, ref_mic=0, loading=DEFAULT_LOADING):
    """Dereverberate one channel by delayed multichannel linear prediction.

    The result is channel ref_mic of wpe_field's solve, bit for bit.

    Arguments:
        field: observed spectrogram, T x F x P
        psd: positive prediction weights, T x F (floored target power)
        taps: prediction order K
        delay: prediction delay in frames (>= 1 so the direct frame and its
            immediate successors are never predicted away)
        ref_mic: channel to dereverberate
    Return:
        (coefficients F x D, dereverbed T x F), D = taps * P lag-major as
        build_delayed_stack orders the stack; applied conjugated,
        prediction(t,f) = coeffs(f)^H stack(t,f)
    """
    field = np.asarray(field, dtype=np.complex128)
    if field.ndim == 3 and not 0 <= ref_mic < field.shape[2]:
        raise ValueError(f"ref_mic {ref_mic} out of range for {field.shape[2]} channels")
    coeffs, dereverbed = wpe_field(field, psd, taps, delay, loading)
    return coeffs[:, :, ref_mic].copy(), dereverbed[:, :, ref_mic].copy()


def wpe_field(field, psd, taps, delay=DEFAULT_DELAY, loading=DEFAULT_LOADING):
    """Dereverberate every channel with a shared stack and shared weights.

    One Gram factorization per frequency serves all channels (multiple
    right-hand sides).

    Return:
        (coefficients F x D x P, dereverbed field T x F x P)
    """
    field = np.asarray(field, dtype=np.complex128)
    if field.ndim != 3:
        raise ValueError(f"field must be T x F x P, got shape {field.shape}")
    if delay < 1:
        raise ValueError(f"delay must be >= 1 for wpe, got {delay}")
    _check_lags(taps, delay)
    psd = _check_weights(psd, field.shape[:2], "psd")
    source = field.transpose(1, 0, 2)
    dereverbed = np.empty_like(field)
    coeffs = _predict_fmajor(source, source, psd.T, taps, delay, loading,
                             out=dereverbed.transpose(1, 0, 2))
    # field minus its prediction, in place
    return coeffs, np.subtract(field, dereverbed, out=dereverbed)


def fcp_weight(reference, estimate, epsilon=DEFAULT_EPSILON_FCP):
    """Prediction-error weights: psd_floor of the reference-mic residual
    reference - estimate, floored by the rule of every other power weight."""
    return psd_floor(np.asarray(reference, dtype=np.complex128)
                     - np.asarray(estimate, dtype=np.complex128), epsilon)


def fcp(reference, estimate, taps=DEFAULT_TAPS_FCP, epsilon=DEFAULT_EPSILON_FCP,
        loading=DEFAULT_LOADING):
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
        (coefficients F x K', compensated T x F)
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
    compensated = np.empty_like(reference)
    coeffs = _predict_fmajor(estimate.T[:, :, None], reference.T[:, :, None],
                             eta.T, taps, 0, loading, out=compensated.T[:, :, None])
    # reference - (filtered - estimate), in place
    compensated -= estimate
    np.subtract(reference, compensated, out=compensated)
    return coeffs[:, :, 0], compensated
