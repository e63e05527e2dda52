"""Traced peak memory of the field-sized steps, and the bound each keeps.

tracemalloc sees numpy's array allocations in every thread.  A step is
measured after its inputs exist, so its peak counts what the step itself
allocates: its output and its transients.  tests/test_memory.py checks the
bounds on small fields and tools/long_scene_memory.py on a 60 s scene,
importing this module from the tests directory.
"""

import tracemalloc

from lodistort._rules import BLOCK_BYTES
from lodistort.linpred import DEFAULT_DELAY, DEFAULT_TAPS_FCP, _bin_bytes, _chunk_plan
from lodistort.stft import StftConfig


def traced_peak(step):
    """(bytes step() allocated at its peak, its result)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = step()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


def analyze_bound(spec):
    """The result, the zero-padded samples (a quarter field) and one block
    of windowed frames and their transform; no full-size frame copies."""
    return 1.6 * spec.nbytes


def synthesize_bound(spec):
    """The overlap-add buffer, of which the output is a view, the window
    power, and one block of frames with its inverse transform's copies
    (measured under 1.3 block budgets, allowed 4): no T x W x C frames
    array, no output copy."""
    num_frames = spec.shape[0]
    num_channels = spec.shape[2] if spec.ndim == 3 else 1
    buf_len = (num_frames - 1) * StftConfig.hop + StftConfig.window_len
    return 8 * buf_len * (num_channels + 1) + 4 * BLOCK_BYTES


def oracle_bound(values):
    """The estimate, and one block of frames' three float buffers and flag
    buffer (measured under 3.3 block budgets, allowed 4): no field-sized
    mask."""
    return values.nbytes + 4 * BLOCK_BYTES


def estimate_bound(values):
    """The pipeline's estimate node built in the T x F x C target STFT
    `values`, which it owns: one field plus five blocks.  A finite ratio
    takes the draws, a field of floats, while a mask oracle's three float
    buffers and flag buffer (one block of frames each) and the squares of
    the energy sums (at most a block in the pool job and one in the
    caller) come and go: at most 4.2 blocks over the field, measured under
    3.5, allowed 5.  No field-sized squares: the clean parts' took a
    field, a draw's half one."""
    return values.nbytes + 5 * BLOCK_BYTES


def _workspaces(num_frames, num_channels, taps, delay):
    # every worker's workspace under linpred's chunk rule: at most
    # CHUNK_MAX_BINS bins each, within CHUNK_BUDGET_BYTES, at least one bin
    per_bin = _bin_bytes(num_frames, num_channels, taps, delay, num_channels)
    workers, chunk = _chunk_plan(per_bin)
    return workers * chunk * per_bin


def wpe_field_bound(field, out, taps, delay=DEFAULT_DELAY):
    """The output, every worker's workspace and small transients: no
    F-major copy of the field, no predictions array."""
    num_frames, _, num_channels = field.shape
    return (out.nbytes + _workspaces(num_frames, num_channels, taps, delay)
            + 0.35 * field.nbytes)


def fcp_bound(reference, out, taps=DEFAULT_TAPS_FCP):
    """As for wpe_field, plus fcp's own T x F float weights (half a field)."""
    return (out.nbytes + reference.nbytes // 2
            + _workspaces(reference.shape[0], 1, taps, 0) + 0.35 * reference.nbytes)


def covariance_bound(field, *outputs, weights=None):
    """The outputs, one block of scaled or differenced frames (at least one
    bin's), a float scale the size of the step's T x F weights, and under
    1 MiB of numpy's ufunc buffers and the block's real Gram: no copy of
    the field."""
    block = max(BLOCK_BYTES, field.nbytes // field.shape[1])
    scale = 0 if weights is None else weights.nbytes
    return sum(out.nbytes for out in outputs) + block + scale + 2 ** 20
