"""Binary spectrogram files (LDSPEC1).

Layout, all little-endian:
    bytes 0..6    magic "LDSPEC1"
    bytes 7..18   uint32 T, F, P
    bytes 19..    T*F*P complex values as (re, im) float64 pairs,
                  ordered t-major, f-middle, p-minor
"""

import os
import struct

import numpy as np

from .errors import FormatError
from .fsio import atomic_write_bytes

MAGIC = b"LDSPEC1"
_HEADER = struct.Struct("<III")


def write_spectrogram(path, values):
    """Write a T x F (x P) complex spectrogram to `path` atomically."""
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError(f"expected T x F (x P) spectrogram, got shape {arr.shape}")
    num_frames, num_bins, num_channels = arr.shape
    header = MAGIC + _HEADER.pack(num_frames, num_bins, num_channels)
    payload = np.ascontiguousarray(arr).astype("<c16").tobytes()
    atomic_write_bytes(path, header + payload)


def read_spectrogram(path):
    """Read an LDSPEC1 file back into a T x F x P complex128 array.

    Files that are not LDSPEC1, whose size disagrees with the header, or that
    hold NaN or inf raise FormatError.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < len(MAGIC) + _HEADER.size or not blob.startswith(MAGIC):
        raise FormatError(f"{path}: not an LDSPEC1 spectrogram file")
    num_frames, num_bins, num_channels = _HEADER.unpack_from(blob, len(MAGIC))
    expected = len(MAGIC) + _HEADER.size + 16 * num_frames * num_bins * num_channels
    if len(blob) != expected:
        raise FormatError(
            f"{path}: payload size {len(blob)} does not match header "
            f"(expected {expected} bytes for {num_frames}x{num_bins}x{num_channels})"
        )
    flat = np.frombuffer(blob, dtype="<c16", offset=len(MAGIC) + _HEADER.size)
    if not np.all(np.isfinite(flat)):
        raise FormatError(f"{path}: spectrogram holds non-finite values")
    return flat.reshape(num_frames, num_bins, num_channels).astype(np.complex128)
