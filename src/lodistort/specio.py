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

from ._rules import check_shapes
from .errors import FormatError
from .fsio import atomic_write_bytes

MAGIC = b"LDSPEC1"
_HEADER = struct.Struct("<III")


def write_spectrogram(path, values):
    """Write a T x F (x P) complex spectrogram to `path` atomically.

    The payload is written from the array's own buffer when it already is
    C-contiguous little-endian complex128; otherwise from one converted copy.
    """
    arr = np.asarray(values, dtype=np.complex128)
    check_shapes(values=(arr, "T x F [x P]"))
    if arr.ndim == 2:
        arr = arr[:, :, None]
    num_frames, num_bins, num_channels = arr.shape
    header = MAGIC + _HEADER.pack(num_frames, num_bins, num_channels)
    payload = np.ascontiguousarray(arr, dtype="<c16")
    atomic_write_bytes(path, header, payload.reshape(-1).view(np.uint8))


def read_spectrogram(path):
    """Read an LDSPEC1 file back into a T x F x P complex128 array.

    The payload is read straight into the new array.  Files that are not
    LDSPEC1, whose header has a size of zero, whose size disagrees with the
    header, or that hold NaN or inf raise FormatError.
    """
    with open(path, "rb") as handle:
        head = handle.read(len(MAGIC) + _HEADER.size)
        if len(head) < len(MAGIC) + _HEADER.size or not head.startswith(MAGIC):
            raise FormatError(f"{path}: not an LDSPEC1 spectrogram file")
        num_frames, num_bins, num_channels = _HEADER.unpack_from(head, len(MAGIC))
        if 0 in (num_frames, num_bins, num_channels):
            raise FormatError(f"{path}: spectrogram header has a size of zero "
                              f"({num_frames}x{num_bins}x{num_channels})")
        size = os.fstat(handle.fileno()).st_size
        expected = len(head) + 16 * num_frames * num_bins * num_channels
        if size != expected:
            raise FormatError(
                f"{path}: payload size {size} does not match header (expected "
                f"{expected} bytes for {num_frames}x{num_bins}x{num_channels})"
            )
        values = np.empty((num_frames, num_bins, num_channels), dtype="<c16")
        payload = values.reshape(-1).view(np.uint8)
        # a buffered read of a file fills the buffer unless the file ends
        if handle.readinto(payload) != payload.size:
            raise FormatError(f"{path}: file ended inside the payload")
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: spectrogram holds non-finite values")
    return values.astype(np.complex128, copy=False)
