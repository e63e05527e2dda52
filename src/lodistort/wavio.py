"""RIFF WAV reading (PCM 16-bit and IEEE float 32-bit) and writing (float 32-bit),
all at StftConfig.sample_rate: the one place where a signal's rate is checked.

Files are written in the layout scipy.io.wavfile.write produces for float
samples: an 18-byte `fmt ` chunk (with a zero extension size) followed by a
`fact` chunk holding the frame count.
"""

import struct

import numpy as np

from .errors import FormatError
from .fsio import atomic_write_bytes
from .stft import StftConfig, TimeSignal

_PCM16_SCALE = 32768.0

_CHUNK = struct.Struct("<4sI")
# format tag, channels, sample rate, bytes per second, block align, bits
_FMT = struct.Struct("<HHIIHH")
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# (format tag, bits per sample) -> little-endian sample type
_SAMPLE_TYPES = {(_PCM, 16): np.dtype("<i2"), (_IEEE_FLOAT, 32): np.dtype("<f4")}


def _decode(blob, path):
    # -> (sample rate, N x C samples in their file type)
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a readable WAV file (no RIFF WAVE header)")
    fmt = None
    pos = 12
    while pos + _CHUNK.size <= len(blob):
        chunk_id, size = _CHUNK.unpack_from(blob, pos)
        pos += _CHUNK.size
        if pos + size > len(blob):
            raise FormatError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if size < _FMT.size:
                raise FormatError(f"{path}: fmt chunk of {size} bytes is too short")
            fmt = _FMT.unpack_from(blob, pos)
            if fmt[0] == _EXTENSIBLE and size >= 26:
                # the sub-format GUID at byte 24 starts with the real tag
                fmt = struct.unpack_from("<H", blob, pos + 24) + fmt[1:]
        elif chunk_id == b"data":
            if fmt is None:
                raise FormatError(f"{path}: data chunk before the fmt chunk")
            tag, channels, rate, _, block_align, bits = fmt
            dtype = _SAMPLE_TYPES.get((tag, bits))
            if dtype is None:
                raise FormatError(
                    f"{path}: unsupported WAV sample format (format tag {tag}, "
                    f"{bits} bits; only PCM16 and float32 are handled)"
                )
            if channels < 1 or block_align != channels * dtype.itemsize \
                    or size % block_align:
                raise FormatError(f"{path}: inconsistent fmt and data chunks")
            samples = np.frombuffer(blob, dtype, size // dtype.itemsize, pos)
            return rate, samples.reshape(-1, channels)
        # chunks are padded to an even size
        pos += size + (size & 1)
    raise FormatError(f"{path}: no data chunk")


def _encode(samples, rate, path):
    # N x C float64 samples -> RIFF WAVE bytes of float32 samples
    num_frames, channels = samples.shape
    dtype = _SAMPLE_TYPES[_IEEE_FLOAT, 32]
    block_align = channels * dtype.itemsize
    fmt = _FMT.pack(_IEEE_FLOAT, channels, rate, rate * block_align, block_align,
                    8 * dtype.itemsize) + b"\x00\x00"
    body = b"WAVE" + _CHUNK.pack(b"fmt ", len(fmt)) + fmt
    body += _CHUNK.pack(b"fact", 4) + struct.pack("<I", num_frames)
    with np.errstate(over="ignore"):  # checked below
        payload = samples.astype(dtype)
    if not np.isfinite(payload).all():
        raise ValueError(f"{path}: a sample is past float32's range")
    payload = payload.tobytes()
    if len(body) + _CHUNK.size + len(payload) > 0xFFFFFFFF:
        raise ValueError("data exceeds the 4 GiB WAV file size limit")
    body += _CHUNK.pack(b"data", len(payload)) + payload
    return _CHUNK.pack(b"RIFF", len(body)) + body


def read_wav(path):
    """Read a WAV file into a TimeSignal.

    PCM16 samples are scaled to [-1, 1); float32 samples pass through.
    Other encodings, truncated files, files that are not RIFF WAVE, files
    of no samples and float files holding NaN or inf raise FormatError.  A
    file at a rate other than StftConfig.sample_rate raises ValueError
    (resampling is out of scope).
    """
    with open(path, "rb") as handle:
        rate, data = _decode(handle.read(), path)
    if not len(data):
        raise FormatError(f"{path}: WAV holds no samples")
    if data.dtype.kind == "i":
        samples = data.astype(np.float64) / _PCM16_SCALE
    else:
        samples = data.astype(np.float64)
        if not np.all(np.isfinite(samples)):
            raise FormatError(f"{path}: WAV holds non-finite samples")
    if rate != StftConfig.sample_rate:
        raise ValueError(
            f"{path}: sample rate {rate} Hz does not match the "
            f"expected {StftConfig.sample_rate} Hz (resampling not supported)"
        )
    return TimeSignal(samples, _adopt=True)  # adopted, not copied


def encode_wav(path, signal):
    """The bytes write_wav(path, signal) writes; `path` only names the file
    in the ValueError raised for a sample past float32's range."""
    if not isinstance(signal, TimeSignal):
        raise TypeError("write_wav expects a TimeSignal")
    return _encode(signal.samples, StftConfig.sample_rate, path)


def write_wav(path, signal):
    """Write a TimeSignal to `path` atomically as float32 samples at
    StftConfig.sample_rate (mono signals produce a 1-channel file).  A
    sample past float32's range raises ValueError, and no file is written."""
    atomic_write_bytes(path, encode_wav(path, signal))
