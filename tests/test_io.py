"""WAV and spectrogram-file round trips, byte-level format checks, and the
atomic write/JSON helpers."""

import json
import os
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

import lodistort
from lodistort import (
    FormatError,
    TimeSignal,
    read_spectrogram,
    read_wav,
    write_spectrogram,
    write_wav,
)
from lodistort.fsio import atomic_write_json, atomic_write_text, from_jsonable, jsonable


def test_wav_float32_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4000, 2)) * 0.3
    path = tmp_path / "f32.wav"
    write_wav(path, TimeSignal(x))
    back = read_wav(path)
    assert wavfile.read(path)[0] == 16000
    assert back.samples.shape == (4000, 2)
    assert np.max(np.abs(back.samples - x)) < 1e-6  # float32 quantization


def test_wav_pcm16_round_trip(tmp_path):
    # PCM16 files come from elsewhere: scipy writes this one
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.9, 0.9, size=2000)
    path = tmp_path / "p16.wav"
    wavfile.write(path, 16000, np.round(x * 32768.0).astype(np.int16))
    back = read_wav(path)
    assert np.max(np.abs(back.samples[:, 0] - x)) <= 1.0 / 32768.0 + 1e-9


def test_wav_rate_mismatch_raises(tmp_path):
    # float32 and PCM16 files at 8 kHz: resampling is out of scope
    for dtype in (np.float32, np.int16):
        path = tmp_path / f"r8_{np.dtype(dtype).name}.wav"
        wavfile.write(path, 8000, np.zeros(100, dtype=dtype))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: sample rate 8000 Hz does not match the expected 16000 Hz")):
            read_wav(path)


def test_wav_unsupported_encoding_raises(tmp_path):
    path = tmp_path / "u8.wav"
    wavfile.write(path, 16000, np.zeros(64, dtype=np.uint8))
    with pytest.raises(FormatError):
        read_wav(path)


def test_wav_garbage_bytes_raise(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"this is not a RIFF file at all")
    with pytest.raises(FormatError):
        read_wav(path)


@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
@pytest.mark.parametrize("shape", [(0,), (1,), (301,), (257, 3)])
def test_wav_bytes_match_scipy_writer(tmp_path, encoding, shape):
    # write_wav writes float32 as scipy does; a PCM16 file is only read, and
    # scipy's reads as its samples over 32768; a file of no samples is no signal
    rng = np.random.default_rng(len(shape) + shape[0])
    values = rng.uniform(-1.0, 1.0, size=shape)
    if encoding == "float32":
        data = values.astype(np.float32)
    else:
        data = np.clip(np.round(values * 32768.0), -32768, 32767).astype(np.int16)
    theirs = tmp_path / "theirs.wav"
    wavfile.write(theirs, 16000, data)
    if not len(values):
        with pytest.raises(FormatError, match=re.escape(f"{theirs}: WAV holds no samples")):
            read_wav(theirs)
        return
    signal, back = TimeSignal(values), read_wav(theirs)
    assert back.samples.shape == signal.samples.shape
    if encoding == "float32":
        path = tmp_path / "ours.wav"
        write_wav(path, signal)
        assert path.read_bytes() == theirs.read_bytes()
        assert np.array_equal(back.samples, read_wav(path).samples)
    else:
        assert np.array_equal(back.samples, data.reshape(back.samples.shape) / 32768.0)


@pytest.mark.parametrize("dtype", [np.float64, np.int32])
def test_wav_other_encodings_raise(tmp_path, dtype):
    path = tmp_path / "other.wav"
    wavfile.write(path, 16000, np.zeros((64, 2), dtype=dtype))
    with pytest.raises(FormatError, match="unsupported"):
        read_wav(path)


def test_wav_extensible_pcm16_reads(tmp_path):
    # WAVE_FORMAT_EXTENSIBLE: the real format tag opens the sub-format GUID
    values = np.array([[1, -2, 3], [-32768, 32767, 0]], dtype="<i2")
    guid = struct.pack("<H", 1) + bytes.fromhex("000000001000800000aa00389b71")
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 3, 16000, 96000, 6, 16, 22, 16, 0)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt + guid)) + fmt + guid
            + b"data" + struct.pack("<I", values.nbytes) + values.tobytes())
    path = tmp_path / "ext.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    back = read_wav(path)
    assert np.array_equal(back.samples, values / 32768.0)


def test_wav_truncated_files_raise(tmp_path):
    path = tmp_path / "full.wav"
    write_wav(path, TimeSignal(np.zeros((100, 2))))
    raw = path.read_bytes()
    for cut in (len(raw) - 3, 40, 30, 11):
        truncated = tmp_path / f"cut{cut}.wav"
        truncated.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            read_wav(truncated)


def test_wav_non_finite_samples_raise(tmp_path):
    path = tmp_path / "nan.wav"
    write_wav(path, TimeSignal(np.zeros((100, 2))))
    raw = bytearray(path.read_bytes())
    for value in (float("nan"), float("inf")):
        raw[-4:] = struct.pack("<f", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=str(path)):
            read_wav(path)


@pytest.mark.parametrize("peak", [1e39, -1e39])
def test_wav_writer_rejects_a_sample_past_float32_range(tmp_path, peak):
    path = tmp_path / "loud.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from the cast
        with pytest.raises(ValueError, match=re.escape(str(path))):
            write_wav(path, TimeSignal([1.0, peak]))
    assert list(tmp_path.iterdir()) == []
    # float32's largest value is written and read back as it is
    top = float(np.finfo(np.float32).max)
    write_wav(path, TimeSignal([1.0, -top]))
    assert read_wav(path).samples[:, 0].tolist() == [1.0, -top]


def test_import_loads_no_scipy():
    code = ("import sys, lodistort; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(lodistort.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_spectrogram_round_trip_exact(tmp_path):
    rng = np.random.default_rng(2)
    spec = rng.standard_normal((5, 9, 3)) + 1j * rng.standard_normal((5, 9, 3))
    path = tmp_path / "a.ldspec"
    write_spectrogram(path, spec)
    back = read_spectrogram(path)
    assert back.shape == (5, 9, 3)
    assert np.array_equal(back, spec)  # bit-exact


def test_spectrogram_two_dim_gains_channel_axis(tmp_path):
    spec = np.arange(6, dtype=complex).reshape(2, 3)
    path = tmp_path / "b.ldspec"
    write_spectrogram(path, spec)
    assert read_spectrogram(path).shape == (2, 3, 1)


def test_spectrogram_byte_layout():
    """Hand-assemble a tiny file and check the reader agrees byte for byte."""
    values = np.array([[[1.5 - 2.5j], [0.25 + 0.0j]]])  # 1 x 2 x 1
    blob = b"LDSPEC1" + struct.pack("<III", 1, 2, 1)
    for z in (1.5 - 2.5j, 0.25 + 0.0j):  # t-major, f-middle, p-minor
        blob += struct.pack("<dd", z.real, z.imag)
    path = "/tmp/layout_check.ldspec"
    with open(path, "wb") as handle:
        handle.write(blob)
    assert np.array_equal(read_spectrogram(path), values)
    write_spectrogram(path, values)
    with open(path, "rb") as handle:
        assert handle.read() == blob
    os.remove(path)


@pytest.mark.parametrize("layout", ["contiguous", "mono", "strided", "real",
                                    "big-endian"])
def test_spectrogram_bytes_match_the_joined_form(tmp_path, layout):
    # the header and the array's buffer, written in turn, give the bytes of
    # the header joined to the payload's little-endian complex128 copy
    rng = np.random.default_rng(7)
    field = rng.standard_normal((4, 5, 3)) + 1j * rng.standard_normal((4, 5, 3))
    values = {
        "contiguous": field,
        "mono": field[:, :, 1],
        "strided": field[::2, ::-1],
        "real": field.real,
        "big-endian": field.astype(">c16"),
    }[layout]
    path = tmp_path / "x.ldspec"
    write_spectrogram(path, values)
    arr = np.asarray(values, dtype=np.complex128)
    arr = arr[:, :, None] if arr.ndim == 2 else arr
    joined = (b"LDSPEC1" + struct.pack("<III", *arr.shape)
              + np.ascontiguousarray(arr).astype("<c16").tobytes())
    assert path.read_bytes() == joined
    assert np.array_equal(read_spectrogram(path), arr)


def test_spectrogram_corruption_raises(tmp_path):
    path = tmp_path / "c.ldspec"
    write_spectrogram(path, np.ones((2, 3), dtype=complex))
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "bad_magic.ldspec"
    bad_magic.write_bytes(b"XXSPEC1" + bytes(raw[7:]))
    with pytest.raises(FormatError):
        read_spectrogram(bad_magic)

    truncated = tmp_path / "trunc.ldspec"
    truncated.write_bytes(bytes(raw[:-8]))
    with pytest.raises(FormatError):
        read_spectrogram(truncated)

    with pytest.raises(FileNotFoundError):
        read_spectrogram(tmp_path / "missing.ldspec")


@pytest.mark.parametrize("shape", [(0, 3, 1), (2, 0, 1), (2, 3, 0), (0, 0, 0)])
def test_spectrogram_header_of_a_zero_size_raises(tmp_path, shape):
    # the header alone is the whole file a zero size promises; as a WAV file
    # of no samples, it is a bad file, not an empty array
    path = tmp_path / "empty.ldspec"
    path.write_bytes(b"LDSPEC1" + struct.pack("<III", *shape))
    with pytest.raises(FormatError, match=re.escape(f"{path}: ")):
        read_spectrogram(path)


def test_atomic_writes_leave_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert path.read_text() == "second"
    atomic_write_json(tmp_path / "out.json", {"b": 2, "a": 1})
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["out.json", "out.txt"]
    # sorted keys for byte-stable output
    assert json.loads((tmp_path / "out.json").read_text()) == {"a": 1, "b": 2}


def test_json_sentinels_round_trip():
    obj = {
        "plus": np.inf,
        "minus": -np.inf,
        "nan": np.nan,
        "arr": np.array([1.0, 2.0]),
        "scalar": np.float64(3.5),
    }
    encoded = jsonable(obj)
    assert encoded["plus"] == "inf"
    assert encoded["minus"] == "-inf"
    assert encoded["nan"] == "nan"
    assert encoded["arr"] == [1.0, 2.0]
    assert isinstance(encoded["scalar"], float)
    decoded = from_jsonable(json.loads(json.dumps(encoded)))
    assert decoded["plus"] == np.inf and decoded["minus"] == -np.inf
    assert np.isnan(decoded["nan"])
