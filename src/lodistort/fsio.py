"""Atomic file writing helpers.

Every artifact written by this package (WAV, spectrogram, JSON) goes through
a write-to-temp-then-rename so a crashed run never leaves a half-written file
behind.
"""

import json
import math
import os
import tempfile


def atomic_write_bytes(path, *parts):
    """Write the bytes-like `parts`, one after another, to `path` atomically
    (temp file + rename).  Writing the parts in turn spares joining them
    into one copy first."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                handle.write(part)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def camel(name):
    """The camelCase JSON key of a snake_case name, as t60_seconds -> t60Seconds."""
    head, *words = name.split("_")
    return head + "".join(word.title() for word in words)


def jsonable(value):
    """Recursively convert a value for strict-JSON emission.

    Non-finite floats become the string sentinels "inf" / "-inf" / "nan" so the
    output stays valid under parsers that reject bare Infinity tokens.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if hasattr(value, "tolist") and not isinstance(value, (str, bytes)):
        return jsonable(value.tolist())  # numpy arrays and scalars alike
    return value


def from_jsonable(value):
    """Inverse of :func:`jsonable` for the float sentinels."""
    if isinstance(value, dict):
        return {k: from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [from_jsonable(v) for v in value]
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if value == "nan":
        return math.nan
    return value


def json_text(obj):
    """`obj` as strict JSON (see :func:`jsonable`): indented, keys sorted,
    newline-terminated."""
    return json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n"


def atomic_write_json(path, obj):
    atomic_write_text(path, json_text(obj))
