"""The rule of every numeric parameter, in one table that PipelineSpec,
RoomSpec, the library functions and the CLI all check against, the rules
of every array argument: its layout, with every size >= 1 (check_shapes,
check_nonempty), a channel index within it (check_channel) and its values
(check_finite), and the one block rule of every loop that works through a
field a block at a time (blocks).

Integer rules take any numbers.Integral but bool, real rules ints too.
Every check tests for the valid range, so a NaN fails it.  Every message
names the parameter or argument.
"""

import math
import numbers
from collections.abc import Iterable
from dataclasses import fields
from typing import NamedTuple

import numpy as np

# the working set of one block of every blocked loop: stft's frames, the mask
# oracles, the phase scores and the covariance Grams
BLOCK_BYTES = 2 ** 18


class Rule(NamedTuple):
    flag: str  # the CLI flag that sets the parameter
    integer: bool
    low: float  # -inf: no lower bound
    closed: bool = True  # whether low itself is allowed
    inf: bool = False  # whether +inf is allowed

    def holds(self, value):
        above = self.low <= value if self.closed else self.low < value
        return above and (value <= math.inf if self.inf else value < math.inf)

    def text(self):
        if self.low == -math.inf:
            bound = "finite"
        else:
            bound = f"{'>=' if self.closed else '>'} {self.low}"
            bound += "" if self.integer else " and finite"
        return bound + (" or +inf" if self.inf else "")


RULES = {
    # PipelineSpec, the estimator and the linear-prediction core
    "est_err_snr_db": Rule("--est-err-snr-db", False, -math.inf, False, inf=True),
    "ref_mic": Rule("--ref-mic", True, 0),
    "taps": Rule("--taps", True, 1),
    "taps_fcp": Rule("--taps-fcp", True, 1),
    "delay": Rule("--delay", True, 1),
    "epsilon": Rule("--epsilon", False, 0, False),
    "epsilon_fcp": Rule("--epsilon-fcp", False, 0, False),
    "loading": Rule("--loading", False, 0),
    "seed": Rule("--seed", True, 0),
    # RoomSpec, generate_rir, render_scene and simulate
    "num_mics": Rule("--mics", True, 1),
    "t60_seconds": Rule("--t60", False, 0),
    "rir_len_samples": Rule("--rir-len", True, 1),
    "direct_delay_samples": Rule("--direct-delay", True, 0),
    "tail_gain": Rule("--tail-gain", False, 0),
    "snr_db": Rule("--snr-db", False, -math.inf, False, inf=True),
    "num_noises": Rule("--num-noises", True, 0),
    "duration_seconds": Rule("--duration", False, 0, False),
    "mic_index": Rule(None, True, 0),
    # synthesize
    "num_samples": Rule(None, True, 1),
}


def check(name, value, prefix="", rule=None):
    """Raise ValueError, its message led by `prefix`, unless `value` obeys
    `rule`, by default the rule of `name`."""
    rule = rule or RULES[name]
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    shown = value if isinstance(value, numbers.Real) else repr(value)
    if rule.integer and isinstance(value, numbers.Real) and not (
            number and isinstance(value, numbers.Integral)):
        raise ValueError(f"{prefix}{name} must be an integer, got {shown}")
    if not (number and rule.holds(value)):
        raise ValueError(f"{prefix}{name} must be {rule.text()}, got {shown}")


def check_fields(spec, optional=(), sequences=()):
    """Check each field of the dataclass `spec` that has a rule.  A field in
    `optional` may also be None, one in `sequences` a sequence of values."""
    for field in fields(spec):
        value = getattr(spec, field.name)
        if field.name not in RULES or (value is None and field.name in optional):
            continue
        many = field.name in sequences and isinstance(value, Iterable)
        for item in value if many else (value,):
            check(field.name, item)


def check_channel(name, index, count, prefix=""):
    """Raise ValueError, its message led by `prefix`, unless `index` obeys the
    rule of `name` and is below `count`, the channel count."""
    check(name, index, prefix)
    if index >= count:
        raise ValueError(f"{prefix}{name} must be < {count}, the channel count, "
                         f"got {index}")


def check_shapes(**arrays):
    """Check each keyword name=(array, layout), as in field=(field, "T x F x P").

    A layout names each axis by a letter, and one letter is one size across
    every array of the call; an axis written as a number has that size, and
    trailing axes in brackets ("N [x C]") may be absent, and every size is
    at least 1.  Return the sizes by letter, or raise ValueError naming the
    first argument that breaks its layout, and the arguments that set the
    sizes it breaks."""
    sizes = {}  # axis letter -> (size, the argument that set it)
    for name, (array, layout) in arrays.items():
        shape, known = np.shape(array), dict(sizes)
        axes = layout.replace("[", "").replace("]", "").split(" x ")
        fits = layout.split(" [")[0].count(" x ") < len(shape) <= len(axes)
        for axis, size in zip(axes, shape):
            want = int(axis) if axis.isdigit() else sizes.setdefault(axis, (size, name))[0]
            fits = fits and want == size
        if not fits:
            given = {axis: known[axis] for axis in axes if axis in known}
            where = ", ".join(f"{axis} = {size}" for axis, (size, _) in given.items())
            origin = ", ".join(dict.fromkeys(by for _, by in given.values()))
            where = f" with {where} as in {origin}" if given else ""
            raise ValueError(f"{name} must be {layout}{where}, got shape {shape}")
        check_nonempty(name, array)
    return {axis: size for axis, (size, _) in sizes.items()}


def check_nonempty(name, array):
    """Raise ValueError naming `name` unless every size of `array` is >= 1."""
    shape = np.shape(array)
    if 0 in shape:
        raise ValueError(f"{name} must have every size >= 1, got shape {shape}")


def check_finite(name, values, positive=False):
    """`values` as an array, or a ValueError naming `name` unless every value
    is finite (and > 0 when `positive`)."""
    values = np.asarray(values)
    good = np.isfinite(values)
    if positive:
        good &= values > 0.0
    if not good.all():
        raise ValueError(f"{name} must be finite{' and > 0' if positive else ''}")
    return values


def blocks(count, item_bytes):
    """The slices that cover range(count) in order, each of as many items of
    `item_bytes` bytes as BLOCK_BYTES holds and at least one; the last may
    hold fewer."""
    step = max(1, BLOCK_BYTES // item_bytes)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]
