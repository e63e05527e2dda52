"""Spans around lodistort's public functions, recorded from outside the package.

`Tracer.install()` replaces every function named in `TRACED` by a wrapper,
at its module attribute and at every other module attribute that holds the
same object (the names `pipeline.py`, `cli.py` and the package `__init__`
import directly, plus any extra namespace passed in, such as the test
suite's scene builders).  `Tracer.uninstall()` puts every original back.

A span is `(name, start, end, parent, scene)`: `parent` indexes the span
that was open when this one began (-1 at top level) and `scene` is the
identifier set with `Tracer.scene()`.  A span's self time is its duration
minus the time its direct children cover.
"""

import contextlib
import functools
import importlib
import json
import sys
import time

# module -> public functions wrapped in a traced run
TRACED = {
    "linpred": ("wpe_field", "wpe", "fcp", "fcp_weight", "build_delayed_stack",
                "solve_weighted_lp", "predict"),
    "metrics": ("score_estimate", "si_sdr", "pdsacc", "psnr"),
    "stft": ("analyze", "synthesize"),
    "estimator": ("oracle_estimate", "corrupt_estimate", "load_external_estimate"),
    "stats": ("psd_floor", "compute_mask", "masked_covariances",
              "weighted_covariance", "signal_covariances", "steering_vector"),
    "linalg": ("time_outer", "solve_stack", "cholesky_stack", "principal_eigenpairs"),
    "beamform": ("mvdr", "wmpdr", "gev_ban", "mcwf", "apply_beamformer"),
    "pipeline": ("run_pipeline", "write_feature_bundle"),
    "scene": ("render_scene", "render_noise_component", "generate_rir",
              "synth_speech_like", "synth_noise"),
    "wavio": ("read_wav", "write_wav"),
    "specio": ("read_spectrogram", "write_spectrogram"),
    "fsio": ("atomic_write_json",),
    "phase_geometry": ("phase_candidates", "sign_flip_probability"),
    "cli": ("cmd_simulate", "cmd_enhance", "cmd_evaluate", "cmd_analyze_phase"),
}

# modules whose SingularMatrixError raises are counted, at the innermost span
SINGULAR_LAYERS = ("linalg", "beamform")

ROOT = "bench.scene"


def traced_names():
    return [f"{module}.{name}" for module, names in TRACED.items() for name in names]


def _complex_flops(macs):
    # one complex multiply-add is 4 real multiplies and 4 real adds
    return 8.0 * macs


def wpe_field_gflop(field_shape, taps):
    """Computed GFLOP of one `wpe_field` call on a T x F x P field.

    Gram F*D^2*T, right-hand side and prediction F*D*P*T each, and an LU solve
    of (2/3)*D^3 + 2*D^2*P per bin, all complex multiply-adds, D = taps * P.
    """
    frames, bins, chans = field_shape
    d = taps * chans
    macs = bins * (d * d * frames + 2 * d * chans * frames
                   + (2.0 / 3.0) * d ** 3 + 2 * d * d * chans)
    return _complex_flops(macs) / 1e9


def _shape(value):
    return tuple(getattr(value, "shape", ()))


def _count_wpe_field(tracer, args, kwargs):
    field = args[0]
    taps = args[2] if len(args) > 2 else kwargs["taps"]
    tracer.add("linpred.wpe_field.gflop", wpe_field_gflop(_shape(field), taps))


def _count_stack(tracer, args, kwargs):
    field = args[0]
    taps = args[1] if len(args) > 1 else kwargs["taps"]
    frames, bins, chans = _shape(field)
    tracer.add("linpred.build_delayed_stack.mb", frames * bins * taps * chans * 16 / 1e6)


def _count_spectrogram(tracer, args, kwargs):
    values = args[1] if len(args) > 1 else kwargs["values"]
    size = 1
    for n in _shape(values):
        size *= n
    tracer.add("specio.write_spectrogram.mb", size * 16 / 1e6)


# per-call counters computed from argument shapes ("computed", not measured)
_COUNTERS = {
    "linpred.wpe_field": _count_wpe_field,
    "linpred.build_delayed_stack": _count_stack,
    "specio.write_spectrogram": _count_spectrogram,
}


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._scene = None
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self, extra_namespaces=()):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._singular = importlib.import_module("lodistort.errors").SingularMatrixError
        modules = {m: importlib.import_module(f"lodistort.{m}") for m in TRACED}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "lodistort" or n.startswith("lodistort.")]
        namespaces.extend(extra_namespaces)
        for module_name, names in TRACED.items():
            module = modules[module_name]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{module_name}.{name}", module_name, original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, original))
                            setattr(namespace, attr, wrapper)

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches = []

    @contextlib.contextmanager
    def installed(self, extra_namespaces=()):
        self.install(extra_namespaces)
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, name, layer, fn):
        counter = _COUNTERS.get(name)
        singular_key = f"{layer}.singular_errors" if layer in SINGULAR_LAYERS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self, args, kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            except self._singular as exc:
                # attribute each error to the innermost traced layer only
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    if singular_key is not None:
                        self.add(singular_key, 1)
                raise
            finally:
                self._close(index)

        return traced

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._scene])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextlib.contextmanager
    def scene(self, scene_id):
        """Root span for one scene; every span inside carries its id."""
        self._scene = scene_id
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index)
            self._scene = None

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, scene in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "scene": scene}) + "\n")
