"""Seeded inputs, the operations each workload runs, and their output checks.

Each workload owns a pool of scenes drawn from the run's seed.  The timed
loop cycles through the pool; an operation is one pipeline run on one scene
(library workloads) or one CLI call (the `cli` workload).  An operation
fails if it raises, returns a non-zero exit code, produces non-finite
output, misses the stored reference scores, or differs from its own first
pass when the pool comes round again.

Every run also processes the anchor: scene 0 of DEFAULT_SEED, used as the
warm-up scene and checked against the stored references whatever the seed.
"""

import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

import lodistort

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "references.json")

# reference tolerance: admits reorderings of exact arithmetic (einsum paths,
# Cholesky instead of LU, chunked bins) and nothing that changes the method
TOLERANCE = {"si_sdr_db": 1e-4, "psnr_db": 1e-4, "pdsacc_pct": 1e-2}
SCORE_KEYS = tuple(TOLERANCE)

DEGENERATE_MESSAGE = "principal eigenspace is degenerate"


def stratified(rng, count, low, high):
    """One uniform draw from each of `count` equal strata, in random order."""
    return low + (high - low) * (rng.permutation(count) + rng.uniform(size=count)) / count


def finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def load_references():
    with open(REFERENCE_FILE, "r", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Op:
    """Outcome of one operation."""

    name: str
    error: str = None
    final: tuple = None      # (si_sdr_db, psnr_db, pdsacc_pct) of the output
    mixture: tuple = None    # the same scores for the unprocessed reference mic
    digest: str = None       # output hash, taken only when asked for

    @property
    def ok(self):
        return self.error is None


@dataclass
class Checker:
    """Counts operations and compares scores with references and first passes."""

    references: dict
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    first_pass: dict = field(default_factory=dict)

    def expected(self, seed, workload, scene, op_name):
        by_seed = self.references.get("seeds", {}).get(str(seed))
        if by_seed is None:
            return None
        return by_seed[workload][scene].get(op_name)

    def check(self, ops, seed, workload, scene):
        for op in ops:
            if op.ok and op.final is not None:
                op.error = self._compare(op, seed, workload, scene)
            self.attempted += 1
            if not op.ok:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(f"{workload} seed {seed} scene {scene} "
                                        f"{op.name}: {op.error}")
        return ops

    def _compare(self, op, seed, workload, scene):
        if not finite(op.final + op.mixture):
            return f"non-finite scores {op.final} / {op.mixture}"
        key = (seed, scene, op.name)
        seen = self.first_pass.setdefault(key, op.final)
        if seen != op.final:
            return f"scores {op.final} differ from this run's first pass {seen}"
        ref = self.expected(seed, workload, scene, op.name)
        if ref is not None:
            for name, got, want in zip(SCORE_KEYS, op.final, ref):
                if abs(got - want) > TOLERANCE[name]:
                    return f"{name} {got!r} misses reference {want!r}"
        return None


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _scores(report):
    return (float(report.si_sdr_db), float(report.psnr_db), float(report.pdsacc_percent))


def count_degenerate(caught):
    return sum(1 for w in caught if DEGENERATE_MESSAGE in str(w.message))


class LibraryWorkload:
    """Pipelines run in-process through `lodistort.run_pipeline`."""

    name = None
    pipelines = ()
    spec_kwargs = {}
    pool_size = 0
    mics = 0
    min_timed_scenes = 1

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.params = self.draw(seed)
        self.pool = [self.render(p) for p in self.params]
        self.anchor = self.pool[0] if seed == DEFAULT_SEED \
            else self.render(self.draw(DEFAULT_SEED)[0])

    def draw(self, seed):
        """Per scene: a scene seed, T60 in 0.2-1.0 s and SNR in -8-3 dB (both
        stratified over the pool), and per-mic direct-path delay offsets."""
        rng = np.random.default_rng([seed, self.mics])
        t60 = stratified(rng, self.pool_size, 0.2, 1.0)
        snr = stratified(rng, self.pool_size, -8.0, 3.0)
        return [(int(rng.integers(0, 1 << 30)), float(t60[i]), float(snr[i]),
                 rng.integers(0, 6, size=self.mics))
                for i in range(self.pool_size)]

    def render(self, params):
        scene = self.build(*params)
        return scene.mixture, scene.direct_path

    def run_scene(self, inputs, digest=False):
        """Run every pipeline of the mix on one scene; returns (ops, warnings)."""
        mixture, target = inputs
        ops = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for name in self.pipelines:
                ops.append(self._run_one(name, mixture, target, digest))
        return ops, count_degenerate(caught)

    def _run_one(self, name, mixture, target, digest):
        spec = lodistort.PipelineSpec(name, **self.spec_kwargs)
        try:
            result = lodistort.run_pipeline(mixture, spec, target)
        except Exception as exc:  # any raise is a failed operation
            return Op(name, error=f"{type(exc).__name__}: {exc}")
        out, wave = result.final, result.final_wave.samples
        op = Op(name, final=_scores(result.metrics[name]),
                mixture=_scores(result.metrics["mixture"]))
        if not (np.all(np.isfinite(out)) and np.all(np.isfinite(wave))):
            op.error = "non-finite output"
        if digest:
            op.digest = _digest(out, wave)
        return op


def _load_conftest(root):
    path = os.path.join(root, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("perfbench_suite_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Suite6(LibraryWorkload):
    """All 11 pipelines, oracleDirect, on the test suite's 6-mic 4 s scenes."""

    name = "suite6"
    pool_size = 3

    def __init__(self, root, seed):
        self.conftest = _load_conftest(root)
        self.pipelines = lodistort.PIPELINE_NAMES
        self.mics = self.conftest.SUITE_MICS
        super().__init__(root, seed)

    def build(self, index, t60, snr_db, offsets):
        return self.conftest.build_suite_scene(index, t60, snr_db, offsets)


class Beam8(LibraryWorkload):
    """Beamformers only, on short 8-mic scenes with a corrupted PSM estimate."""

    name = "beam8"
    pipelines = ("mvdr", "mmvdr", "gev", "mcwf")
    spec_kwargs = {"estimator": "oraclePhaseSensitiveMask", "est_err_snr_db": 10.0}
    pool_size = 48
    mics = 8
    num_samples = 16000  # 1 s at 16 kHz

    def build(self, scene_seed, t60, snr_db, offsets):
        room = lodistort.RoomSpec(
            num_mics=self.mics,
            t60_seconds=t60,
            rir_len_samples=max(1024, int((t60 + 0.05) * 16000)),
            direct_delay_samples=tuple(8 + int(d) for d in offsets),
            seed=scene_seed,
        )
        source = lodistort.synth_speech_like(self.num_samples, seed=[scene_seed, 1])
        noises = [lodistort.synth_noise(self.num_samples, seed=[scene_seed, k])
                  for k in (2, 3)]
        return lodistort.render_scene(source, noises, room, snr_db=snr_db)


class Cli:
    """simulate -> enhance -> evaluate -> analyze-phase, one CLI call at a time.

    Each chain slot has a fixed room (T60, SNR); the seed draws the signals.
    """

    name = "cli"
    min_timed_scenes = 2  # each process's throughput sample spans two chains
    rooms = ((0.33, 1.2), (0.6, -2.5), (0.87, -6.2))  # (t60 s, snr dB) per chain
    pipeline = "fcp_mwmpdr_wpe"
    estimator = ("--estimator", "oraclePhaseSensitiveMask", "--est-err-snr-db", "10")

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.params = self.pool = self.draw(seed)
        self.anchor = self.draw(DEFAULT_SEED)[0]
        self.workdir = os.path.join("perfbench", "out", f"work-{os.getpid()}")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)

    def draw(self, seed):
        rng = np.random.default_rng([seed, 4])
        return [(int(rng.integers(1, 1 << 30)), t60, snr) for t60, snr in self.rooms]

    def paths(self):
        w = self.workdir
        return {
            "scene": os.path.join(w, "scene"),
            "enhanced": os.path.join(w, "enhanced"),
            "evaluate": os.path.join(w, "evaluate.json"),
            "phase": os.path.join(w, "phase.json"),
        }

    def argvs(self, params):
        sim_seed, t60, snr = params
        p = self.paths()
        return [
            ("simulate", ["simulate", "--mics", "4", "--t60", repr(t60), "--snr-db",
                          repr(snr), "--seed", str(sim_seed), "--duration", "2",
                          "--out", p["scene"]]),
            ("enhance", ["enhance", "--scene", p["scene"], "--pipeline", self.pipeline,
                         *self.estimator, "--seed", str(sim_seed), "--out", p["enhanced"]]),
            ("evaluate", ["evaluate",
                          "--estimate", os.path.join(p["enhanced"], f"{self.pipeline}.wav"),
                          "--reference", os.path.join(p["scene"], "direct.wav"),
                          "--mixture", os.path.join(p["scene"], "mixture.wav"),
                          "--out", p["evaluate"]]),
            ("analyze-phase", ["analyze-phase", "--scene", p["scene"], *self.estimator,
                               "--seed", str(sim_seed), "--out", p["phase"]]),
        ]

    def run_scene(self, params, digest=False, call=None):
        """One chain; `call(argv) -> (exit code, stderr)` defaults to a subprocess."""
        call = call or self._subprocess
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        ops = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for name, argv in self.argvs(params):
                code, err = call(argv)
                ops.append(Op(name, error=None if code == 0
                              else f"exit code {code}: {err.strip()[-300:]}"))
        if all(op.ok for op in ops):
            self._read_outputs(ops)
        if digest:
            ops[-1].digest = self._digest_files()
        shutil.rmtree(self.workdir, ignore_errors=True)
        return ops, count_degenerate(caught)

    def _subprocess(self, argv):
        proc = subprocess.run([sys.executable, "-m", "lodistort.cli", *argv],
                              cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        return proc.returncode, proc.stderr

    def _read_outputs(self, ops):
        p = self.paths()
        by_name = {op.name: op for op in ops}
        with open(os.path.join(p["enhanced"], "metrics.json"), encoding="utf-8") as h:
            stages = json.load(h)["stages"]
        with open(p["evaluate"], encoding="utf-8") as h:
            evaluated = json.load(h)
        with open(p["phase"], encoding="utf-8") as h:
            phase = json.load(h)

        def triple(d):
            return tuple(float(d[k]) if not isinstance(d[k], str) else math.nan
                         for k in ("siSdrDb", "pSnrDb", "pdsAccPercent"))

        enhance, evaluate = by_name["enhance"], by_name["evaluate"]
        enhance.final, enhance.mixture = triple(stages[self.pipeline]), triple(stages["mixture"])
        evaluate.final, evaluate.mixture = triple(evaluated), enhance.mixture
        numbers = [v for v in phase.values() if isinstance(v, (int, float))]
        if not finite(numbers):
            by_name["analyze-phase"].error = "non-finite phase statistics"

    def _digest_files(self):
        h = hashlib.sha256()
        for base, _, files in sorted(os.walk(self.workdir)):
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(path.encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
        return h.hexdigest()

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Suite6, Beam8, Cli)}
