"""Measurements taken in fresh subprocesses, and the machine block.

    python3 perfbench/probes.py wpe1    (from the root of a checkout)

times one `wpe_field` call on the anchor suite scene in this process; run
it with OPENBLAS_NUM_THREADS=1 for the single-threaded baseline.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 3


def _env(root, **extra):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


def parse_importtime(text):
    """Cumulative seconds per module from `python -X importtime` output."""
    cumulative = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return cumulative


def import_breakdown(root):
    """Median over fresh interpreters of `import lodistort` and `scipy.signal`."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lodistort"],
                              cwd=root, env=_env(root), capture_output=True, text=True,
                              timeout=120, check=True)
        runs.append(parse_importtime(proc.stderr))
    return {
        "import.lodistort_s": (statistics.median(r.get("lodistort", 0.0) for r in runs), "s"),
        "import.scipy_signal_s": (
            statistics.median(r.get("scipy.signal", 0.0) for r in runs), "s"),
    }


def wpe_field_one_thread(root):
    """Self time of one warm `wpe_field` call with BLAS held to one thread."""
    env = _env(root, **{name: "1" for name in THREAD_VARS})
    proc = subprocess.run([sys.executable, os.path.join(HERE, "probes.py"), "wpe1"],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["self_s"]


def _wpe1():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(1, HERE)
    import lodistort
    import workloads
    from tracer import Tracer

    suite = workloads.Suite6(os.getcwd(), workloads.DEFAULT_SEED)
    mixture, target = suite.anchor
    mix = lodistort.analyze(mixture)
    est = lodistort.oracle_estimate(mix, lodistort.analyze(target), "oracleDirect")
    psd = lodistort.psd_floor(est.channel(0))
    taps = lodistort.default_taps(mix.shape[2])
    lodistort.wpe_field(mix, psd, taps)  # warm-up: first-call costs
    tracer = Tracer()
    with tracer.installed():
        lodistort.linpred.wpe_field(mix, psd, taps)
    own = tracer.self_times()
    self_s = sum(s for span, s in zip(tracer.spans, own) if span[0] == "linpred.wpe_field")
    print(json.dumps({"self_s": self_s}))


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _last_level_cache():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, "unknown")
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, entry, "level")).strip()
        size = _read(os.path.join(base, entry, "size")).strip()
        if level.isdigit() and int(level) > best[0]:
            best = (int(level), f"L{level} {size}")
    return best[1]


def machine():
    """Hardware and library versions, recorded with every result."""
    import numpy
    import scipy

    blas = {}
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["wpe1"]:
        sys.exit("usage: probes.py wpe1")
    _wpe1()
