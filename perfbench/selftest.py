"""Self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py    (from the root of a checkout)

Checks that
  1. installing the tracer wraps every listed function and uninstalling it
     restores every patched attribute, in every lodistort module;
  2. traced outputs are bit-identical to untraced outputs on each workload;
  3. every metric a run emits is declared in BENCHMARK.json, with its unit,
     and every declared metric is emitted;
  4. the tail percentile and the import-time parser behave as documented.
Exits non-zero on the first failed check.
"""

import importlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import lodistort  # noqa: E402,F401

import probes  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


def check(condition, message):
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def snapshot(namespaces):
    return {(id(ns), attr): value for ns in namespaces for attr, value in vars(ns).items()}


def test_wrapping_restores():
    suite = workloads.Suite6(ROOT, workloads.DEFAULT_SEED)
    for module in TRACED:
        importlib.import_module(f"lodistort.{module}")
    namespaces = [m for n, m in sys.modules.items()
                  if n == "lodistort" or n.startswith("lodistort.")] + [suite.conftest]
    before = snapshot(namespaces)
    tracer = Tracer()
    with tracer.installed([suite.conftest]):
        wrapped = all(getattr(sys.modules[f"lodistort.{m}"], name) is not
                      before[(id(sys.modules[f"lodistort.{m}"]), name)]
                      for m, names in TRACED.items() for name in names)
        check(wrapped, "every traced function is wrapped at its module attribute")
        check(lodistort.pipeline.analyze is not before[(id(lodistort.pipeline), "analyze")]
              and lodistort.cli.read_wav is not before[(id(lodistort.cli), "read_wav")]
              and suite.conftest.render_scene is not before[(id(suite.conftest), "render_scene")],
              "names imported directly by pipeline.py, cli.py and conftest are wrapped")
    after = snapshot(namespaces)
    check(after.keys() == before.keys() and all(after[k] is before[k] for k in before),
          "uninstall restores every patched attribute")
    return suite


def test_bit_identical(suite):
    for workload in (suite, workloads.Beam8(ROOT, 1), workloads.Cli(ROOT, 1)):
        call = {"call": worker._cli_in_process} if workload.name == "cli" else {}
        plain, _ = workload.run_scene(workload.pool[0], digest=True, **call)
        tracer = Tracer()
        extra = [workload.conftest] if hasattr(workload, "conftest") else []
        with tracer.installed(extra), tracer.scene(0):
            traced, _ = workload.run_scene(workload.pool[0], digest=True, **call)
        check(all(a.ok and b.ok and a.digest == b.digest and a.final == b.final
                  for a, b in zip(plain, traced)) and len(plain) == len(traced),
              f"{workload.name}: traced outputs are bit-identical to untraced")
        check(len(tracer.spans) > len(plain), f"{workload.name}: spans were recorded")


def emitted_names(workload, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"run.py --workload {workload} --trace {trace} exits 0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"] and result["correct"],
          f"{workload} --trace {trace}: result has the four keys and is correct")
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        check(emitted_names("beam8", trace) == declared,
              f"--trace {trace} emits exactly the {key} metrics of BENCHMARK.json")


def test_helpers():
    check(run.tail([1.0, 2.0, 4.0]) == (2.0, 50.0), "tail falls back to the median")
    times = [float(i) for i in range(1, 41)]
    check(run.tail(times) == (30.0, 75.0), "tail keeps ten samples beyond it")
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |       2500 |   scipy.signal\n"
            "import time:       300 |    1100000 | lodistort\n")
    parsed = probes.parse_importtime(text)
    check(parsed == {"scipy.signal": 0.0025, "lodistort": 1.1}, "importtime output parses")


def main():
    test_helpers()
    suite = test_wrapping_restores()
    test_bit_identical(suite)
    test_metric_names()
    print("selftest passed")


if __name__ == "__main__":
    main()
