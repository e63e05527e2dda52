"""Regenerate perfbench/references.json from the current source tree.

    python3 perfbench/make_references.py    (from the root of a checkout)

Stores the final-stage scores (SI-SDR, pSNR, PDSAcc) of every pool scene x
pipeline, and the CLI `enhance`/`evaluate` scores of every chain, for the
default seed and the held-out seed.  Run it only when a change is meant to
alter outputs, and say so: the benchmark counts every miss as a failure.
"""

import json
import os
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def scores_for(name, seed):
    workload = workloads.WORKLOADS[name](ROOT, seed)
    scenes = []
    try:
        for inputs in workload.pool:
            ops, _ = workload.run_scene(inputs)
            bad = [op for op in ops if not op.ok]
            if bad:
                raise SystemExit(f"{name} seed {seed}: {bad[0].name} failed: {bad[0].error}")
            scenes.append({op.name: list(op.final) for op in ops if op.final is not None})
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup()
    return scenes


def main():
    seeds = (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)
    payload = {
        "tolerance": workloads.TOLERANCE,
        "score_order": list(workloads.SCORE_KEYS),
        "seeds": {str(seed): {name: scores_for(name, seed) for name in workloads.WORKLOADS}
                  for seed in seeds},
    }
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
