"""lodistort benchmark: closed-loop workloads with output checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite6 --seed 0 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
    suite6  all 11 pipelines, oracleDirect, on the test suite's 6-mic 4 s scenes
    beam8   mvdr, mmvdr, gev and mcwf on 1 s 8-mic scenes, PSM estimate at 10 dB
    cli     simulate, enhance, evaluate, analyze-phase as fresh CLI processes

One client runs one scene at a time (a closed loop, no thread pool).  With
--trace 0 the run reports the end-to-end metrics from SETUP_REPEATS fresh
worker processes in turn: each sets up (import, input generation, one
warm-up scene), which gives the set-up samples, then times its share of the
--seconds of closed loop (at least the workload's min_timed_scenes);
scenes_per_s is the median over those processes of each one's scenes per
second of its timed loop.  With --trace 1 a single worker reports per-layer
metrics from spans recorded around lodistort's public functions (tracer.py).

Earlier lines of standard output give the details (tail percentile and
sample count, failures, the machine block); the last line is the JSON
result.  Results and spans are also written under perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the root of the checkout")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_checkout():
    for rel in ("src/lodistort/__init__.py", "tests/conftest.py"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail(f"{rel} is missing: run from the root of a lodistort checkout")


def spawn(args, role, deadline, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--role", role, *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        fail(f"{role} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{role} worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def timed_workers(args, deadline):
    """SETUP_REPEATS fresh processes, each timing its share of the loop and
    carrying on through the pool where the previous one stopped."""
    workers = []
    done = 0
    for i in range(SETUP_REPEATS):
        extra = ["--seconds", str(args.seconds / SETUP_REPEATS), "--start", str(done)]
        if i == SETUP_REPEATS - 1:
            extra.append("--finish")
        workers.append(spawn(args, "run", deadline, *extra))
        done += len(workers[-1]["scene_times"])
    return workers


def merge_scores(workers, reasons):
    """First-pass scores per pool scene; a scene run by two processes must
    score identically in both.  Returns (scores by scene, mismatches)."""
    merged = {}
    mismatches = 0
    for w in workers:
        for k, ops in w["scores"].items():
            if merged.setdefault(k, ops) != ops:
                mismatches += 1
                reasons.append(f"scene {k}: scores differ between processes")
    return merged, mismatches


def quality(scores, workload):
    """Means over every final output: SI-SDR and pSNR as gains over the
    unprocessed reference mic, PDSAcc as is.  On `cli` the output is the one
    `evaluate` scored."""
    pairs = [(final, mixture) for ops in scores.values() for name, final, mixture in ops
             if final is not None and (workload != "cli" or name == "evaluate")]
    if not pairs:
        return None, None, None
    n = len(pairs)
    return (sum(f[0] - m[0] for f, m in pairs) / n,
            sum(f[1] - m[1] for f, m in pairs) / n,
            sum(f[2] for f, _ in pairs) / n)


def tail(times):
    """Value at the highest percentile with at least TAIL_BEYOND samples
    beyond it (nearest rank), and that percentile.  With too few samples no
    such percentile exists; the median stands in, so that the metric never
    rests on a single extreme sample."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(workers, scores, workload, failed, attempted):
    times = [t for w in workers for t in w["scene_times"]]
    tail_s, tail_pct = tail(times)
    si_sdr, psnr, pdsacc = quality(scores, workload)
    metrics = {
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
        "scenes_per_s": (statistics.median(len(w["scene_times"]) / w["elapsed"]
                                           for w in workers), "1/s"),
        "scene_s_p50": (statistics.median(times), "s"),
        "scene_s_tail": (tail_s, "s"),
        "peak_rss_mb": (max(w["peak_rss_mb"] for w in workers), "MB"),
        "si_sdr_gain_db": (si_sdr, "dB"),
        "psnr_gain_db": (psnr, "dB"),
        "pdsacc_pct": (pdsacc, "%"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    details = {
        "scene_s_tail": {"percentile": tail_pct, "samples": len(times)},
        "setup_s_samples": [w["setup_s"] for w in workers],
    }
    return metrics, details


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    spec = load_spec()
    check_checkout()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    if args.trace:
        workers = [spawn(args, "trace", deadline, "--seconds", str(args.seconds))]
    else:
        workers = timed_workers(args, deadline)
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    reasons = [r for w in workers for r in w["reasons"]]
    if args.trace:
        metrics = {k: (v["value"], v["unit"]) for k, v in workers[0]["layer"].items()}
        details = {"traced_scenes": workers[0]["traced_scenes"]}
        declared = spec["per_layer"]
    else:
        scores, mismatches = merge_scores(workers, reasons)
        attempted += mismatches
        failed += mismatches
        metrics, details = end_to_end(workers, scores, args.workload, failed, attempted)
        declared = spec["end_to_end"]

    names_ok = sorted(metrics) == sorted(m["name"] for m in declared) and all(
        metrics[m["name"]][1] == m["unit"] for m in declared)
    values_ok = all(isinstance(v, (int, float)) for v, _ in metrics.values())
    if not names_ok:
        reasons.append("emitted metric names or units differ from BENCHMARK.json")
    correct = failed == 0 and names_ok and values_ok

    details.update(machine=workers[-1]["machine"], workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, failures=reasons)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"details": details, "result": result}, handle, indent=2)
    print(json.dumps(details))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
