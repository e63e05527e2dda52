"""One benchmark process: set up a workload, then time it or trace it.

Run by run.py from the root of a checkout, never directly by hand:

    python3 perfbench/worker.py --workload W --seed N --seconds S --role R [--start K]

Both roles first set up: import, generate the inputs, run the warm-up scene.
Roles:
    run     then a share of the timed closed loop (tracing off)
    trace   then untraced and traced passes over each scene

The last line of standard output is one JSON object for run.py.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import lodistort  # noqa: E402  (the program under test, from this checkout)
import lodistort.cli  # noqa: E402
import numpy as np  # noqa: E402

import probes  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT as ROOT_SPAN, Tracer, traced_names  # noqa: E402


def setup(name, seed):
    """Import (done above), inputs, then the warm-up scene.  On `cli` the
    warm-up chain runs in-process through `cli.main`: the worker's own import
    has already warmed the files every CLI process reads, and a chain of fresh
    processes would make set-up mostly four more imports."""
    workload = workloads.WORKLOADS[name](ROOT, seed)
    checker = workloads.Checker(workloads.load_references())
    call = {"call": _cli_in_process} if name == "cli" else {}
    ops, _ = workload.run_scene(workload.anchor, **call)
    checker.check(ops, workloads.DEFAULT_SEED, name, 0)
    return workload, checker


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_loop(workload, checker, seconds, start, finish):
    """Closed loop over the pool from global scene index `start`: the next
    scene starts when the last ends, until `seconds` have passed and at least
    the workload's `min_timed_scenes` have run.  Returns per-scene times and
    the scores of each pool scene this process ran, keyed by pool index."""
    times = []
    scores = {}

    def run(k):
        ops, _ = workload.run_scene(workload.pool[k])
        checker.check(ops, workload.seed, workload.name, k)
        scores.setdefault(k, [[op.name, op.final, op.mixture] for op in ops])

    begin = time.perf_counter()
    while True:
        scene_start = time.perf_counter()
        run((start + len(times)) % len(workload.pool))
        end = time.perf_counter()
        times.append(end - scene_start)
        if end - begin >= seconds and len(times) >= workload.min_timed_scenes:
            break
    if finish:
        # pool scenes no process reached still get checked and scored, untimed
        for k in range(start + len(times), len(workload.pool)):
            run(k)
    return times, end - begin, scores


def _cli_in_process(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = lodistort.cli.main(argv)
    return code, err.getvalue()


def trace_loop(workload, checker, seconds, tracer):
    """Per scene: an untraced and a traced pass, in alternating order; outputs
    must match bit for bit.  At least two scenes, so the order effect cancels."""
    extra = [workload.conftest] if hasattr(workload, "conftest") else []
    is_cli = workload.name == "cli"
    call = {"call": _cli_in_process} if is_cli else {}
    walls = {False: 0.0, True: 0.0}
    degenerate = scenes = 0
    start = time.perf_counter()
    while scenes < 2 or time.perf_counter() - start < seconds:
        k = scenes % len(workload.pool)
        passes = {}
        for traced in (False, True) if scenes % 2 == 0 else (True, False):
            if not traced:
                begin = time.perf_counter()
                passes[traced], _ = workload.run_scene(workload.pool[k], digest=True, **call)
                walls[traced] += time.perf_counter() - begin
                continue
            with tracer.installed(extra), tracer.scene(scenes):
                inputs = workload.pool[k]
                if not is_cli:
                    # re-render under the trace so the scene layer is measured
                    inputs = workload.render(workload.params[k])
                    if not all(np.array_equal(a.samples, b.samples)
                               for a, b in zip(inputs, workload.pool[k])):
                        checker.failed += 1
                        checker.reasons.append(f"scene {k}: traced render differs")
                begin = time.perf_counter()
                passes[traced], warned = workload.run_scene(inputs, digest=True, **call)
                walls[traced] += time.perf_counter() - begin
            degenerate += warned
        for ops in passes.values():
            checker.check(ops, workload.seed, workload.name, k)
        for a, b in zip(passes[False], passes[True]):
            if a.digest != b.digest:
                checker.failed += 1
                checker.reasons.append(f"scene {k} {a.name}: traced output differs")
        scenes += 1
    return scenes, walls[False], walls[True], degenerate


def layer_metrics(tracer, scenes, untraced_s, traced_s, degenerate):
    own = tracer.self_times()
    totals = {name: [0.0, 0] for name in traced_names()}
    root_self = root_wall = 0.0
    solve_under_wpe = 0.0
    for (name, start, end, parent, _), self_s in zip(tracer.spans, own):
        if name == ROOT_SPAN:
            root_self += self_s
            root_wall += end - start
            continue
        totals[name][0] += self_s
        totals[name][1] += 1
        if name == "linalg.solve_stack" and parent >= 0 \
                and tracer.spans[parent][0] == "linpred.wpe_field":
            solve_under_wpe += self_s
    metrics = {}
    for name, (self_s, calls) in totals.items():
        metrics[f"{name}.self_s"] = (self_s / scenes, "s")
        metrics[f"{name}.calls"] = (calls / scenes, "count")
    counts = tracer.counts
    gflop = counts.get("linpred.wpe_field.gflop", 0.0)
    wpe_s = totals["linpred.wpe_field"][0] + solve_under_wpe
    metrics["linpred.wpe_field.gflop"] = (gflop / scenes, "GFLOP")
    metrics["linpred.wpe_field.gflop_per_s"] = (gflop / wpe_s if wpe_s else 0.0, "GFLOP/s")
    metrics["linpred.build_delayed_stack.mb"] = (
        counts.get("linpred.build_delayed_stack.mb", 0.0) / scenes, "MB")
    metrics["specio.write_spectrogram.mb"] = (
        counts.get("specio.write_spectrogram.mb", 0.0) / scenes, "MB")
    metrics["stats.steering_vector.degenerate_warnings"] = (degenerate / scenes, "count")
    for layer in ("linalg", "beamform"):
        key = f"{layer}.singular_errors"
        metrics[key] = (counts.get(key, 0) / scenes, "count")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    metrics["trace.covered_frac"] = (1.0 - root_self / root_wall, "ratio")
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", required=True, choices=("run", "trace"))
    parser.add_argument("--start", type=int, default=0,
                        help="global index of this process's first timed scene")
    parser.add_argument("--finish", action="store_true",
                        help="afterwards run the pool scenes no process reached")
    args = parser.parse_args()

    workload, checker = setup(args.workload, args.seed)
    out = {"ready": time.monotonic()}
    try:
        out["machine"] = probes.machine()
        if args.role == "run":
            times, elapsed, scores = timed_loop(workload, checker, args.seconds,
                                                args.start, args.finish)
            out.update(scene_times=times, elapsed=elapsed, scores=scores)
        elif args.role == "trace":
            layer = probes.import_breakdown(ROOT)
            layer["linpred.wpe_field.self_s_1thread"] = (
                probes.wpe_field_one_thread(ROOT), "s")
            tracer = Tracer()
            counts = trace_loop(workload, checker, args.seconds, tracer)
            layer.update(layer_metrics(tracer, *counts))
            os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
            tracer.write(os.path.join(
                ROOT, "perfbench", "out", f"spans-{args.workload}-{args.seed}.jsonl"))
            out["layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            out["traced_scenes"] = counts[0]
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup()
    out.update(attempted=checker.attempted, failed=checker.failed,
               reasons=checker.reasons, peak_rss_mb=peak_rss_mb(args.workload))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
