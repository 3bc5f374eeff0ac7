"""Benchmark of ``wgames``, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree that holds ``src/wgames`` and
``tests/oracles.py``; nothing needs installing beyond the program's own
dependency, ``click``.  A run repeats whole passes over the seed's inputs
for about S seconds.  Every pass runs each shard in a fresh interpreter
(``worker.py``), so caches start cold and set-up is measured once per
shard.  With ``--trace 0`` the passes are untraced and the run reports the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and the run reports the per-layer metrics and the tracing overhead.  The
last line of stdout is one JSON object; the lines before it say the same
for a reader.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median, quantiles

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# two passes at least: set-up is timed more than once, and every report
# can be compared with the same command's report in the other pass
MIN_PASSES = 2
RUN_LIMIT_S = 170

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
SELF_TIMES = ("recall", "necessity", "fields", "playability", "kuhn", "strategies", "io", "cli")
COUNTS = (
    "recall.prefixes_enumerated", "recall.prefixes_nonempty", "recall.search_nodes",
    "fields.cylinder_partition_calls", "fields.partition_join_calls",
    "playability.solves", "playability.profiles", "playability.mask_cache_hits", "playability.mask_cache_misses",
    "kuhn.samples", "kuhn.conditional_kernel_calls", "strategies.mixed_plans", "io.report_bytes",
)
SEQUENTIAL_TAGS = ("k5", "k6", "k7")


class BenchError(RuntimeError):
    pass


def run_worker(workload, seed, shard, mode, workdir, deadline):
    """One worker process; its own session, so a timeout kills its children too."""
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(shard), mode, str(workdir)]
    spawn = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} shard {shard} passed the {RUN_LIMIT_S} s limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload} shard {shard} exited {proc.returncode}:\n{err[-2000:]}")
    if mode == "prepare":
        return None
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawn
    return result


def measure(workload, seed, seconds, trace, workdir) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    dirs = [workdir / f"shard{s}" for s in range(WORKLOADS[workload].shards)]
    for s, d in enumerate(dirs):
        d.mkdir(parents=True)
        run_worker(workload, seed, s, "prepare", d, deadline)
    passes = []  # (traced, [worker results])
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        shards = [run_worker(workload, seed, s, "1" if traced else "0", d, deadline) for s, d in enumerate(dirs)]
        passes.append((traced, shards))
        now = time.perf_counter()
        # start another pass only if it should end within the run length
        if len(passes) >= MIN_PASSES and now - start + (now - t0) > seconds:
            break
        if now + (now - t0) > deadline:
            break
    return summarize(workload, passes, trace)


def summarize(workload, passes, trace) -> dict:
    workers = [w for _, shards in passes for w in shards]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    correct = all(w["correct"] for w in workers)
    errors = [e for w in workers for e in w["errors"]]
    # the same command on the same input must print the same report
    first = passes[0][1]
    for _, shards in passes[1:]:
        for a, b in zip(first, shards):
            changed = sum(x != y for x, y in zip(a["digests"], b["digests"]))
            if changed:
                failed += changed
                correct = False
                errors.append(f"{changed} reports differ between passes")
    outcomes = Counter()
    for w in first:
        outcomes.update(w["outcomes"])

    metrics = {}
    if not trace:
        latencies = [dt for w in workers for _, dt in w["ops"]]
        metrics["setup_s"] = median(w["setup_s"] for w in workers)
        metrics["ops_per_s"] = len(latencies) / sum(w["timed_s"] for w in workers)
        metrics["op_p50_ms"] = median(latencies) * 1000
        metrics["op_p90_ms"] = quantiles(latencies, n=10, method="inclusive")[8] * 1000
        metrics["peak_rss_mb"] = max(w["rss_mb"] for w in workers)
        units = dict(END_TO_END)
    else:
        metrics = layer_metrics(passes)
        units = dict(layer_units())
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "passes": len(passes),
        "workers": len(workers),
        "outcomes": dict(sorted(outcomes.items())),
        "errors": errors[:5],
    }


def layer_units():
    for layer in SELF_TIMES:
        yield f"{layer}.self_s", "s"
        if layer == "recall":
            for tag in SEQUENTIAL_TAGS:
                yield f"recall.self_s.{tag}", "s"
    for name in COUNTS:
        yield name, "bytes" if name == "io.report_bytes" else "count"
    yield "cli.import_ms", "ms"
    yield "trace.overhead_ratio", "ratio"


def layer_metrics(passes) -> dict:
    """Medians over the traced passes of per-pass sums over shards."""
    per_pass = []
    for traced, shards in passes:
        if not traced:
            continue
        values = Counter()
        for w in shards:
            self_s, counts = w["layers"]["self_s"], w["layers"]["counts"]
            for layer in SELF_TIMES:
                values[f"{layer}.self_s"] += self_s.get(layer, 0.0)
            for tag in SEQUENTIAL_TAGS:
                values[f"recall.self_s.{tag}"] += self_s.get(f"recall@{tag}", 0.0)
            for name in COUNTS:
                values[name] += counts.get(name, 0)
        values["cli.import_ms"] = median(w["import_ms"] for w in shards)
        per_pass.append(values)
    untraced = median(sum(w["timed_s"] for w in shards) for traced, shards in passes if not traced)
    traced = median(sum(w["timed_s"] for w in shards) for traced, shards in passes if traced)
    metrics = {name: median(p[name] for p in per_pass) for name, _ in layer_units() if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = traced / untraced
    return metrics


def print_report(workload, seed, summary) -> None:
    print(f"workload {workload}  seed {seed}  passes {summary['passes']}  workers {summary['workers']}")
    print(f"  attempted {summary['attempted']}  failed {summary['failed']}  correct {str(summary['correct']).lower()}")
    for outcome, n in summary["outcomes"].items():
        print(f"  outcome  {outcome}: {n}")
    for name, m in summary["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6f} {m['unit']}")
    for error in summary["errors"]:
        print(f"  error: {error}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    missing = [p for p in (ROOT / "src" / "wgames" / "__init__.py", ROOT / "tests" / "oracles.py") if not p.is_file()]
    if missing:
        print(f"run.py: missing {', '.join(map(str, missing))}; run from a wgames source tree", file=sys.stderr)
        return 2
    # byte-compile once, so the first pass does not pay for it in set-up
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    compileall.compile_file(ROOT / "tests" / "oracles.py", quiet=1)

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    workdir = HERE / "work" / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace, workdir / name)
            print_report(name, args.seed, results[name])
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps({k: final[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
