"""One shard of one workload, in a fresh interpreter.

Usage: worker.py WORKLOAD SEED SHARD MODE WORKDIR

MODE ``prepare`` writes the shard's input files to WORKDIR and exits.
MODE ``0`` (untraced) or ``1`` (traced) imports ``wgames``, builds the same
inputs in memory, runs the operations back to back with one in flight,
then checks every answer outside the timed region and prints one JSON line
for ``run.py``.  A fresh interpreter per shard
keeps the ``lru_cache``s of ``playability`` and ``recall`` cold, as they are
for a user's first analysis of a model.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))


def main() -> None:
    workload, seed, shard, mode, workdir = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4], Path(sys.argv[5])
    traced = mode == "1"
    start = time.perf_counter()
    import wgames.cli  # noqa: F401  (the program's own import is part of set-up)

    import_ms = (time.perf_counter() - start) * 1000
    import spans
    import workloads

    if mode == "prepare":
        workloads.WORKLOADS[workload](seed, shard, workdir, prepare=True).setup()
        return
    tracer = spans.Tracer() if traced else None
    wl = workloads.WORKLOADS[workload](seed, shard, workdir, tracer)
    ops = wl.setup()
    if tracer is not None:
        tracer.install()

    latencies, results = [], []
    ready = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.tag = op.tag
        t0 = time.perf_counter()
        result = wl.run(op)
        latencies.append(time.perf_counter() - t0)
        results.append(result)
    timed_s = time.perf_counter() - ready
    who = resource.RUSAGE_CHILDREN if workload == "cli-corpus" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024

    failed, correct, errors = 0, True, []
    outcomes: Counter = Counter()
    for op, result in zip(ops, results):
        if result.crash or result.code not in (0, 1, 2, 3):
            failed += 1
            errors.append(f"{op.name} {op.argv}: exit {result.code}\n{result.crash}")
            continue
        try:
            problem = wl.check(op, result)
            outcomes[f"{op.name} exit {result.code} {result.outcome()}".rstrip()] += 1
        except Exception:
            problem = "check raised\n" + traceback.format_exc()
        if problem:
            failed += 1
            correct = False
            errors.append(f"{op.name} {op.argv}: {problem}")

    out = {
        "ready": ready,
        "timed_s": timed_s,
        "ops": [[op.name, dt] for op, dt in zip(ops, latencies)],
        "rss_mb": rss_mb,
        "import_ms": import_ms,
        "attempted": len(ops),
        "failed": failed,
        "correct": correct,
        "errors": errors[:5],
        "outcomes": outcomes,
        "digests": [hashlib.sha256(r.out.encode()).hexdigest()[:16] for r in results],
    }
    if traced:
        out["layers"], rows, out["import_ms"] = wl.layers(import_ms)
        with open(HERE / "work" / f"spans-{workload}-{shard}.tsv", "w", encoding="utf-8") as f:
            f.writelines(rows)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
