"""Regenerate the pinned question pools in ``pins/`` from the current library.

    python3 perfbench/pin.py

Each pool is drawn from a fixed seed, answered, and written with its
answers and the least time of an answer, which orders the pool for
stratified sampling (see ``workloads.stratified``).  The committed pins
were made at the commit that added the benchmark; regenerate them only
when a change of answers is intended, and say so in the change.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

POOL_SEED = 20150311
TIMING_PASSES = 3


def pin(workload, pool, ctx) -> list[dict]:
    """Answer every question, then time it: the least of three timed
    answers, taken in a shuffled order each pass so that a slow spell of
    the machine does not fall on one part of the pool."""
    entries = [{"q": q, "a": workload.answer(q, ctx)} for q in pool]
    best = [math.inf] * len(entries)
    order = list(range(len(entries)))
    rng = random.Random(POOL_SEED)
    for _ in range(TIMING_PASSES):
        rng.shuffle(order)
        for i in order:
            start = time.perf_counter()
            answer = workload.answer(entries[i]["q"], ctx)
            best[i] = min(best[i], time.perf_counter() - start)
            if answer != entries[i]["a"]:
                raise SystemExit(f"error: {workload.name} answers {entries[i]['q']} differently")
    for entry, seconds in zip(entries, best):
        entry["cost_ms"] = round(seconds * 1e3, 3)
    return entries


def main() -> int:
    (HERE / "pins").mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        pool = workload.pool(random.Random(f"{POOL_SEED}:{name}"))
        ctx = workload.prepare(pool)
        entries = pin(workload, pool, ctx)
        path = HERE / "pins" / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "pool_seed": POOL_SEED, "pool": entries}, fh, indent=0)
            fh.write("\n")
        diverging = sorted({d for e in entries if (d := workload.divergence(e["q"], e["a"]))})
        print(f"{name}: {len(entries)} pinned, {len(diverging)} divergent", file=sys.stderr)
        for d in diverging:
            print(f"  {d}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
