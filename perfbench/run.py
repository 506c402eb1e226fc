"""Benchmark for hanoiduel: answer one workload's questions and check them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the checkout this file sits in.
The seed draws the workload's question set from its pinned pool (see
``workloads.py``); the set is then answered in rounds until ``--seconds``
have passed, and every answer is compared with its pin.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full report, with the environment, the
seed, the digest of the question set and any divergences, goes to
``out/``.  The exit status is 1 if any answer differs from its pin.

Timings are reported at a reference machine speed (see ``REFERENCE_S``).
With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run also answers one round with spans around every call into the
library (``tracing.py``) and one round under ``tracemalloc``, and reports
per-layer metrics.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is repeated and its median reported, so that one slow repetition
# does not decide the figure.  The import is timed in fresh interpreters,
# since a second import in this process would find the modules loaded; each
# interpreter probes its own speed (see REFERENCE_S) on either side of it.
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
IMPORT_SCRIPT = """
import sys, time
sys.path[:0] = sys.argv[1:]
import run
before = run.speed_probe()
t = time.perf_counter()
import hanoiduel.cli, hanoiduel.construct, hanoiduel.core, hanoiduel.notation
import hanoiduel.scoreforms, hanoiduel.solve, hanoiduel.verify
seconds = time.perf_counter() - t
print(seconds * 2 * run.REFERENCE_S / (before + run.speed_probe()))
"""

# The speed of a shared virtual machine drifts: on the 2-vCPU Xeon this
# benchmark was written on, the same graph build took 2.6 s one minute and
# 4.1 s the next, and the run time of a workload spread by a quarter over
# ten runs.  So a fixed loop of plain Python is timed around set-up and
# between questions, and timings are reported at the speed at which that
# loop takes REFERENCE_S, its median time on that machine.  The report
# keeps the raw figures too.
REFERENCE_S = 0.030
REFERENCE_ITERATIONS = 200_000
PROBE_EVERY_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "question_p50_ms": "ms",
    "question_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Traced functions reported with calls and inclusive seconds.
TIMED = (
    "solve.build_graph",
    "solve.solve_normal",
    "solve.bounded_scoring_search",
    "notation.replay",
    "construct.scoring_strategy",
    "scoreforms.normal_verdict",
    "scoreforms.scoring_verdict",
    "scoreforms.min_moves_scoring",
    "verify.run_checks",
    "cli.main",
)
COUNTED = (
    "solve.build_graph.states",
    "solve.build_graph.reachable",
    "solve.build_graph.edges",
    "solve.bounded_scoring_search.budgets_scanned",
    "notation.replay.plies",
    "construct.scoring_strategy.moves",
)
PER_CALL = ("core.legal_moves", "core.apply_move")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for name in COUNTED:
        units[name] = "count"
    for name in PER_CALL:
        units[f"{name}.calls"] = "count"
        units[f"{name}.us_per_call"] = "us"
    units.update({
        "solve.build_graph.reachable_ratio": "ratio",
        "solve.build_graph.us_per_state": "us",
        "solve.solve_normal.us_per_edge": "us",
        "solve.bounded_scoring_search.us_per_budget": "us",
        "notation.replay.plies_per_s": "1/s",
        "scoreforms.divergent": "count",
        "mem.question_peak_mb": "MB",
        "trace.run_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.spans": "count",
        "bench.self_s": "s",
    })
    for layer in ("core", "notation", "construct", "scoreforms", "solve", "verify", "cli"):
        units[f"{layer}.self_s"] = "s"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description="hanoiduel benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few cheap questions and one set-up (for the self-test)")
    p.add_argument("--pins", type=Path, default=HERE / "pins",
                   help="directory of pinned pools (the self-test corrupts a copy)")
    p.add_argument("--out", type=Path, default=HERE / "out")
    return p.parse_args(argv)


def import_library():
    """Import hanoiduel from this checkout's src/, never from elsewhere."""
    package = SRC / "hanoiduel"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no hanoiduel sources in {package}")
    sys.path.insert(0, str(SRC))
    import hanoiduel

    if Path(hanoiduel.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported hanoiduel from {hanoiduel.__file__}")


def import_seconds() -> float:
    """Time to import every hanoiduel layer in a fresh interpreter, at the
    reference speed.  It is timed inside that interpreter, so its start-up
    is not counted."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_SCRIPT, str(HERE), str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
    }


class Tally:
    """Answers checked so far, with failures and divergences by name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[dict] = []
        self.divergent: set[str] = set()

    def check(self, workload, qid, q, expected, answer) -> None:
        self.attempted += 1
        if answer != expected:
            self.failures.append({"question": qid, "input": q, "expected": expected, "got": answer})
        elif (name := workload.divergence(q, answer)) is not None:
            self.divergent.add(name)


def answer_safely(workload, q, ctx):
    try:
        return workload.answer(q, ctx)
    except Exception as exc:  # a failed question is counted, not fatal
        return {"error": f"{type(exc).__name__}: {exc}"}


def reference_loop() -> float:
    """Seconds for a fixed loop of integer, tuple and dict work that
    allocates nothing that outlives an iteration."""
    table = {i: i * 7 for i in range(64)}
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        key = (i * 31) & 63
        pair = (key, i)
        acc += table[key] + pair[0]
    return time.perf_counter() - start


def speed_probe() -> float:
    """Mean of five reference loops."""
    return statistics.mean(reference_loop() for _ in range(5))


def timed_round(workload, questions, ctx, tally, probes, tracer=None) -> tuple[list, list]:
    """Answer and check every question once; returns each question's raw
    time and the factor that takes it to the reference speed.

    The speed is probed before the first question, then whenever a second
    has passed, and after the last; a question is scaled by REFERENCE_S
    over the mean of the probes on either side of it.  Probes fall between
    questions, so they are in no question's time.  With a ``tracer``, the
    spans are marked with the question they fall in.

    Garbage left in reference cycles by the previous round is collected
    first, outside the timed region.  Without this, memory held only by
    cycles (the scoring search's recursive closure keeps its memo alive)
    piles up from round to round, and peak memory would depend on how many
    rounds fit into the run.
    """
    gc.collect()
    probes.append(speed_probe())
    last = time.perf_counter()
    raw, after = [], []
    for qid, (q, expected) in enumerate(questions):
        if time.perf_counter() - last >= PROBE_EVERY_S:
            probes.append(speed_probe())
            last = time.perf_counter()
        if tracer is not None:
            tracer.question = qid
        t = time.perf_counter()
        tally.check(workload, qid, q, expected, answer_safely(workload, q, ctx))
        raw.append(time.perf_counter() - t)
        after.append(len(probes))
    probes.append(speed_probe())
    return raw, [2 * REFERENCE_S / (probes[i - 1] + probes[i]) for i in after]


def memory_round(workload, questions, ctx, tally) -> float:
    """Largest tracemalloc peak of any one question, in MB."""
    peak = 0
    gc.collect()
    tracemalloc.start()
    try:
        for qid, (q, expected) in enumerate(questions):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            answer = answer_safely(workload, q, ctx)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
            tally.check(workload, qid, q, expected, answer)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def per_layer(summary: dict, counts, traced_s: float, run_s: float, spans: int,
              divergent: int, mem_mb: float) -> dict[str, float]:
    m = {name: 0 for name in per_layer_units()}
    m.update({k: v for k, v in summary.items() if k in m})
    m.update({k: counts[k] for k in COUNTED})

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    g = "solve.build_graph"
    m[f"{g}.reachable_ratio"] = ratio(m[f"{g}.reachable"], m[f"{g}.states"])
    m[f"{g}.us_per_state"] = ratio(m[f"{g}.s"], m[f"{g}.states"], 1e6)
    m["solve.solve_normal.us_per_edge"] = ratio(
        m["solve.solve_normal.s"], counts["solve.solve_normal.edges"], 1e6)
    b = "solve.bounded_scoring_search"
    m[f"{b}.us_per_budget"] = ratio(m[f"{b}.s"], m[f"{b}.budgets_scanned"], 1e6)
    m["notation.replay.plies_per_s"] = ratio(m["notation.replay.plies"], m["notation.replay.s"])
    for name in PER_CALL:
        m[f"{name}.us_per_call"] = ratio(summary.get(f"{name}.s", 0.0), m[f"{name}.calls"], 1e6)
    m["scoreforms.divergent"] = divergent
    m["mem.question_peak_mb"] = mem_mb
    m["trace.run_s"] = traced_s
    m["trace.overhead_ratio"] = ratio(traced_s, run_s)
    m["trace.spans"] = spans
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    t = time.perf_counter()
    import_library()
    import tracing
    import workloads

    import_s = time.perf_counter() - t
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    imports = [import_seconds() for _ in range(1 if args.tiny else IMPORT_REPEATS)]
    probes = [speed_probe()]
    setups = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        questions = ctx = None
        t = time.perf_counter()
        with open(args.pins / f"{workload.name}.json", encoding="utf-8") as fh:
            pool = json.load(fh)["pool"]
        questions = workload.sample(pool, random.Random(args.seed), args.tiny)
        ctx = workload.prepare([q for q, _ in questions])
        setups.append(time.perf_counter() - t)
        probes.append(speed_probe())
    inputs = json.dumps([q for q, _ in questions], sort_keys=True).encode()
    scaled_setups = [r * 2 * REFERENCE_S / (a + b) for r, a, b in zip(setups, probes, probes[1:])]

    tally = Tally()
    times: list[float] = []
    raw_rounds = []
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        raw, scales = timed_round(workload, questions, ctx, tally, probes)
        scaled = [r * f for r, f in zip(raw, scales)]
        raw_rounds.append(sum(raw))
        rounds.append(sum(scaled))
        times += scaled
    run_s = statistics.median(rounds)
    divergent = sorted(tally.divergent)

    if args.trace:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            raw, scales = timed_round(workload, questions, ctx, tally, probes, tracer)
        traced_s = sum(r * f for r, f in zip(raw, scales))
        summary = tracing.summarize(tracer, traced_s, scales)
        mem_mb = memory_round(workload, questions, ctx, tally)
        metrics = per_layer(summary, tracer.counts, traced_s, run_s,
                            len(tracer.spans), len(divergent), mem_mb)
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(scaled_setups),
            "run_s": run_s,
            "question_p50_ms": statistics.median(times) * 1e3,
            "question_p90_ms": (statistics.quantiles(times, n=10)[8]
                                if len(times) > 1 else times[0]) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (tally.attempted - len(tally.failures)) / tally.attempted,
        }
        units = END_TO_END

    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    report = {
        "workload": workload.name,
        "environment": environment(args.seed),
        "inputs_digest": hashlib.sha256(inputs).hexdigest(),
        "questions_per_round": len(questions),
        "rounds": len(rounds),
        "round_s": rounds,
        "raw_round_s": raw_rounds,
        "samples": len(times),
        "import_s": import_s,
        "fresh_import_s": imports,
        "setup_repeats_s": setups,
        "reference_s": REFERENCE_S,
        "speed_probes_s": probes,
        "divergent": divergent,
        "failures": tally.failures[:20],
        **result,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = args.out / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    if args.trace:
        tracer.write(f"{stem}.spans.json.gz")
    print(
        f"{workload.name} seed {args.seed}: {tally.attempted} answers, "
        f"{len(tally.failures)} failed, {len(divergent)} divergent; report in {stem}.json",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
