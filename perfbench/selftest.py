"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, prints every metric named
in BENCHMARK.json with its unit; that a corrupted pin shows up in ``failed``
and ``ok_ratio`` and makes the command exit non-zero; and that the command
fails without printing a result when the library sources are missing.
Scratch files go to ``perfbench/out/selftest``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / "selftest"


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0.5", "--out", str(SCRATCH), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, lines = bench("--workload", workload, "--seed", "7", "--trace", str(trace), "--tiny")
            result = result_of(lines)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert code == 0 and result["correct"], (workload, trace, code, result)
            assert got == expected[trace], (workload, trace, set(got) ^ set(expected[trace]))
            print(f"ok - {workload} trace {trace}: {len(got)} metrics")

    # verify-paper is the only question in its pool cell, so every draw
    # asks it: corrupting its pin must fail that question each round.
    pins = SCRATCH / "pins"
    shutil.copytree(HERE / "pins", pins)
    path = pins / "small-batch.json"
    data = json.loads(path.read_text())
    (entry,) = [e for e in data["pool"] if e["q"]["cmd"] == "verify-paper"]
    entry["a"]["exit"] += 1
    path.write_text(json.dumps(data))
    code, lines = bench("--workload", "small-batch", "--seed", "7", "--trace", "0", "--tiny",
                        "--pins", str(pins))
    result = result_of(lines)
    assert code != 0 and not result["correct"] and result["failed"] >= 1, (code, result)
    assert result["metrics"]["ok_ratio"]["value"] < 1, result
    print(f"ok - corrupted pin: exit {code}, {result['failed']}/{result['attempted']} failed")

    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = bench("--workload", "normal-oracle", "--seed", "7", "--trace", "0", cwd=bare)
    assert code != 0 and not lines, (code, lines)
    print(f"ok - without sources: exit {code}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
