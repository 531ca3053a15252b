"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs one pass over every workload's pool twice with one seed and requires
identical outcome digests, runs one traced pass of each, and checks that every run
prints exactly the metrics BENCHMARK.json names, with their units, and
reports correct outputs.  It prints each workload's end-to-end metrics and
fail_ratio from its first run.  Finally it runs the benchmark in a directory
holding only BENCHMARK.json and bench/, where it must fail without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess, expected: dict[str, str], label: str):
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}"
    assert result["correct"] is True, f"{label}: wrong answers\n{proc.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"], label
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{label}: metrics differ from BENCHMARK.json: {set(got) ^ set(expected)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (label, name)
    digest = [line for line in lines if line.strip().startswith("digest ")]
    assert len(digest) == 1, label
    return result, digest[0]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        # a run makes at least one whole pass over its pool, and this one no more
        common = ("--workload", name, "--seed", str(SEED), "--seconds", "0.001")
        proc = run(*common, "--trace", "0")
        first, d1 = result_of(proc, end_to_end, f"{name} run 1")
        summary = "\n".join(proc.stdout.strip().splitlines()[:-1])
        second, d2 = result_of(run(*common, "--trace", "0"), end_to_end, f"{name} run 2")
        assert d1 == d2, f"{name}: same seed, different outcomes: {d1} vs {d2}"
        assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"]), name
        traced, _ = result_of(run(*common, "--trace", "1"), per_layer, f"{name} traced")
        assert (traced["attempted"], traced["failed"]) == (first["attempted"], first["failed"]), \
            f"{name}: traced run did other work"
        print(f"ok {name}: same digest twice, every metric emitted with its unit")
        print(summary)

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("--workload", "symbolic", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), "ran without the program"
    finally:
        shutil.rmtree(bare)
    print("ok without the program: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
