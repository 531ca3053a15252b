"""Benchmark of the nullag workbench.

    python3 bench/run.py --workload symbolic --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; nullag is imported from ./src.  One
client runs one workload closed-loop in this process.  The seed fixes a pool
of cycles of operations (workloads.pool); the run goes through the pool
cycle by cycle, pass after pass, until it has made one whole pass and the
operations have taken --seconds.  A tiny --seconds therefore runs exactly
one pass, and two such runs with one seed do the same work.

--trace 0 reports the end-to-end metrics.  --trace 1 runs for half the time
untraced, then replays the same cycles with a span around every public call
the operations make, and reports the per-layer metrics (see tracing.py) and
the tracing overhead; spans are written to bench/out/<workload>.spans.jsonl.gz.

Every time below is corrected for the speed of the shared host at the moment
it was measured (see hostspeed.py), so that a run taken while the host is
busy reads like one taken while it is idle.  End-to-end metrics: ops_per_s
is the operations run (failed ones included) per second of operation time;
latency_p50_ms and latency_tail_ms are the median and the latency at the
highest percentile with ten samples beyond it (that percentile and the
sample count are printed beside it) of the distinct inputs that did not
fail, each taken at the median of its runs;
peak_rss_mb is this process's peak resident memory after the untraced
phase; setup_s is the median wall time of fresh interpreters importing
nullag and nullag.cli, one started before each cycle so that the samples
spread over the run as the operations do.

An operation fails when it raises an exception that `nullag` on the command
line would print as a traceback (anything but exit 2 or 3), or when its
answer contradicts the independent reference; `correct` is false only for
the latter, or when a repeated input gives another outcome than its first
run.  attempted and failed count distinct inputs of the pool, each once
however often it ran, so that they do not depend on the host's speed.
fail_ratio = failed / attempted is printed with the other metrics.  The
last line of standard output is one JSON object: correct, attempted,
failed and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("symbolic", "numeric")
TAIL_BEYOND = 10


def setup_time() -> tuple[float, float, float]:
    """Start, end and wall time of a fresh interpreter importing nullag and
    its CLI module."""
    start = time.perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import nullag, nullag.cli"], cwd=ROOT,
                   env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}, check=True)
    end = time.perf_counter()
    return start, end, end - start


class Outcomes:
    """The outcome of each distinct input of the pool, keyed by (cycle,
    position); a repeat of an input must give the outcome of its first run."""

    def __init__(self):
        self.first: dict[tuple[int, int], tuple] = {}
        self.tracebacks: dict[tuple[int, int], str] = {}
        self.wrong: dict[tuple[int, int], str] = {}
        self.counters: dict[tuple[int, int], dict] = {}
        self.exit2: dict[tuple[int, int], str] = {}  # completed, answering exit 2: label
        self.changed: list[str] = []

    def record(self, key, outcome, kind: str, inputs: dict) -> None:
        seen = self.first.setdefault(key, outcome)
        if seen != outcome:
            self.changed.append(f"{kind} {inputs}: {outcome!r} after {seen!r}")

    @property
    def failed(self) -> int:
        return len(self.tracebacks) + len(self.wrong)

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.first):
            h.update(repr((key, self.first[key])).encode())
        return h.hexdigest()


class Phase:
    """Raw timings of one measured phase; corrected once it has ended."""

    def __init__(self):
        self.op_time = 0.0  # raw, decides when the phase ends
        self.ops: list[tuple[float, float, float, tuple | None]] = []  # start, end, elapsed, key if succeeded
        self.setups: list[tuple[float, float, float]] = []
        self.cycles: list[int] = []  # pool cycle numbers, in the order run

    def corrected(self, sampler) -> tuple[float, list[float]]:
        """ops_per_s, and the latency of each distinct input that succeeded:
        the median over its runs."""
        total = 0.0
        runs: dict[tuple, list[float]] = {}
        for start, end, elapsed, key in self.ops:
            t = sampler.corrected(start, end, elapsed)
            total += t
            if key is not None:
                runs.setdefault(key, []).append(t)
        return len(self.ops) / total, [statistics.median(ts) for ts in runs.values()]


def run_phase(workloads, pool, workload: str, seed: int, phase: Phase, outcomes: Outcomes,
              sampler, *, seconds: float, cycles: int = 0, recorder=None,
              setup: bool = False) -> None:
    """Run the pool's cycles in order, pass after pass, until at least one
    pass and `cycles` cycles are done and the operations have taken
    `seconds`, with a set-up sample before each cycle when `setup`."""
    while len(phase.cycles) < max(cycles, len(pool)) or phase.op_time < seconds:
        number = len(phase.cycles) % len(pool)
        phase.cycles.append(number)
        if setup:
            phase.setups.append(setup_time())
        for position, (kind, inputs) in enumerate(pool[number]):
            key = (number, position)
            op = workloads.RUN[kind]
            args = (inputs, str(OUT)) if kind == "simulate" else (inputs,)
            span = (recorder.op(len(phase.ops), workloads.label(kind, inputs)) if recorder
                    else contextlib.nullcontext())
            result = error = None
            start = time.perf_counter()
            try:
                with span:
                    result = op(*args)
            except Exception as err:  # an operation's failure must not end the run
                error = err
            end = time.perf_counter()
            elapsed = end - start - sampler.inside(start, end)
            phase.op_time += elapsed
            phase.ops.append((start, end, elapsed, None))

            check_rng = random.Random(f"check:{workload}:{seed}:{number}:{position}")
            expect_error = workloads.expected_failure(kind, inputs)
            if error is not None:
                code = workloads.exit_code_for(error)
                outcomes.record(key, (kind, code, type(error).__name__), kind, inputs)
                if code is None:
                    outcomes.tracebacks[key] = type(error).__name__
                    continue
                if not (expect_error and code == 2):
                    outcomes.wrong[key] = f"{kind} {inputs}: exit {code} ({error})"
                    continue
            else:
                try:
                    wrong = ("completed past the closed form's blow-up" if expect_error
                             else workloads.CHECK[kind](inputs, result, check_rng))
                except (KeyError, TypeError, ValueError, ArithmeticError) as err:
                    wrong = f"output unreadable by the check: {err!r}"
                if wrong:
                    outcomes.record(key, (kind, "wrong"), kind, inputs)
                    outcomes.wrong[key] = f"{kind} {inputs}: {wrong}"
                    continue
                if result["exit"] == 2:
                    outcomes.exit2[key] = workloads.label(kind, inputs)
                counters = workloads.counters(kind, result)
                outcomes.counters[key] = counters
                outcomes.record(key, workloads.outcome(kind, result, counters), kind, inputs)
            phase.ops[-1] = (start, end, elapsed, key)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it,
    and that percentile (the maximum when there are too few samples)."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def size_metrics(counters: list[dict]) -> dict[str, tuple[float, str]]:
    def values(key):
        return [v for c in counters for v in c.get(key, ())]

    def median(vals):
        return float(statistics.median(vals)) if vals else 0.0

    return {
        "expr.residual_nodes.median": (median(values("residual_nodes")), "count"),
        "expr.explicit_nodes.max": (float(max(values("explicit_nodes"), default=0)), "count"),
        "expr.rhs_nodes.max": (float(max(values("rhs_nodes"), default=0)), "count"),
        "construct.harmonic.body_nodes.median": (median(values("harmonic_body_nodes")), "count"),
        "numint.write_csv.bytes": (median(values("csv_bytes")), "B"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nullag" / "__init__.py").is_file():
        print(f"error: no nullag package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nullag

    if Path(nullag.__file__).resolve().parent != SRC / "nullag":
        print(f"error: imported nullag from {nullag.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    pool = workloads.pool(args.workload, args.seed)
    outcomes = Outcomes()
    sampler = hostspeed.Sampler()
    untraced = Phase()
    if not args.trace:
        setup_time()  # unmeasured: writes the bytecode caches
    with sampler.sampling():
        run_phase(workloads, pool, args.workload, args.seed, untraced, outcomes, sampler,
                  seconds=args.seconds / (2 if args.trace else 1), setup=not args.trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases = [untraced]
        if args.trace:
            recorder = tracing.Recorder()
            traced = Phase()
            recorder.instrument()
            try:
                run_phase(workloads, pool, args.workload, args.seed, traced, outcomes, sampler,
                          seconds=0, cycles=len(untraced.cycles), recorder=recorder)
            finally:
                recorder.restore()
            phases.append(traced)
        time.sleep(hostspeed.WINDOW)  # samples after the last operation
    ops_per_s, latencies = untraced.corrected(sampler)

    if args.trace:
        metrics = tracing.layer_metrics(recorder.spans)
        metrics.update(size_metrics(list(outcomes.counters.values())))
        metrics["trace.overhead"] = (1 - traced.corrected(sampler)[0] / ops_per_s, "ratio")
        recorder.write(OUT / f"{args.workload}.spans.jsonl.gz")
    else:
        p50 = statistics.median(latencies) if latencies else 0.0
        tail_s, tail_pct = tail(latencies) if latencies else (0.0, 0.0)
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (p50 * 1e3, "ms"),
            "latency_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(sampler.corrected(*s) for s in untraced.setups), "s"),
        }

    attempted = len(outcomes.first)
    failed = outcomes.failed
    wrong = list(outcomes.wrong.values()) + outcomes.changed
    tracebacks: dict[str, int] = {}
    for name in outcomes.tracebacks.values():
        tracebacks[name] = tracebacks.get(name, 0) + 1
    exit2: dict[str, int] = {}
    for label in outcomes.exit2.values():
        exit2[label] = exit2.get(label, 0) + 1

    raw = sum(p.op_time for p in phases)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{sum(len(p.ops) for p in phases)} ops in {sum(len(p.cycles) for p in phases)} "
          f"cycles of a {len(pool)}-cycle pool, {raw:.2f} s of operations; host-speed "
          f"samples median {statistics.median(sampler.durations) * 1e3:.3f} ms "
          f"(reference {hostspeed.REFERENCE * 1e3:g} ms)")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{tail_pct:.2f} of {len(latencies)} samples)"
        print(f"  {name:<48} {value:.6g} {unit}{note}")
    print(f"  {'fail_ratio':<48} {failed / attempted:.6g}  ({failed}/{attempted} distinct "
          f"inputs; tracebacks {tracebacks or 'none'}, wrong answers {len(wrong)})")
    print(f"  answers with exit 2 (checked, not failures): {exit2 or 'none'}")
    if args.trace:
        for label, shares in tracing.inclusive_shares(recorder.spans).items():
            top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
            print(f"  share of {label} time: " + ", ".join(f"{n} {v:.3f}" for n, v in top))
    for w in wrong[:5]:
        print(f"  wrong: {w}")
    print(f"  digest sha256:{outcomes.digest()}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
