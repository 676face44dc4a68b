"""boolelab benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload wide|sweep|search|cli --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload, one table

Run from the root of a source checkout; boolelab is imported from its
``src`` directory and nowhere else, so the command fails (exit 2, no
result) where that directory is missing.  One process, no extra
threads; the ``cli`` workload is one client in a closed loop, waiting
for each ``python -m boolelab`` child before starting the next.

Each run sets up five times (input generation plus a warm-up subset;
``setup_s`` is the import time plus the median), then runs whole passes
over the workload's fixed item list until another pass would overrun
``--seconds`` (but at least the workload's minimum).  The first pass is
checked against independently computed answers; later passes must
reproduce the first pass's answers exactly.  A mismatch, an exception
or a ``CapExceeded`` counts the item as failed.

With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer ones: half the time untraced, half with
span recorders around every public function of the layers (see
tracer.py), spans written to ``perfbench/out/``.  Lines before the last
one give the environment, the tail percentile with its sample count,
and ``failed_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_ROUNDS = 5
SAFETY_SECONDS = 150  # stop adding passes here whatever the minimum, to end within 180 s

# Least number of passes per run.  Times the item count, it fixes the
# tail percentile (see tail_percentile), so each workload reports the
# same percentile on every run however many passes fit in the time.
MIN_PASSES = {"wide": 8, "sweep": 1, "search": 1, "cli": 8}
WARMUP = {
    "wide": lambda items: [it for it in items if it.scale.get("m") == 8],
    "sweep": lambda items: items[:40],
    "search": lambda items: [it for it in items if it.scale.get("k", 0) < 3 and it.scale.get("n", 0) < 4],
    "cli": lambda items: items[:2],
}
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples: int) -> float:
    """Highest percentile of the ladder with at least ten samples beyond it."""
    for p in LADDER:
        if samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values, p):
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(-(-p * len(ordered) // 100)) - 1))
    return ordered[rank]


def import_boolelab() -> float:
    src = ROOT / "src"
    if not (src / "boolelab" / "__init__.py").is_file():
        print(f"run.py: no boolelab sources under {src}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    t0 = perf_counter()
    import boolelab
    import boolelab.cli  # noqa: F401  (every layer, as the CLI loads them)
    elapsed = perf_counter() - t0
    if Path(boolelab.__file__).resolve().parent != (src / "boolelab").resolve():
        print(f"run.py: imported boolelab from {boolelab.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return elapsed


class Run:
    """Answers of the first pass, and the failure count."""

    def __init__(self):
        self.first: dict[str, tuple] = {}  # item id -> (digest, first answer was right)
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.answers: dict[str, object] = {}

    def record(self, item, answer, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                if item.id not in self.first:
                    error = item.check(answer)
                    self.first[item.id] = (item.digest(answer), error is None)
                    self.answers[item.id] = answer
                else:
                    digest, right = self.first[item.id]
                    if item.digest(answer) != digest:
                        error = "answer differs from the first pass"
                    elif not right:
                        error = "the first pass's wrong answer again"
            except Exception as exc:  # an answer of the wrong shape
                error = f"unreadable answer: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{item.id}: {error}")


def run_pass(items, run: Run, tracer=None, runner=None) -> list[float]:
    """Time each item's call; check answers after the timed region."""
    times, results = [], []
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        call = item.run if runner is None else (lambda: runner(item))
        t0 = perf_counter()
        try:
            answer, error = call(), None
        except Exception as exc:  # counted as a failed item, the run goes on
            answer, error = None, f"{type(exc).__name__}: {exc}"
        times.append(perf_counter() - t0)
        results.append((answer, error))
    for item, (answer, error) in zip(items, results):
        run.record(item, answer, error)
    return times


def run_passes(items, run, seconds, min_passes, tracer=None, runner=None):
    """Whole passes until the next one would overrun ``seconds``."""
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        times = run_pass(items, run, tracer, runner)
        passes.append(times)
        elapsed = perf_counter() - start
        last = perf_counter() - t0
        if elapsed > SAFETY_SECONDS:
            break
        if len(passes) >= min_passes and elapsed + last > seconds:
            break
    return passes


def setup(workloads, name, seed):
    rounds = []
    for _ in range(SETUP_ROUNDS):
        t0 = perf_counter()
        items = workloads.WORKLOADS[name](seed)
        warm = Run()
        run_pass(WARMUP[name](items), warm)
        rounds.append(perf_counter() - t0)
    if warm.failed:
        print(f"warm-up: {warm.failed} failed: {warm.reasons}", file=sys.stderr)
    return items, statistics.median(rounds)


def environment(args, workloads, items, passes) -> dict:
    scale = {
        "wide": {"m": list(workloads.WIDE_LEVELS), "dense_m": workloads.DENSE_M,
                 "dense_count": workloads.DENSE_COUNT, "dense_support": list(workloads.DENSE_SUPPORT)},
        "sweep": {"arguments": workloads.SWEEP_ITEMS, "symbols": [1, 2, 3, 4],
                  "max_n": workloads.SWEEP_MAX_N},
        "search": {"hailperin_k": list(workloads.HAILPERIN_SIZES),
                   "commutative_k": list(workloads.COMMUTATIVE_SIZES),
                   "holds_n": list(workloads.HOLDS_SIZES), "embed_max_size": 4},
        "cli": {"commands": [it.id for it in items]},
    }[args.workload]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "executable": sys.executable,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "items_per_pass": len(items),
        "passes": passes,
        "scale": scale,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, items, passes, setup_s):
    samples = [t for p in passes for t in p]
    p_tail = tail_percentile(min(MIN_PASSES[name] * len(items), len(samples)))
    if name == "cli":
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(sum(p) for p in passes), "s"),
        "item_p50_ms": metric(statistics.median(samples) * 1000.0, "ms"),
        "item_tail_ms": metric(percentile(samples, p_tail) * 1000.0, "ms"),
        "peak_rss_mb": metric(rss / 1024.0, "MB"),
    }
    note = f"item_tail_ms is p{p_tail:g} of {len(samples)} samples from {len(passes)} passes"
    if name == "cli":  # text and --json calls form two modes; give each command's median
        for i, item in enumerate(items):
            note += f"\ncli.{item.id}_p50_ms {_median_ms([p[i] for p in passes]):.6g} ms"
    return metrics, note


def _median_ms(values):
    return statistics.median(values) * 1000.0 if values else 0.0


def _spawn_ms(workloads, code, repeats=5):
    """Median wall time of ``python -c code`` in a child process."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        status, _ = workloads.spawn(["-c", code])
        times.append(perf_counter() - t0)
        if status != 0:
            raise RuntimeError(f"python -c {code!r} exited {status}")
    return _median_ms(times)


def traced_run(args, workloads, items, run):
    """Untraced passes, then traced passes: per-layer metrics of the
    traced ones, and the difference of the two as tracing overhead.
    The cli workload first times its child processes, then traces
    in-process ``cli.run`` calls, since spans cannot cross a process."""
    import layers
    from tracer import Tracer

    half = args.seconds / 2.0
    values = {}
    runner = None
    if args.workload == "cli":
        spawned = run_passes(items, run, half, MIN_PASSES["cli"])
        for i, item in enumerate(items):
            values[f"cli.{item.id}_p50_ms"] = _median_ms([p[i] for p in spawned])
        values["cli.json_overhead_ms"] = (
            values["cli.json_normalize_p50_ms"] - values["cli.normalize_p50_ms"]
        )
        values["cli.spawn_ms"] = _spawn_ms(workloads, "pass")
        values["cli.import_ms"] = _spawn_ms(workloads, "import boolelab.cli") - values["cli.spawn_ms"]

        def runner(item):
            return workloads.run_in_process(item.scale["argv"])

        run_pass(items, run, runner=runner)  # loads jsonschema and the schema once
        half = half / 2.0
    untraced = run_passes(items, run, half, 1, runner=runner)
    tracer = Tracer()
    with tracer.installed():
        traced = run_passes(items, run, half, 1, tracer=tracer, runner=runner)
    if args.workload == "cli":
        values["cli.run_ms"] = _median_ms([t for p in untraced for t in p])

    values.update(layers.span_metrics(tracer, items, len(traced)))
    values.update(layers.answer_counts(items, run.answers))
    untraced_wall = statistics.median(sum(p) for p in untraced)
    traced_wall = statistics.median(sum(p) for p in traced)
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = {name: metric(values.get(name, 0), unit) for name, unit in layers.PER_LAYER}
    return metrics, len(untraced) + len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("wide", "sweep", "search", "cli", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)

    os.chdir(ROOT)
    import_s = import_boolelab()
    import workloads

    items, setup_round_s = setup(workloads, args.workload, args.seed)
    run = Run()
    if args.trace:
        metrics, passes = traced_run(args, workloads, items, run)
        note = "per-layer values are per traced pass; spans in perfbench/out/"
    else:
        passes = run_passes(items, run, args.seconds, MIN_PASSES[args.workload])
        metrics, note = end_to_end(args.workload, items, passes, import_s + setup_round_s)
        note += "\npass_s " + json.dumps([round(sum(p), 6) for p in passes])
        passes = len(passes)
    print("env: " + json.dumps(environment(args, workloads, items, passes)))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(note)
    print(f"failed_ratio {run.failed / max(run.attempted, 1):.6g} ({run.failed}/{run.attempted})")
    for reason in run.reasons:
        print(f"failure: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own), then
    one table of every metric and a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("wide", "sweep", "search", "cli"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
