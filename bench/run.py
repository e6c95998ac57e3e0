"""Benchmark runner for stablenash.

    python3 bench/run.py --workload census --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout; the package is imported from ``src/``. One
process makes the load in a closed loop: each operation is one public call,
and the next starts when it returns. A run repeats whole rounds of the
workload's operations until another round would end past ``--seconds``
(at least enough rounds for 40 operations), checks every output, and prints
one JSON object as its last line: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is one closed-loop client on a small machine,
# and the matrices are tiny. Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_JSON = ROOT / "BENCHMARK.json"
WORKDIR = ROOT / ".bench_out"
WORKLOADS = ("census", "audit", "montecarlo")
SETUP_REPEATS = 5
HARD_STOP_S = 150.0  # no round starts after this, so a run ends within 180 s

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import stablenash, stablenash.cli; "
    "print(time.perf_counter() - t)"
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _percentile(values, pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_s = _import_seconds()
    sys.path.insert(0, str(SRC))
    import stablenash.errors
    import workloads

    if SRC not in Path(stablenash.errors.__file__).resolve().parents:
        raise SystemExit(f"stablenash was imported from outside {SRC}")
    warnings.filterwarnings("ignore", category=stablenash.errors.PayoffRangeWarning)
    workdir = WORKDIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        build_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = workloads.build(name, seed, workdir)
            build_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(build_times)
        min_rounds, tail_pct = workloads.tail_percentile(len(ops))

        recorder = spans.Recorder()
        restore = spans.install(recorder) if trace else (lambda: None)
        try:
            result = _measure(ops, seconds, min_rounds, recorder if trace else None)
        finally:
            restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()  # only when no other run is using it
        except OSError:
            pass

    rounds, latencies, attempted, failed, problems, layers = result
    if trace:
        metrics = {key: statistics.median(r[key] for r in layers) for key in layers[0]}
    else:
        metrics = {
            "wall_s": statistics.fmean(r[0] for r in rounds),
            "cpu_s": statistics.fmean(r[1] for r in rounds),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * _percentile(latencies, tail_pct),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    info = (f"{name}: seed {seed}, {len(rounds)} rounds of {len(ops)} operations, "
            f"op_tail_ms at p{tail_pct}, mean round wall "
            f"{statistics.fmean(r[0] for r in rounds):.4f} s"
            + (" (traced)" if trace else ""))
    return {
        "info": info,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _measure(ops, seconds, min_rounds, recorder):
    """Run whole rounds; returns per-round (wall, cpu), every op latency,
    attempted and failed counts, problems, and per-round layer metrics."""
    rounds, latencies, problems, layers = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        wall = cpu = 0.0
        for op in ops:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = op.call()
            except Exception as exc:  # a raising call is a failed operation
                result = exc
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            wall += dt
            cpu += dc
            latencies.append(dt)
            attempted += 1
            found = ([f"raised {type(result).__name__}: {result}"]
                     if isinstance(result, Exception) else op.check(result))
            if found:
                failed += 1
                if not op.known_fault:
                    problems += [f"{op.label}: {msg}" for msg in found]
        rounds.append((wall, cpu))
        if recorder is not None:
            metrics, found = spans.layer_metrics(recorder)
            layers.append(metrics)
            problems += found
            recorder.clear()
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(rounds)
        if len(rounds) >= min_rounds and (
            elapsed + per_round > seconds or elapsed > HARD_STOP_S
        ):
            break
    return rounds, latencies, attempted, failed, problems, layers


def _units(section: str) -> dict[str, str]:
    spec = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _run_all(args) -> int:
    """Every workload in its own process, one after another."""
    code = 0
    for name in WORKLOADS:
        out = subprocess.run(  # waits for the child, within its timeout
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{name}: exit code {out.returncode}")
            code = 1
            continue
        print("\n".join(lines[:-1]))
        print(f"{name}: {lines[-1]}")
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "stablenash" / "__init__.py").is_file():
        print(f"error: no stablenash package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    section = "per_layer" if args.trace else "end_to_end"
    units = _units(section)
    missing = set(units) ^ set(out["metrics"])
    if missing:
        print(f"error: metrics and BENCHMARK.json disagree on {sorted(missing)}", file=sys.stderr)
        return 2
    print(out["info"])
    print(f"attempted {out['attempted']}, failed {out['failed']}, correct {out['correct']}")
    for key, value in out["metrics"].items():
        print(f"  {key:42s} {value:14.6g} {units[key]}")
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
