"""halftwist benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload axiom_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.  Each
workload is a closed loop with one client: the next job starts only after the
previous one returns.  The loop repeats whole rounds of the workload (see
workloads.py) up to the round boundary nearest to its share of --seconds,
and until, over all processes, at least MIN_SAMPLES jobs ran; so every run
holds the same mix of jobs.  Every job's result is checked exactly; a wrong
value or an exception counts as a failure and never stops the run.

--trace 0 prints the end-to-end metrics.  The loop runs in PROCESSES fresh
interpreters one after another, each for a share of --seconds, and their
jobs are pooled.  setup_s is the time from starting an interpreter to its
first timed job, as the median over those interpreters.

--trace 1 runs setup plus one round traced (tracing.py), between two untraced
runs of the same inputs, and prints the per-layer metrics; the spans and
counts go to .bench_build/bench/trace-<workload>-seed<seed>.json.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "bench"
WORKLOADS = ("axiom_sweep", "surface_sweep", "diagram_sweep", "gauss_sweep")
# Fresh interpreters per end-to-end run: each sets up (one setup_s sample)
# and runs the loop for a share of --seconds.  Speed differs between
# processes here by up to a fifth, so pooling several steadies the metrics.
PROCESSES = 4
IMPORT_RUNS = 3
# Ten samples beyond the 90th percentile.
MIN_SAMPLES = 100
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Internal: the part a child interpreter plays.
    parser.add_argument("--role", choices=("measure", "traced"), default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child interpreters -----------------------------------------------------


def _import_workloads():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    return workloads


def _run_job(job):
    """Run one job; returns (passed, nanoseconds, error text or None)."""
    start = time.perf_counter_ns()
    try:
        result = job.run()
    except Exception:
        elapsed = time.perf_counter_ns() - start
        return False, elapsed, traceback.format_exc(limit=1).strip().splitlines()[-1]
    elapsed = time.perf_counter_ns() - start
    try:
        passed = bool(job.check(result))
    except Exception:
        return False, elapsed, traceback.format_exc(limit=1).strip().splitlines()[-1]
    return passed, elapsed, None if passed else "wrong value"


class Tally:
    """Outcomes of the jobs of one loop."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.failed = 0
        self.unexpected: list[str] = []

    def add(self, job, passed, elapsed_ns, error):
        self.latencies_ns.append(elapsed_ns)
        if not passed:
            self.failed += 1
            if not job.known_defect:
                self.unexpected.append(f"{job.label}: {error}")

    def summary(self) -> dict:
        return {"attempted": len(self.latencies_ns), "failed": self.failed,
                "unexpected": self.unexpected[:20], "unexpected_count": len(self.unexpected)}


def _measure(jobs, seconds, min_samples):
    tally = Tally()
    rounds = 0
    start = time.perf_counter()
    while True:
        for job in jobs:
            tally.add(job, *_run_job(job))
        rounds += 1
        elapsed = time.perf_counter() - start
        # Stop at the round boundary nearest to the time share.
        if elapsed * (1 + 0.5 / rounds) >= seconds and len(tally.latencies_ns) >= min_samples:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {**tally.summary(), "latencies_ns": tally.latencies_ns, "round_size": len(jobs),
            "rounds": rounds, "elapsed_s": elapsed, "peak_rss_mib": peak_kib / 1024}


def _one_round(workloads, args, tracer=None):
    """Setup plus one round; returns (wall seconds, tally)."""
    tally = Tally()
    start = time.perf_counter()
    if tracer:
        tracer.open("bench.setup")
    jobs = workloads.build_round(args.workload, args.seed)
    if tracer:
        tracer.close()
    for job in jobs:
        if tracer:
            tracer.open("bench.job")
        outcome = _run_job(job)
        if tracer:
            tracer.close()
        tally.add(job, *outcome)
    return time.perf_counter() - start, tally


def _traced(workloads, args) -> dict:
    import tracing

    # Untraced rounds before and after the traced one, so that warm-up and
    # drift fall on both sides of the overhead estimate.
    before_s, _ = _one_round(workloads, args)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s, tally = _one_round(workloads, args, tracer)
    finally:
        tracer.uninstall()
    after_s, _ = _one_round(workloads, args)
    untraced_s = (before_s + after_s) / 2
    metrics = tracer.layer_metrics(traced_s, untraced_s, _import_seconds(), tracer.mul_ns())
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "metrics": metrics})
    return {**tally.summary(), "trace_file": str(path.relative_to(ROOT)),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in tracing.PER_LAYER}}


def _child(args) -> int:
    workloads = _import_workloads()
    if args.role == "traced":
        print("ready", flush=True)
        print(json.dumps(_traced(workloads, args)), flush=True)
        return 0
    jobs = workloads.build_round(args.workload, args.seed)
    print("ready", flush=True)
    share = _measure(jobs, args.seconds / PROCESSES, -(-MIN_SAMPLES // PROCESSES))
    print(json.dumps(share), flush=True)
    return 0


# -- the parent -------------------------------------------------------------


def _spawn(args, role):
    """Start a fresh interpreter in the given role; returns (seconds until it
    reported ready, its result)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise RuntimeError(f"{role} child timed out") from None
        except BaseException:
            # Interrupted or terminated: stop the child; leaving the with
            # block waits for it.
            proc.kill()
            raise
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{role} child failed with exit code {proc.returncode}")
    return ready_s, json.loads(rest.strip().splitlines()[-1])


def _import_seconds():
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import halftwist.cli; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_RUNS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def _end_to_end(args):
    setup, runs = [], []
    for _ in range(PROCESSES):
        ready_s, run = _spawn(args, "measure")
        setup.append(ready_s)
        runs.append(run)
    lat_ms = [ns / 1e6 for run in runs for ns in run["latencies_ns"]]
    n = len(lat_ms)
    failed = sum(run["failed"] for run in runs)
    elapsed_s = sum(run["elapsed_s"] for run in runs)
    values = {
        "jobs_per_s": n / elapsed_s,
        "job_p50_ms": statistics.median(lat_ms),
        "job_p90_ms": statistics.quantiles(lat_ms, n=10)[-1],
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(run["peak_rss_mib"] for run in runs),
        "success_rate": 1 - failed / n,
    }
    rounds = "+".join(str(run["rounds"]) for run in runs)
    samples = {
        "jobs_per_s": f"{n} jobs in {rounds} rounds of {runs[0]['round_size']}, "
                      f"{elapsed_s:.2f} s",
        "job_p50_ms": f"n={n}",
        "job_p90_ms": f"n={n}, {n - int(0.9 * n)} beyond",
        "setup_s": f"median of {PROCESSES} fresh interpreters",
        "peak_rss_mib": f"median of {PROCESSES} processes",
        "success_rate": f"n={n}; error_rate = {failed / n:.6f}",
    }
    print(f"# {args.workload} seed {args.seed}: closed loop, 1 client, {PROCESSES} processes")
    for name, value in values.items():
        print(f"{name:<14} = {value:<14.6g} {END_TO_END_UNITS[name]:<6} ({samples[name]})")
    unexpected = [line for run in runs for line in run["unexpected"]]
    result = {"attempted": n, "failed": failed, "unexpected": unexpected[:20],
              "unexpected_count": sum(run["unexpected_count"] for run in runs)}
    return result, {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                    for name, v in values.items()}


def _per_layer(args):
    _, result = _spawn(args, "traced")
    metrics = result["metrics"]
    print(f"# {args.workload} seed {args.seed}: traced run, spans in {result['trace_file']}")
    for name, metric in metrics.items():
        print(f"{name:<34} = {metric['value']:<14.6g} {metric['unit']}")
    return result, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    # Turn SIGTERM into SystemExit so that children are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "halftwist" / "__init__.py").is_file():
        print(f"error: no halftwist sources under {SRC}", file=sys.stderr)
        return 2
    if args.role:
        return _child(args)
    try:
        result, metrics = (_per_layer if args.trace else _end_to_end)(args)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in result["unexpected"]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    summary = {
        "correct": result["unexpected_count"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
