"""Run one workload of the termsep benchmark and print its metrics.

    python3 perfbench/run.py --workload small-sweep --seed 1 --seconds 15 --trace 0

Workloads: small-sweep, large-pairs, antiassoc-k6, census-n4.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  The lines before
it give every metric with its unit, and the run's metadata.  Each run also
writes a result file, and a traced run its spans, under perfbench/results/.
The exit code is nonzero when any output fails its independent check.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
# set-ups per run: this process's, then fresh ones, half of them before the
# measurement and half after, since the host's speed changes within seconds
SETUP_SAMPLES = 7
REF_EVERY = 0.05  # seconds of operations between two reference timings, within one too
REF_INSIDE_AFTER = 1.0  # seconds into an operation before the first timing inside it
REF_SHARE = 0.05  # reference time per second of operations before it

# metrics printed beside the BENCHMARK.json ones, with their units
REPORTED = {
    "op_tail_ref": "ref",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ref_ms": "ms",
    "unknown_share": "ratio",
    "failed_share": "ratio",
    "wall_s": "s",
    "op_tail_percentile": "%",
    "op_tail_samples_beyond": "count",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="time one set-up, print it and exit"
    )
    return parser.parse_args(argv)


def timed(run_op, item, samples=None):
    """(output, error, seconds) of one operation; an exception is a failure.

    Given a list `samples`, the operation runs with an interval timer that,
    from REF_INSIDE_AFTER seconds on, times the reference every REF_EVERY
    seconds from a SIGALRM handler, which appends (start, seconds spent,
    reference seconds) to the list.  The handler's time is not counted in
    the operation's.
    """
    if samples is not None:
        samples.clear()
        signal.setitimer(signal.ITIMER_REAL, REF_INSIDE_AFTER, REF_EVERY)
    start = time.perf_counter()
    try:
        out, error = run_op(item), None
    except Exception:  # counted as a failed operation; the run goes on
        out, error = None, traceback.format_exc(limit=4)
    finally:
        if samples is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
    end = time.perf_counter()
    spent = sum(spent for at, spent, _ in samples or () if at < end)
    return out, error, end - start - spent


def reference_seconds(at_least: float = 0.0, every_cpu: bool = False) -> float:
    """Median time of a fixed computation that never touches termsep,
    repeated at least three times and for at least `at_least` seconds.

    Python object work plus small numpy calls, like the program's own mix.
    On a shared host the speed of the processor drifts, by up to a factor
    of two within seconds; timing this while the operations run measures
    the drift so that it can be divided out.  Each CPU drifts on its own.
    With every_cpu, the computation is timed on each CPU this process may
    use, pinned to one at a time, and the result is the time at their
    combined rate: the reference for work that worker processes spread
    over all of them.
    """
    if every_cpu:
        cpus = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                times.append(reference_seconds(at_least / len(cpus)))
        finally:
            os.sched_setaffinity(0, cpus)
        return len(times) / sum(1 / t for t in times)

    import numpy  # not at the top: set-up time includes numpy's import

    times = []
    deadline = time.perf_counter() + at_least
    while len(times) < 3 or time.perf_counter() < deadline:
        start = time.perf_counter()
        table = {}
        for i in range(1000):
            table[(i, i & 7)] = str(i)
        a = numpy.eye(6, dtype=numpy.uint8)
        for _ in range(60):
            a = (a @ a) % 2
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(workload, seconds, run_op, settle, reference=True):
    """Closed loop over whole batches until `seconds` of operations are timed.

    After each batch, outside the timed region, settle(item, output, error,
    seconds) is called for each of its operations and its result kept, so
    outputs need not outlive their batch.  With `reference`, the host's
    speed is sampled too.  Between operations, whenever REF_EVERY seconds
    of them have passed, reference_seconds() is timed for REF_SHARE of
    those seconds.  In a workload of one process, an operation longer than
    REF_INSIDE_AFTER also has the reference timed inside it (see timed()),
    since the host's speed changes within seconds.  In a workload that
    runs worker processes, the reference is timed on every CPU instead,
    and between operations only, since a sample inside would take a CPU
    from the workers.  Returns the settled results, the size of each batch,
    and for each operation the mean of the references timed inside it, or
    of the two around it when it has none.
    """
    every_cpu = getattr(workload, "WORKERS", 1) > 1
    samples = [] if reference and not every_cpu else None

    def sample_inside(signum, frame):
        start = time.perf_counter()
        ref = reference_seconds()
        samples.append((start, time.perf_counter() - start, ref))

    def between(at_least):
        return reference_seconds(at_least, every_cpu) if reference else None

    records, sizes, inside = [], [], []
    refs = [between(REF_SHARE * seconds)]
    before = []  # per operation: index of the last reference time before it
    busy_total = since_ref = 0.0
    if samples is not None:
        previous = signal.signal(signal.SIGALRM, sample_inside)
    try:
        for batch in workload.batches():
            done = []
            for item in batch:
                done.append(timed(run_op, item, samples))
                inside.append([ref for _, _, ref in samples or ()])
                before.append(len(refs) - 1)
                since_ref += done[-1][2]
                if reference and since_ref >= REF_EVERY:
                    refs.append(between(REF_SHARE * since_ref))
                    since_ref = 0.0
            records += [settle(item, *d) for item, d in zip(batch, done)]
            sizes.append(len(batch))
            busy_total += sum(latency for _, _, latency in done)
            if busy_total >= seconds:
                break
    finally:
        if samples is not None:
            signal.signal(signal.SIGALRM, previous)
    if not reference:
        return records, sizes, None
    refs.append(between(REF_SHARE * since_ref))
    return records, sizes, [
        statistics.fmean(own) if own else (refs[i] + refs[i + 1]) / 2
        for own, i in zip(inside, before)
    ]


class Settled(NamedTuple):
    latency: float
    verdict: str | None
    output_bytes: int | None
    failure: str | None


def settler(workload, seed):
    """Re-prove an output outside the timed region, then keep only a summary."""
    rng = random.Random(seed)

    def settle(item, out, error, latency) -> Settled:
        if error is not None:
            return Settled(latency, None, None, error)
        try:
            failure = workload.check(item, out, rng)
        except Exception:  # a check that cannot run is a failed check
            failure = traceback.format_exc(limit=4)
        return Settled(latency, workload.verdict(out), workload.output_bytes(out), failure)

    return settle


def tail(latencies, percentile):
    """(value, samples beyond it) at a nearest-rank percentile."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024


def end_to_end(workload, records, sizes, op_refs):
    """The end-to-end metrics, and beside them the raw times they derive from.

    A time in the unit ref is divided by the reference time around it.
    """
    latencies = [r.latency for r in records]
    relative = [lat / ref for lat, ref in zip(latencies, op_refs)]
    ends = list(itertools.accumulate(sizes))
    n = len(records)
    unknown = sum(1 for r in records if r.verdict == "unknown")
    failed = sum(1 for r in records if r.failure is not None)
    doc_bytes = [r.output_bytes for r in records if r.output_bytes is not None]
    tail_s, beyond = tail(latencies, workload.tail_percentile)
    return {
        "ops_per_ref": n / sum(relative),
        "op_p50_ref": statistics.median(relative),
        "op_tail_ref": tail(relative, workload.tail_percentile)[0],
        "decided_share": (n - unknown) / n,
        "output_mb": statistics.fmean(doc_bytes) / 1e6 if doc_bytes else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ref_ms": statistics.median(op_refs) * 1e3,
        "unknown_share": unknown / n,
        "failed_share": failed / n,
        "wall_s": statistics.median(sum(latencies[e - k : e]) for k, e in zip(sizes, ends)),
        "op_tail_percentile": workload.tail_percentile,
        "op_tail_samples_beyond": beyond,
    }


def traced_run(workload, tracer, args):
    """Measure with spans on, then replay the same inputs with spans off:
    the difference in operation time is the tracing overhead."""
    workload.tracer = tracer
    bench_op = tracer.wrap("bench.op", workload.run_op)
    op_ids = itertools.count()

    def run_op(item):
        tracer.op = next(op_ids)
        return bench_op(item)

    tracer.install()
    try:
        kept, batches, _ = measure(workload, args.seconds, run_op, lambda *op: op, reference=False)
    finally:
        tracer.uninstall()
    settle = settler(workload, args.seed)
    records = [settle(*op) for op in kept]
    workload.tracer = None
    untraced = sum(timed(workload.run_op, op[0])[2] for op in kept)
    traced = sum(r.latency for r in records)
    metrics = tracer.layer_metrics()
    metrics["bench.op.output_bytes"] = sum(r.output_bytes or 0 for r in records)
    metrics["trace.ops"] = len(records)
    metrics["trace.overhead_ms"] = (traced - untraced) * 1e3
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    return records, batches, metrics


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, records, batches) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "termsep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(records),
        "batches": len(batches),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "termsep" / "__init__.py").is_file():
        print(f"perfbench: no termsep sources under {SRC}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())

    start = time.perf_counter()
    sys.path[0:1] = [str(SRC), str(ROOT)]  # termsep from this checkout, never an install
    from perfbench import tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_samples = [setup_s]
    if args.trace:
        tracer = tracing.Tracer()
        records, batches, metrics = traced_run(workload, tracer, args)
        wanted = contract["per_layer"]
    else:
        fresh = SETUP_SAMPLES - 1
        setup_samples += [setup_in_fresh_process(args) for _ in range(fresh // 2)]
        records, batches, op_refs = measure(
            workload, args.seconds, workload.run_op, settler(workload, args.seed)
        )
        metrics = end_to_end(workload, records, batches, op_refs)
        setup_samples += [setup_in_fresh_process(args) for _ in range(fresh - fresh // 2)]
        metrics["setup_s"] = statistics.median(setup_samples)
        wanted = contract["end_to_end"]
    failures = [(i, r.failure) for i, r in enumerate(records) if r.failure is not None]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = units.keys() - metrics.keys()
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")

    meta = metadata(args, records, batches)
    meta["setup_samples_s"] = setup_samples
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        unit = units.get(name) or REPORTED.get(name, "")
        print(f"  {name:<44} {value:.6g} {unit}")
    for index, reason in failures[:5]:
        print(f"perfbench: operation {index} failed: {reason}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    out_dir = RESULTS / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "all_metrics": metrics, "result": result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.trace:
        tracer.write(out_dir / f"{stem}.spans.jsonl.gz")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
