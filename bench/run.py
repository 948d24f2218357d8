"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload mc-single --seed 1 --seconds 45 --trace 0

One process runs one workload in a closed loop from a single caller: the next
operation starts when the previous one returns. The run times operations
until ``--seconds`` have passed, outside set-ups. It sets up several times,
once before the timed phase and then at even intervals within it, and
reports the median set-up time. After the timed phase it checks a sample of
the operations' outputs, spread evenly over the run, against computations
made apart from the program.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced operations and reports per-layer metrics per operation,
taken from spans around the calls one proxsel module makes into another,
plus the tracing overhead. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A summary with p90 and the environment goes to ``bench/results/``.

BLAS runs on one thread and ``--jobs`` defaults to 1, so that on a small
machine the figures measure the program and not the scheduler. ``--blas-threads
default`` and ``--jobs 2`` exist for the unpinned reference figures in
``bench/README.md``; they are not used for the gated runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Most operation records kept for the checks.
SAMPLE_CAP = 128


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", default="1",
                        help="BLAS threads, or 'default' to leave them unset")
    parser.add_argument("--jobs", type=int, default=1,
                        help="n_jobs / --jobs passed to the program")
    return parser.parse_args(argv)


def purge_proxsel() -> None:
    for name in [m for m in sys.modules if m == "proxsel" or m.startswith("proxsel.")]:
        del sys.modules[name]


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.blas_threads != "default":
        for var in THREAD_VARS:
            os.environ[var] = args.blas_threads
    if not (SRC / "proxsel" / "__init__.py").is_file():
        print(f"error: no proxsel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True  # leave the checkout as found

    import numpy  # noqa: F401  (loaded after the thread pin, outside set-up)

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.trace and args.jobs > 1:
        print("error: --trace 1 records spans of one thread; use --jobs 1",
              file=sys.stderr)
        return 2

    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workloads, spans, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run uses it
            workdir.parent.rmdir()


class Sample:
    """Records of every ``stride``-th operation, at most ``cap`` of them.

    When the sample outgrows ``cap``, every other record is dropped and the
    stride doubles. The kept operations stay evenly spread over the run, and
    the memory they take does not grow with the number of operations.
    """

    def __init__(self, cap: int) -> None:
        self.cap, self.stride = cap, 1
        self.kept: list[tuple[int, object]] = []

    def add(self, i: int, record) -> None:
        self.kept.append((i, record))
        if len(self.kept) > self.cap:
            del self.kept[1::2]
            self.stride *= 2


def set_up(cls, args, workdir: str):
    """Import proxsel afresh, build the inputs, run one warm-up operation."""
    purge_proxsel()
    gc.collect()
    start = time.perf_counter()
    workload = cls(args.seed, workdir, args.jobs)
    workload.setup()
    workload.warmup = workload.op(0)
    return workload, time.perf_counter() - start


def run(args, workloads, spans, workdir: str) -> int:
    cls = workloads.WORKLOADS[args.workload]
    # A traced run reports no set-up time, and a set-up would re-import the
    # modules the tracer wraps, so it sets up once.
    n_setups = 1 if args.trace else cls.setups
    workload, seconds = set_up(cls, args, workdir)
    setup_times = [seconds]

    tracer = spans.Tracer()
    if args.trace:
        workloads.register_spans(tracer)

    # A traced run traces the odd operations: their times are times[1::2].
    times = array("d")
    sample = Sample(SAMPLE_CAP)
    failures: list[str] = []
    i = 0
    paused = 0.0  # time spent in set-ups inside the timed phase
    start = time.perf_counter()
    while True:
        trace_op = bool(args.trace) and i % 2 == 1
        if trace_op:
            tracer.install()
        tracer.op = i
        t0 = time.perf_counter()
        try:
            result = workload.op(i)
        except Exception as exc:  # count it and keep the loop running
            failures.append(f"operation {i}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        else:
            if i % sample.stride == 0:
                sample.add(i, workload.record(result))
        times.append(time.perf_counter() - t0)
        if trace_op:
            tracer.uninstall()
        i += 1
        elapsed = time.perf_counter() - start - paused
        if elapsed >= args.seconds and (not args.trace or i % 2 == 0):
            break
        if (len(setup_times) < n_setups
                and elapsed >= args.seconds * len(setup_times) / n_setups):
            t0 = time.perf_counter()
            workload, seconds = set_up(cls, args, workdir)
            setup_times.append(seconds)
            paused += time.perf_counter() - t0
    elapsed = time.perf_counter() - start - paused
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # A run too short to reach every set-up interval sets up the rest here.
    while len(setup_times) < n_setups:
        workload, seconds = set_up(cls, args, workdir)
        setup_times.append(seconds)

    errors = workload.check(sample.kept)
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    plain = sorted(times[0::2] if args.trace else times)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": args.jobs,
        "operations": len(times),
        "op_median_ms": statistics.median(plain) * 1e3,
        "op_p90_ms": (
            statistics.quantiles(plain, n=10)[-1] if len(plain) > 1 else plain[0]
        ) * 1e3,
        "op_max_ms": plain[-1] * 1e3,
        "setup_times_s": setup_times,
        "op_ms": [t * 1e3 for t in times],
        "checked_ops": [j for j, _ in sample.kept],
        "failures": failures[:20],
        "check_errors": errors[:20],
        "environment": environment(),
    }
    if args.trace:
        n_traced = len(times) // 2
        per_span = tracer.per_span()
        layers = workloads.layer_metrics(per_span, tracer.counters, n_traced)
        traced_median = statistics.median(times[1::2])
        layers["trace.overhead_ms"] = (
            (traced_median - statistics.median(plain)) * 1e3, "ms"
        )
        summary["spans"] = per_span
        metrics = layers
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (len(times) / elapsed, "1/s"),
            "op_median_ms": (statistics.median(plain) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    summary["metrics"] = {k: v for k, (v, _) in metrics.items()}

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.blas_threads != "1" or args.jobs != 1:
        stem += f"-blas{args.blas_threads}-jobs{args.jobs}"
    (out_dir / f"{stem}.json").write_text(json.dumps(summary, indent=2) + "\n")
    if args.trace:
        tracer.write(str(out_dir / f"{stem}.spans.jsonl"))

    print(
        f"{args.workload}: {len(times)} operations, median "
        f"{summary['op_median_ms']:.3f} ms, p90 {summary['op_p90_ms']:.3f} ms, "
        f"setup {statistics.median(setup_times):.3f} s, "
        f"{len(failures)} failed, {len(errors)} check errors"
    )
    print(json.dumps({
        "correct": not errors,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
