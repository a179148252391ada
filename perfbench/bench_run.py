"""One benchmark run: generate the inputs, measure, check, and report.

Each workload is a closed loop with one client: this process runs one
whole job after another and starts the next only when the last is done.
An untraced run repeats whole jobs while the next one still fits in
`seconds`, then sets up again until it has `SETUP_SAMPLES` set-up times.
A traced run does one untraced job (the baseline for the tracing overhead
and the source of the GC counters), one traced job and the layer probes.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import bench_gen
from bench_job import WORKLOADS, JobStats, Ledger, Workload, run_job, setup
from bench_trace import PER_LAYER, Tracer, per_layer_metrics, run_probes

SETUP_SAMPLES = 3

# name -> (unit, better, bound); BENCHMARK.json lists the same metrics
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "train_rows_per_s": ("rows/s", "higher", 0.25),
    "train_step_ms_p50": ("ms", "lower", 0.25),
    "train_step_ms_p95": ("ms", "lower", 0.25),
    "infer_rows_per_s": ("rows/s", "higher", 0.25),
    "test_mcc": ("mcc", "higher", 0.1),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "success_rate": ("ratio", "higher", 0.001),
}


def blas_info() -> tuple[str, str]:
    """(OpenBLAS version string, threads OpenBLAS reports) from numpy's bundled library."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
            config = handle.scipy_openblas_get_config64_
            threads = handle.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        config.restype, config.argtypes = ctypes.c_char_p, []
        threads.restype, threads.argtypes = ctypes.c_int, []
        return config().decode(), str(threads())
    return "unknown", "unknown"


def environment_line(nproc: int) -> str:
    blas, threads = blas_info()
    return (f"env: python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, blas {blas!r}, blas_threads {threads}, "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}, nproc {nproc}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_metrics(w: Workload, files, seed: int, seconds: float, work_dir: Path,
                     ledger: Ledger) -> tuple[dict, list[str]]:
    jobs: list[JobStats] = []
    start = time.perf_counter()
    while True:
        job = run_job(w, files, seed, work_dir, ledger)
        job.model = job.prepared = None
        jobs.append(job)
        if time.perf_counter() - start + job.run_s > seconds:
            break
    setups = [j.setup_s for j in jobs]
    while len(setups) < SETUP_SAMPLES:
        t0 = time.perf_counter()
        setup(w, files, seed)
        setups.append(time.perf_counter() - t0)
    ledger.check(len({j.test_mcc for j in jobs}) == 1, "repeated jobs reach the same test MCC")

    # Rates and percentiles pool every step and eval batch of the run. The machine switches
    # between a slow and a faster state for seconds at a time; a median of per-job values
    # jumps with the state of the middle job, a pooled one moves with the share of each.
    step_ms = np.concatenate([j.step_ms for j in jobs])
    batch_rates = np.concatenate([j.score_rows_per_s for j in jobs])
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(j.run_s for j in jobs),
        "train_rows_per_s": sum(j.train_rows for j in jobs) / (step_ms.sum() / 1e3),
        "train_step_ms_p50": np.percentile(step_ms, 50),
        "train_step_ms_p95": np.percentile(step_ms, 95),
        "infer_rows_per_s": np.median(batch_rates),
        "test_mcc": jobs[0].test_mcc,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - ledger.failed / max(ledger.attempted, 1),
    }
    of_jobs = f"over {len(jobs)} jobs of {w.epochs} epochs"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "run_s": f"median {of_jobs}",
        "train_rows_per_s": f"all rows over all step time {of_jobs}",
        "train_step_ms_p50": f"{len(step_ms)} steps of batch {w.batch} {of_jobs}",
        "train_step_ms_p95": f"{len(step_ms)} steps of batch {w.batch} {of_jobs}",
        "infer_rows_per_s": f"median of {len(batch_rates)} eval batches of up to {w.batch} "
                            f"rows {of_jobs}",
        "success_rate": f"error_rate {ledger.failed / max(ledger.attempted, 1):.6g}: "
                        f"{ledger.failed} of {ledger.attempted} operations failed",
    }
    lines = [f"{name:<20} {metrics[name]:<14.6g} {END_TO_END[name][0]:<7} {notes.get(name, '')}"
             for name in END_TO_END]
    return metrics, lines


def traced_metrics(w: Workload, files, seed: int, work_dir: Path, out_dir: Path,
                   ledger: Ledger, header: dict) -> tuple[dict, list[str]]:
    gc_before = gc.get_stats()
    untraced = run_job(w, files, seed, work_dir, ledger)
    gc_after = gc.get_stats()
    untraced.model = untraced.prepared = None
    tracer = Tracer()
    with tracer.installed():
        traced = run_job(w, files, seed, work_dir, ledger, tracer)
        tracer.run_id = "probe"
        run_probes(w, files, seed, traced, work_dir, ledger, tracer)
    ledger.check(traced.test_mcc == untraced.test_mcc, "tracing changes no result")
    metrics, from_probe = per_layer_metrics(tracer, traced, untraced, gc_before, gc_after)
    trace_path = out_dir / f"trace-{w.name}.jsonl"
    tracer.write(trace_path, header)

    lines = []
    for name, (unit, _better, moves) in PER_LAYER.items():
        source = " (probe)" if name in from_probe else ""
        lines.append(f"{name:<30} {metrics[name]:<14.6g} {unit:<6} -> {moves}{source}")
    lines.append(f"trace overhead: {metrics['bench.trace_overhead_pct']:.3f} % of the untraced "
                 f"run_s {untraced.run_s:.3f} s, from span count x cost per span; wall times: "
                 f"traced job {traced.run_s:.3f} s, untraced {untraced.run_s:.3f} s (the untraced "
                 f"job runs first in the process and pays its cold start)")
    lines.append(f"{len(tracer.spans)} spans written to {trace_path}")
    return metrics, lines


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        nproc: int) -> dict:
    """Run one workload in `root` and print the report; returns the result object."""
    w = WORKLOADS[workload]
    out_dir = root / ".perfbench"
    work_dir = out_dir / f"work-{workload}-{seed}-{os.getpid()}"
    env = environment_line(nproc)
    print(f"perfbench {workload} seed {seed} seconds {seconds} trace {int(trace)}: {w.why}")
    print(env)
    print("load: closed loop, 1 client (this process)")
    ledger = Ledger()
    try:
        files = bench_gen.generate(work_dir / "inputs", w.data, w.encoder_cfg, seed)
        if trace:
            header = {"workload": workload, "seed": seed, "env": env}
            metrics, lines = traced_metrics(w, files, seed, work_dir, out_dir, ledger, header)
            units = {name: spec[0] for name, spec in PER_LAYER.items()}
        else:
            metrics, lines = untraced_metrics(w, files, seed, seconds, work_dir, ledger)
            units = {name: spec[0] for name, spec in END_TO_END.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in lines:
        print(line)
    for failure in ledger.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
