"""One benchmark process: set up a workload, warm up, then time ops.

Started by ``run.py``.  Prints ``ready`` when set-up and warm-up are
done (the parent times set-up up to that line), then, unless
``--setup-only``, runs the timed closed loop (one client, serial) and
prints ``result <json>``.  With ``--trace 1`` traced and untraced ops
alternate; nothing is patched while an untraced op runs.

``--write-reference N`` instead runs ops 0..N-1 for the default seed and
stores their checked values in ``reference/<workload>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy

from tracer import Tracer, install, totals_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"  # run-time files; removed or overwritten by later runs

WARMUP_OPS = 2
MIN_OPS = 100  # at least ten samples beyond the 90th percentile
MIN_TRACED_OPS = 20
PEAK_OPS = 8
PEAK_SECONDS = 2.5
PEAK_BASE = 2_000_000  # op indices of the memory-measuring ops
CAL_REF_MS = 1.0  # calibration() time the *_ref_ms metrics are scaled to


def import_program():
    """Import ``metaborrow`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import metaborrow
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import metaborrow from {SRC}: {exc}")
    if not Path(metaborrow.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: metaborrow imported from {metaborrow.__file__}, not {SRC}")


def calibration():
    """Fixed work, timed after every op to track the machine's speed.

    A pure-Python loop, elementwise numpy on a small array and a small
    matrix product: the mix an op spends its time in.  Across runs, op
    time over calibration time spread by under a tenth where raw op times
    spread by up to 0.44 as the machine's speed changed (see README.md,
    Noise).  No change to the program can alter this work.
    """
    s = 0
    for i in range(6000):
        s += i * i % 7
    a = numpy.arange(1000.0)
    for _ in range(100):
        a = numpy.sqrt(a * a + 1.0)
    m = numpy.arange(1600.0).reshape(40, 40) / 1600.0
    for _ in range(20):
        b = m @ m
    return s + a[0] + b[0, 0]


def timed_loop(run_op, check, seconds, min_ops, first=0):
    """Closed loop: time ``run_op(i)`` for i = first, first+1, ... and check each result.

    Runs until ``seconds`` have passed and at least ``min_ops`` ops are done.
    Only the op call is inside the per-op timer; ``calibration()`` is timed
    after each op.  Returns (op times in ns, calibration times in ns,
    [(i, reason)] for failed ops, wall seconds of the loop without the
    calibration runs).
    """
    times, cal_times, failures = [], [], []
    i = first
    start = time.perf_counter()
    deadline = start + seconds
    while len(times) < min_ops or time.perf_counter() < deadline:
        t0 = time.perf_counter_ns()
        result = run_op(i)
        times.append(time.perf_counter_ns() - t0)
        reason = check(i, result)
        if reason:
            failures.append((i, reason))
        t0 = time.perf_counter_ns()
        calibration()
        cal_times.append(time.perf_counter_ns() - t0)
        i += 1
    return times, cal_times, failures, time.perf_counter() - start - sum(cal_times) / 1e9


def p50_ms(times):
    return statistics.median(times) / 1e6


def p90_ms(times):
    return statistics.quantiles(times, n=10)[8] / 1e6


def ref_ms(times, cal_times):
    """Op times rescaled to a machine that runs ``calibration()`` in ``CAL_REF_MS``.

    Each op is scaled by the median of the five calibration times around
    it, so that one disturbed calibration run does not skew its op.
    """
    return [t / statistics.median(cal_times[max(0, i - 2):i + 3]) * CAL_REF_MS
            for i, t in enumerate(times)]


def op_peak_mb(wl):
    """Mean peak memory one op allocates, over untimed ops after the timed loop.

    Measured with ``tracemalloc`` (numpy reports its buffers to it) from
    the op's start, so the interpreter and libraries are not counted.
    One op's peak moves by about 10% with its inputs and with when the
    garbage collector runs, hence a mean over ``PEAK_OPS`` ops or
    ``PEAK_SECONDS``, whichever is more.
    """
    peaks = []
    deadline = time.perf_counter() + PEAK_SECONDS
    while len(peaks) < PEAK_OPS or time.perf_counter() < deadline:
        gc.collect()
        tracemalloc.start()
        wl.run(PEAK_BASE + len(peaks))
        peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        tracemalloc.stop()
    return statistics.fmean(peaks)


def layer_metrics(tracer, n_ops, missing):
    """Per-op means of span self times, call counts and counters."""
    from workloads import COUNTER_NAMES, SPAN_NAMES

    totals = totals_by_name(tracer.spans)
    m = {}
    for name in set(SPAN_NAMES) | set(totals):
        ns, calls = totals.get(name, (0, 0))
        m[f"{name}.self_ms"] = ns / n_ops / 1e6
        m[f"{name}.calls"] = calls / n_ops
    for name in COUNTER_NAMES:
        m[name] = tracer.counts[name] / n_ops
    subjects = m["reconstruct.subjects"]
    m["reconstruct.us_per_subject"] = (
        m["reconstruct.reconstruct_all.self_ms"] * 1e3 / subjects if subjects else 0.0)
    m["trace.missing_names"] = float(len(missing))
    return m


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine_facts():
    """Machine and build facts recorded with every result."""
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = "unavailable: not a git checkout"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def write_reference(wl, n_ops):
    from workloads import DEFAULT_SEED, REFERENCE_DIR, REL_TOL

    if wl.seed != DEFAULT_SEED:
        sys.exit(f"perfbench: reference values are kept for seed {DEFAULT_SEED} only")
    rows = [wl.values(wl.run(i)) for i in range(n_ops)]
    REFERENCE_DIR.mkdir(exist_ok=True)
    payload = {"workload": wl.name, "seed": wl.seed, "rel_tol": REL_TOL,
               "fields": list(wl.fields), "values": rows}
    path = REFERENCE_DIR / f"{wl.name}.json"
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    print(f"wrote {n_ops} reference ops to {path}")


def measure(wl, args):
    """Run the timed loop and return the result payload."""
    from workloads import TRACE_TARGETS

    if not args.trace:
        times, cal_times, failures, wall = timed_loop(wl.run, wl.check, args.seconds, MIN_OPS)
        ref = ref_ms(times, cal_times)
        return {
            "ops": len(times), "failures": failures,
            "checked_reference": min(len(times), len(wl.reference)),
            "metrics": {
                "ops_per_s": len(times) / wall,
                "op_p50_ms": p50_ms(times),
                "op_p90_ms": p90_ms(times),
                "op_p50_ref_ms": statistics.median(ref),
                "op_p90_ref_ms": statistics.quantiles(ref, n=10)[8],
                "calibration_ms": p50_ms(cal_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "op_peak_mb": op_peak_mb(wl),
            },
        }

    # traced and untraced ops alternate, so both see the same machine
    # conditions; names are patched only for the duration of a traced op
    tracer = Tracer()
    restore, missing = install(tracer, TRACE_TARGETS)
    restore()

    def run_op(i):
        if i % 2 == 0:
            return wl.run(i)
        undo, _ = install(tracer, TRACE_TARGETS)
        try:
            tracer.op = i
            return tracer.call(wl.root_span, wl.run, i)
        finally:
            undo()

    def check(i, result):
        if i % 2 == 1:
            for name, value in wl.counters(result).items():
                tracer.count(name, value)
        return wl.check(i, result)

    times, _, failures, _ = timed_loop(run_op, check, args.seconds, 2 * MIN_TRACED_OPS)
    plain, traced = times[0::2], times[1::2]
    metrics = layer_metrics(tracer, len(traced), missing)
    metrics["trace.op_ms"] = statistics.fmean(traced) / 1e6
    metrics["trace.untraced_op_p50_ms"] = p50_ms(plain)
    metrics["trace.overhead_ms"] = p50_ms(traced) - p50_ms(plain)
    spans_file = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    with open(spans_file, "w") as fh:
        for name, start, end, parent, op in tracer.spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "op": op}) + "\n")
    return {
        "ops": len(times), "failures": failures,
        "traced_ops": len(traced), "untraced_ops": len(plain), "root_span": wl.root_span,
        "checked_reference": min(len(times), len(wl.reference)),
        "missing": missing, "counter_errors": sorted(tracer.counter_errors),
        "spans_file": str(spans_file.relative_to(ROOT)), "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", type=int, metavar="N")
    args = ap.parse_args(argv)

    import_program()
    import workloads  # imports metaborrow, so only after import_program()

    try:
        wl = workloads.make(args.workload, args.seed)
    except KeyError:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.NAMES)}")
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl.setup(workdir)
        if args.write_reference:
            write_reference(wl, args.write_reference)
            return
        for i in range(workloads.WARMUP_BASE, workloads.WARMUP_BASE + WARMUP_OPS):
            reason = wl.check(i, wl.run(i))
            if reason:
                sys.exit(f"perfbench: warm-up op failed: {reason}")
        print("ready", flush=True)
        if args.setup_only:
            return
        payload = measure(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload["machine"] = machine_facts()
    print("result " + json.dumps(payload), flush=True)


if __name__ == "__main__":
    main()
