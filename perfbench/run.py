"""Benchmark entry point.

    python3 perfbench/run.py --workload sim-k30 --seed 1 --seconds 25 --trace 0

Load model: a closed loop with one client in one process, serial; the
next op starts when the previous one returns.  Workloads and metrics
are listed in ``BENCHMARK.json`` at the checkout root; ``README.md``
next to this file says what each one is for.

The program runs from this checkout's ``src`` (pure Python, nothing to
build).  Set-up is timed from process start, before ``metaborrow`` is
imported, to the first timed op, and includes input generation and
warm-up.  It is done in ``SETUP_RUNS`` separate processes (one in a
traced run) and the median reported; the last of them goes on to the
timed loop.

Prints a readable report, then, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits
non-zero without a result line when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
# end-to-end metrics measured on every run; those not listed in BENCHMARK.json
# are printed and recorded but not gated
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "op_p50_ref_ms": "ms", "op_p90_ref_ms": "ms", "calibration_ms": "ms",
                    "peak_rss_mb": "MB", "op_peak_mb": "MB", "fail_frac": "1"}
DEADLINE_S = 170  # the whole run, set-ups included, ends well inside 180 s


class RunFailed(Exception):
    pass


def spawn(cmd, deadline):
    """Run one worker; return (seconds until it printed ``ready``, rest of its stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise RunFailed(f"worker exited with code {code}")
    return setup_s, rest


def parse_result(stdout):
    for line in reversed(stdout.splitlines()):
        if line.startswith("result "):
            return json.loads(line[len("result "):])
    raise RunFailed("worker printed no result")


def report(args, spec, setups, payload, metrics, unlisted):
    ops, failures = payload["ops"], payload["failures"]
    lines = [f"perfbench {args.workload} seed {args.seed}: {ops} ops, one client, serial, "
             f"trace {'on' if args.trace else 'off'}"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        lines.append(f"  {name:<44} {value:>14.6g} {units[name]}")
    for name, m in unlisted.items():
        lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']}  (not gated)")
    if args.trace:
        lines.append(f"  untraced ops {payload['untraced_ops']}, traced ops {payload['traced_ops']}; "
                     f"spans in {payload['spans_file']}")
        op_ms = metrics["trace.op_ms"]
        root = payload["root_span"]
        layers = sum(v for k, v in metrics.items()
                     if k.endswith(".self_ms") and not k.startswith(root))
        lines.append(f"  layer self times {layers:.3f} ms + {root} self "
                     f"{metrics[root + '.self_ms']:.3f} ms of traced op {op_ms:.3f} ms")
        lines.append(f"  missing names: {', '.join(payload['missing']) or 'none'}; "
                     f"counters that failed: {', '.join(payload['counter_errors']) or 'none'}")
    else:
        lines.append(f"  setup_s is the median of {len(setups)} set-ups: "
                     + ", ".join(f"{s:.4f}" for s in setups) + " s")
        lines.append(f"  op_p50 and op_p90 over {ops} ops "
                     f"({ops - int(0.9 * ops)} beyond the 90th percentile); *_ref_ms scale each "
                     f"op by the calibration loop timed after the ops around it")
    lines.append(f"  {len(failures)} of {ops} ops failed; "
                 f"{payload['checked_reference']} ops compared with reference values, "
                 f"all {ops} checked for invariants")
    for i, reason in failures[:5]:
        lines.append(f"  op {i} failed: {reason}")
    lines.append("machine " + json.dumps(payload["machine"], sort_keys=True))
    if unlisted:
        lines.append("unlisted " + json.dumps(unlisted))
    print("\n".join(lines))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        extra = 0 if args.trace else SETUP_RUNS - 1  # the traced run reports no set-up time
        setups = [spawn(cmd + ["--setup-only"], deadline)[0] for _ in range(extra)]
        setup_s, stdout = spawn(cmd, deadline)
        setups.append(setup_s)
        payload = parse_result(stdout)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failed = len(payload["failures"])
    measured = dict(payload["metrics"], setup_s=statistics.median(setups),
                    fail_frac=failed / payload["ops"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: measured[m["name"]] for m in wanted}
    unlisted = {} if args.trace else {
        name: {"value": measured[name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items() if name not in metrics}
    report(args, spec, setups, payload, metrics, unlisted)
    print(json.dumps({
        "correct": failed == 0, "attempted": payload["ops"], "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
