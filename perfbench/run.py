"""Benchmark of quantumdesks.

    python3 perfbench/run.py --workload {solve,simulate,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each run measures one workload in a
fresh interpreter (``workloads.py``) that receives only inputs generated
from ``--seed``.  With ``--trace 0`` the last line of stdout is one JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run, whose spans are also written
to ``.bench_work/traces/``.  ``attempted`` counts operations and
``failed`` the operations with a failed correctness check; their ratio
is the error rate.  The lines before it print every metric by name, with
its unit, and the machine.

``setup_s`` is the median time, over several fresh interpreters, from
starting the workload process to its ``ready`` line: imports, input
generation and one untimed warm-up operation.

An operation that raises counts as failed.  The run exits non-zero,
printing no result, if the checkout has no ``src/quantumdesks`` package,
if the workload process fails, or if the run takes longer than
``DEADLINE_S``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
WORKLOADS = ("solve", "simulate", "cli")


class RunFailed(Exception):
    pass


def spawn(args, setup_only: bool, deadline: float) -> tuple[float, bytes]:
    """Run one workload process; (seconds until ``ready``, its whole stdout)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True)
    out, ready = b"", None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise RunFailed(f"run exceeded {DEADLINE_S:g} s")
                if not sel.select(left):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                out += chunk
                if ready is None and out.startswith(b"ready\n"):
                    ready = time.perf_counter() - start
        code = proc.wait(timeout=max(0.1, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RunFailed(f"workload process exited {code}")
    return ready, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quantumdesks benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quantumdesks" / "__init__.py").is_file():
        print(f"error: no quantumdesks package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = []
        if not args.trace:
            setup = [spawn(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        ready, out = spawn(args, False, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out.splitlines()[-1])
    metrics = result["metrics"]
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        setup.append(ready)
        metrics["setup_s"] = statistics.median(setup)

    m = result["machine"]
    print(f"# quantumdesks benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {m['machine']} nproc={m['nproc']} python={m['python']} "
          f"numpy={m['numpy']}")
    print(f"# ops attempted={result['attempted']} failed={result['failed']} "
          f"error_rate={result['failed'] / result['attempted']:.6g}")
    for reason in result["failures"]:
        print(f"# FAILED {reason}")
    for name in units:
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{result['tail']['percentile']:.1f} of "
                    f"{result['tail']['samples']} ops)")
        elif name == "setup_s":
            note = f"  (median of {len(setup)})"
        print(f"{name:48s} {metrics[name]:>16.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
