"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload solve --seeds 1-10 [--seconds 20]

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median and (Q3 - Q1) / median over the runs,
quartiles as ``statistics.quantiles(values, n=4)`` gives them, beside
the metric's bound in ``BENCHMARK.json``.  A benchmark is steady when
every spread but ``setup_s``'s is below its bound.  The last line is a
JSON summary of the same figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    summary = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2
        summary[metric["name"]] = {"median": q2, "q1": q1, "q3": q3, "spread": spread}
        print(f"{args.workload:9s} {metric['name']:12s} median {q2:12.6g} "
              f"spread {spread:7.4f} bound {metric['bound']:.2f} "
              f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": args.seconds, "metrics": summary}))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
