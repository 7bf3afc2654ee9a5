"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload search --seeds 1-10

For every metric of the result line this prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median. Runs one at a time, each for
``run_seconds`` of BENCHMARK.json unless ``--seconds`` is given; writes the
values to ``.bench_out/spread-<workload>-trace<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--seconds", default=str(spec["run_seconds"]))
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        began = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: {perf_counter() - began:.1f} s", file=sys.stderr)

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": spread,
                         "values": vals}
        print(f"{name:40s} median {med:12.6g} {units[name]:8s} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {spread:7.2%}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                    "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
