#!/usr/bin/env python3
"""Run the benchmark on several seeds and report, for each workload and
end-to-end metric, the median with its unit and the spread (third minus first
quartile, as a share of the median) of the values, and the operations
attempted and failed.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 7      # one run of every workload

Every run lasts BENCHMARK.json's run_seconds, the length the bounds are set
for.  Runs are sequential, one process at a time.  Each run's result line is
appended to perfbench/out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = HERE / "out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for name in [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shares = set()
        attempted = failed = 0
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, **res}) + "\n")
            if not res["correct"]:
                print(f"{name} seed {seed}: a check failed", file=sys.stderr)
            attempted += res["attempted"]
            failed += res["failed"]
            shares.add(res["failed"] / res["attempted"])
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
                units[metric] = v["unit"]
        print(f"{name}: {len(args.seeds)} runs, {attempted} operations attempted, {failed} failed, "
              f"failed share per run {sorted(shares)}", flush=True)
        for metric, xs in values.items():
            if len(xs) > 1:
                q1, med, q3 = statistics.quantiles(xs, n=4)
            else:
                q1 = med = q3 = xs[0]
            print(f"  {metric:12s} median {med:12.4f} {units[metric]:4s} "
                  f"spread {(q3 - q1) / med:6.3f}  (bound {bounds[metric]})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
