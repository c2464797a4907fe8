"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/repeat.py --workload curvature_zoo --seeds 0-4 --seconds 25
    python3 bench/repeat.py --seeds 0-9 --seconds 25 --write-baseline

Runs run.py once per seed and workload (--trace 0), one after another, and
prints for every end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median, with quartiles as statistics.quantiles(values, n=4)
gives them.  A run that fails or is not correct stops the script.

--write-baseline stores these figures in baseline.json under "end_to_end",
with one traced run (--trace 1) per workload on the first seed under
"per_layer_seed0".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINE = BENCH / "baseline.json"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} not correct:\n{out.stderr}")
    return result, wall


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "unit": unit, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    table = {}
    for workload in args.workload or workloads.WORKLOADS:
        results, walls = [], []
        for seed in args.seeds:
            result, wall = run(workload, seed, args.seconds, 0)
            results.append(result)
            walls.append(round(wall, 1))
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
        metrics = results[0]["metrics"]
        table[workload] = {
            name: summary([r["metrics"][name]["value"] for r in results], metrics[name]["unit"])
            for name in metrics
        }
        table[workload]["run_wall_s"] = walls
        for name in metrics:
            row = table[workload][name]
            print(f"{workload:<16} {name:<15} median {row['median']:<12.6g} {row['unit']:<4} "
                  f"spread {row['spread']:.3f}")
        print(f"{workload:<16} run wall {sum(walls):.0f} s over {len(walls)} runs")

    if args.write_baseline:
        data = json.loads(BASELINE.read_text())
        data["command"] = f"python3 bench/run.py --workload W --seed S --seconds {args.seconds} --trace 0"
        data["seeds"] = args.seeds
        data["end_to_end"].update(table)
        data["per_layer_seed0"].update({
            workload: {name: m["value"] for name, m in
                       run(workload, args.seeds[0], args.seconds, 1)[0]["metrics"].items()}
            for workload in table
        })
        BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
