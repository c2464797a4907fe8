"""Self-test of the benchmark itself.

    python3 bench/selftest.py [--workload W ...] [--seed S]

1. The generated inputs depend only on the seed: two generations with one
   seed, one of them in a fresh interpreter with another hash seed, give the
   same tasks and byte-identical files; another seed gives other inputs.
2. Two traced runs with one seed give identical count metrics (calls, cases,
   entries, allocations, cache misses) and both are correct.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
COUNT_SUFFIXES = (".calls", ".cases", ".misses")
COUNT_PREFIXES = ("core.entries.", "core.alloc.")

_GENERATE = (
    "import json, pathlib, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "tasks, _ = workloads.generate(sys.argv[2], int(sys.argv[3]), pathlib.Path(sys.argv[4])); "
    "print(json.dumps([[t.label, list(t.argv)] for t in tasks]))"
)


def _snapshot(tasks, workdir: Path) -> tuple[list, dict]:
    """Tasks with the directory masked out, and the bytes of every input file."""
    listing = [[label, [a.replace(str(workdir), "<dir>") for a in argv]] for label, argv in tasks]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return listing, files


def _generate_here(workload: str, seed: int, workdir: Path):
    tasks, _ = workloads.generate(workload, seed, workdir)
    return _snapshot([[t.label, list(t.argv)] for t in tasks], workdir)


def _generate_fresh(workload: str, seed: int, workdir: Path):
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c", _GENERATE, str(BENCH), workload, str(seed), str(workdir)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return _snapshot(json.loads(out.stdout), workdir)


def check_inputs(workload: str, seed: int) -> list[str]:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        dirs = [Path(tmp) / name for name in ("a", "b", "c")]
        for d in dirs:
            d.mkdir()
        first = _generate_here(workload, seed, dirs[0])
        second = _generate_fresh(workload, seed, dirs[1])
        other = _generate_here(workload, seed + 1, dirs[2])
    problems = []
    if first != second:
        problems.append(f"{workload}: seed {seed} gave different inputs in a fresh interpreter")
    if first == other:
        problems.append(f"{workload}: seeds {seed} and {seed + 1} gave the same inputs")
    return problems


def _traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or name.startswith(COUNT_PREFIXES)


def check_counts(workload: str, seed: int) -> list[str]:
    runs = [_traced_run(workload, seed) for _ in range(2)]
    problems = [f"{workload}: traced run {i} not correct" for i, r in enumerate(runs) if not r["correct"]]
    names = sorted(name for name in runs[0]["metrics"] if _is_count(name))
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        if values[0] != values[1]:
            problems.append(f"{workload}: {name} differs between traced runs: {values}")
    print(f"{workload}: {len(names)} count metrics compared", file=sys.stderr)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    problems = []
    for workload in args.workload or workloads.WORKLOADS:
        problems += check_inputs(workload, args.seed)
        problems += check_counts(workload, args.seed)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
