"""doubleforms benchmark: one closed-loop client calling the CLI in process.

    python3 bench/run.py --workload curvature_zoo --seed 0 --seconds 25 --trace 0

Set-up writes the workload's inputs, generated from --seed, into a fresh
directory under .bench_work/ and runs one warm-up task of each kind.  The
timed loop then calls doubleforms.cli.main(argv) on the cycle's tasks (at
least 100), one at a time with stdout captured, and repeats whole cycles
while the next one is expected to end within --seconds, and at least
MIN_CYCLES times.  A task fails on an exception, a nonzero exit code, or
stdout that differs from the same task in an earlier cycle or, for the
reference seed, from the stored digest.

On a shared host, other load slows this process by up to 2x for stretches
of seconds to minutes.  So each timing is paired with calibration units: a
fixed pure-Python Fraction and dict kernel run right after every task and
around every set-up.  A time is reported as its ratio to the mean unit time
measured alongside it, times REFERENCE_UNIT_S: seconds on a host where one
unit takes REFERENCE_UNIT_S.  The kernel imports nothing from doubleforms,
so a change to the program moves the task times and not the units.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same untraced
loop, then one more cycle under the outside-in tracer (tracer.py), and
prints the per-layer metrics; its spans go to .bench_work/.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference_digests.json"
REFERENCE_SEED = 0
MIN_CYCLES = 2
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
# Nominal time of one calibration unit; every reported time is scaled to it.
REFERENCE_UNIT_S = 0.002
# Calibration after each task lasts at least this share of the task's wall
# time (and at least one unit), so the units sample the host's speed in
# proportion to the time the tasks ran.
CALIBRATION_SHARE = 0.1
# Calibration before and after each set-up child, in seconds.
SETUP_CALIBRATION_S = 0.1


def calibration_unit() -> Fraction:
    """A fixed piece of pure-Python Fraction and dict work, about 2 ms."""
    sums: dict[tuple[int, int], Fraction] = {}
    total = Fraction(0)
    for i in range(1, 300):
        term = Fraction(i, i + 7) * Fraction(3, i % 11 + 1)
        key = (i % 17, i % 5)
        sums[key] = sums.get(key, 0) + term
        total += term
    return total


def calibrate(seconds: float) -> tuple[list[float], list[float]]:
    """Run calibration units for at least `seconds` (at least one unit).

    Returns each unit's wall and CPU seconds.
    """
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        cpu, wall = time.process_time(), time.perf_counter()
        calibration_unit()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
        if time.perf_counter() - start >= seconds:
            return walls, cpus


def import_cli():
    """Import doubleforms from src/ (the package is not installed)."""
    sys.path.insert(0, str(SRC))
    import doubleforms.cli

    return doubleforms, doubleforms.cli


def run_task(cli, argv) -> tuple[int | None, float, float, str]:
    """Call the CLI in process.

    Returns the exit code (None on an exception), wall and CPU seconds, and
    the SHA-256 digest of stdout.
    """
    out, err = io.StringIO(), io.StringIO()
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))  # looked up per call, so a traced main is used
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        print(f"task {' '.join(argv)} raised:\n{traceback.format_exc()}", file=sys.stderr)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if code not in (0, None):
        print(f"task {' '.join(argv)} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, wall, cpu, hashlib.sha256(out.getvalue().encode()).hexdigest()


def set_up(cli, workload: str, seed: int):
    """Write the inputs into a fresh directory and run the warm-up tasks."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    tasks, warmup = workloads.generate(workload, seed, workdir)
    for task in warmup:
        if run_task(cli, task.argv)[0] != 0:
            raise RuntimeError(f"warm-up task failed: {task.label}")
    return tasks, workdir


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times in fresh interpreters (import, inputs, warm-up).

    Each child's wall time is scaled by the calibration units run just
    before and just after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    samples = []
    before, _ = calibrate(SETUP_CALIBRATION_S)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        if child.returncode != 0:
            raise RuntimeError(f"set-up child exited {child.returncode}:\n{child.stderr}")
        after, _ = calibrate(SETUP_CALIBRATION_S)
        samples.append(wall / statistics.fmean(before + after) * REFERENCE_UNIT_S)
        before = after
    return samples


def load_reference(workload: str, seed: int):
    if seed != REFERENCE_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text())["workloads"].get(workload)


class Loop:
    """Closed-loop task runner that checks every task's exit code and stdout.

    After each task it runs calibration units; a task's scaled time is its
    wall time over the mean unit time of the calibration runs just before and
    just after it.
    """

    def __init__(self, cli, tasks, reference):
        if reference is not None and [label for label, _ in reference] != [t.label for t in tasks]:
            raise RuntimeError("reference digests do not match the generated tasks")
        self.cli = cli
        self.tasks = tasks
        self.expected = [digest for _, digest in reference] if reference else [None] * len(tasks)
        self.scaled: list[list[float]] = [[] for _ in tasks]  # per task, one per cycle
        self.task_wall = self.task_cpu = 0.0
        self.unit_walls: list[float] = []
        self.unit_cpus: list[float] = []
        self.cycle_walls: list[float] = []
        self.cycle_scaled: list[float] = []
        self.attempted = 0
        self.failed = 0

    def cycle(self, tracer=None) -> None:
        """Run every task once, each followed by calibration units.

        Untraced cycles add to the timing record; a traced cycle only adds its
        scaled time to cycle_scaled.
        """
        start = time.perf_counter()
        before, _ = calibrate(0)
        scaled_sum = 0.0
        for index, task in enumerate(self.tasks):
            if tracer is not None:
                tracer.task = index
            code, wall, cpu, digest = run_task(self.cli, task.argv)
            after, after_cpu = calibrate(CALIBRATION_SHARE * wall)
            if self.expected[index] is None:
                self.expected[index] = digest
            ok = code == 0 and digest == self.expected[index]
            if code == 0 and not ok:
                print(f"task {task.label}: stdout digest {digest} != {self.expected[index]}",
                      file=sys.stderr)
            self.attempted += 1
            self.failed += not ok
            scaled = wall / statistics.fmean(before + after) * REFERENCE_UNIT_S
            scaled_sum += scaled
            if tracer is None:
                self.scaled[index].append(scaled)
                self.task_wall += wall
                self.task_cpu += cpu
                self.unit_walls += after
                self.unit_cpus += after_cpu
            before = after
        self.cycle_scaled.append(scaled_sum)
        if tracer is None:
            self.cycle_walls.append(time.perf_counter() - start)

    def timed(self, seconds: float) -> None:
        """Whole untraced cycles: at least MIN_CYCLES, and more while the
        next one, taking as long as the last, ends within `seconds`."""
        start = time.perf_counter()
        while (len(self.cycle_walls) < MIN_CYCLES
               or time.perf_counter() - start + self.cycle_walls[-1] <= seconds):
            self.cycle()

    def task_seconds(self) -> list[float]:
        """Each task's mean scaled wall time over the untraced cycles."""
        return [statistics.fmean(times) for times in self.scaled]


def end_to_end(setup_samples, loop: Loop) -> dict:
    """Every time is scaled to REFERENCE_UNIT_S per calibration unit."""
    per_task = loop.task_seconds()
    samples = sum(len(times) for times in loop.scaled)
    unit_wall = statistics.fmean(loop.unit_walls) / REFERENCE_UNIT_S
    unit_cpu = statistics.fmean(loop.unit_cpus) / REFERENCE_UNIT_S
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "tasks_per_s": (samples / loop.task_wall * unit_wall, "1/s"),
        "task_s_p50": (statistics.median(per_task), "s"),
        "task_s_p90": (statistics.quantiles(per_task, n=10)[8], "s"),
        "cpu_s_per_task": (loop.task_cpu / samples / unit_cpu, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report_kinds(loop: Loop) -> None:
    """Per task kind: count and median of the tasks' scaled times, on stderr."""
    kinds: dict[str, list[float]] = {}
    for task, seconds in zip(loop.tasks, loop.task_seconds()):
        kinds.setdefault(task.label, []).append(seconds)
    for label in sorted(kinds):
        values = kinds[label]
        print(f"  {label:<40} n={len(values):<4} median {statistics.median(values):.4f} s",
              file=sys.stderr)


def write_reference(cli, workload: str) -> int:
    tasks, workdir = set_up(cli, workload, REFERENCE_SEED)
    try:
        digests = []
        for task in tasks:
            code, _, _, digest = run_task(cli, task.argv)
            if code != 0:
                print(f"reference task failed: {task.label}", file=sys.stderr)
                return 1
            digests.append([task.label, digest])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {"workloads": {}}
    data["seed"] = REFERENCE_SEED
    data["workloads"][workload] = digests
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests for {workload}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and exit (used to time set-up in a fresh interpreter)")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store the stdout digests of seed {REFERENCE_SEED}'s cycle")
    args = parser.parse_args(argv)

    if not (SRC / "doubleforms" / "__init__.py").is_file():
        print(f"error: no doubleforms package under {SRC}", file=sys.stderr)
        return 2
    package, cli = import_cli()
    if args.write_reference:
        return write_reference(cli, args.workload)
    if args.setup_only:
        _, workdir = set_up(cli, args.workload, args.seed)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    setup_samples = measure_setup(args.workload, args.seed) if not args.trace else []
    tasks, workdir = set_up(cli, args.workload, args.seed)
    try:
        loop = Loop(cli, tasks, load_reference(args.workload, args.seed))
        loop.timed(args.seconds)
        if args.trace:
            tracer = Tracer()
            tracer.install(package)
            loop.cycle(tracer)
            ratio = loop.cycle_scaled[-1] / statistics.median(loop.cycle_scaled[:-1])
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_ratio"] = (ratio, "1")
            path = WORK / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
            count = tracer.write(path)
            print(f"{count} spans written to {path}", file=sys.stderr)
        else:
            metrics = end_to_end(setup_samples, loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {len(tasks)} tasks per cycle, "
          f"{len(loop.cycle_walls)} timed cycles, {loop.attempted} attempted, "
          f"{loop.failed} failed", file=sys.stderr)
    report_kinds(loop)
    if not args.trace:
        p90 = metrics["task_s_p90"][0]
        print(f"  task_s_p90 sample count: {len(tasks)} tasks, "
              f"{sum(t > p90 for t in loop.task_seconds())} beyond it", file=sys.stderr)
        print(f"  calibration: {len(loop.unit_walls)} units, mean "
              f"{statistics.fmean(loop.unit_walls) * 1e3:.3f} ms wall, host at "
              f"{REFERENCE_UNIT_S / statistics.fmean(loop.unit_walls):.2f}x the reference speed",
              file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}", file=sys.stderr)
    print(f"  failed_ratio = {loop.failed / loop.attempted} 1", file=sys.stderr)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
