"""Seeded inputs for the three benchmark workloads.

Each workload is a fixed list of CLI tasks (one cycle).  The seed chooses
only values: rational coefficients, coordinate planes, verify seeds and the
task order.  Dimensions, bidegrees, model kinds, sparsity patterns and task
counts are fixed, so the work in a cycle barely depends on the seed and runs
with different seeds can be compared.

Inputs are written as JSON spec/form files; the program only ever sees
these files and the argv of each task.  Nothing here imports doubleforms,
so a change to the program cannot change its inputs.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

WORKLOADS = ("curvature_zoo", "decompose_dense", "verify_suites")

# Every cycle holds at least 100 tasks, so that at least ten of them lie
# beyond the p90 of a cycle.

# curvature_zoo: every model kind at n = 6 and 8 (88 tasks), and the pq
# tasks of one n = 10 model (16 tasks).
ZOO_KINDS = ("constant", "hypersurface", "conformally_flat", "product")
ZOO_DIMS = (6, 8)
ZOO_N10_MODEL = "hypersurface"

# decompose_dense: (n, p) -> tasks per cycle.  (5,3) holds the median and
# (8,3) the p90; beyond it (6,4), (8,4) and (7,5) make the tail, mostly
# 2p > n.  (7,4) is left out because one task takes about 32 s.
DECOMPOSE_SHAPES = {
    (6, 3): 44,
    (5, 3): 45,
    (8, 3): 5,
    (6, 4): 4,
    (8, 4): 1,
    (7, 5): 1,
}

# verify_suites: (suite, n) -> tasks per cycle, each with its own seed.
# Cheap configurations run more often, so the cycle is dominated by many
# calls on tiny forms.  The counts put the median inside the avez n=4 /
# hodge n=5 group and the p90 inside curvature n=5, away from the edges
# between groups of different cost.
VERIFY_TASKS = {
    ("hodge", 4): 12,
    ("avez", 4): 20,
    ("hodge", 5): 25,
    ("curvature", 4): 10,
    ("decomposition", 4): 8,
    ("avez", 5): 6,
    ("core-identities", 4): 4,
    ("core-identities", 5): 4,
    ("curvature", 5): 6,
    ("decomposition", 5): 5,
}
VERIFY_TRIALS = 2

# A coefficient's denominator depends on its position, not on the seed, so
# every seed gives the same mix of integral and fractional arithmetic.
DENOMINATORS = (1, 2, 3, 4)


@dataclass(frozen=True)
class Task:
    """One CLI call: a kind label for per-kind timings, and its argv."""

    label: str
    argv: tuple[str, ...]


def _rational(rng: random.Random, slot: int) -> str:
    """A nonzero small rational in lowest terms with the slot's denominator."""
    den = DENOMINATORS[slot % len(DENOMINATORS)]
    num = rng.choice([k for k in range(-9, 10) if k and gcd(k, den) == 1])
    return str(num) if den == 1 else f"{num}/{den}"


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    return str(path)


def _model(rng: random.Random, kind: str, n: int) -> dict:
    if kind == "constant":
        return {"model": "constant", "n": n, "lambda": _rational(rng, 1)}
    if kind == "hypersurface":
        return {"model": "hypersurface", "eigenvalues": [_rational(rng, i) for i in range(n)]}
    if kind == "conformally_flat":
        # Diagonal plus the fixed band h[i][i+1] for even i: non-diagonal,
        # with the same number of nonzero cells for every seed.
        h = [["0"] * n for _ in range(n)]
        for i in range(n):
            h[i][i] = _rational(rng, i)
        for i in range(0, n - 1, 2):
            h[i][i + 1] = h[i + 1][i] = _rational(rng, i + 1)
        return {"model": "conformally_flat", "h_matrix": h}
    half = n // 2
    return {
        "model": "product",
        "factors": [_model(rng, "constant", half), _model(rng, "hypersurface", n - half)],
    }


def _pq_task(rng: random.Random, kind: str, n: int, spec: str, p: int, q: int) -> Task:
    argv = ["pq", "--spec", spec, "--p", str(p), "--q", str(q)]
    if p:
        plane = sorted(rng.sample(range(n), p))
        argv += ["--plane", ",".join(str(i) for i in plane)]
    return Task(f"pq {kind} n={n} p={p} q={q}", tuple(argv))


def _pq_pairs(n: int) -> list[tuple[int, int]]:
    return [
        (p, q)
        for q in range(1, n // 2 + 1)
        for p in sorted({0, 1, 2, n - 2 * q})
        if p <= n - 2 * q
    ]


def _curvature_zoo(rng: random.Random, workdir: Path) -> tuple[list[Task], list[Task]]:
    tasks, warmup = [], []
    for n in ZOO_DIMS:
        for kind in ZOO_KINDS:
            spec = _write(workdir / f"zoo-{kind}-{n}.json", _model(rng, kind, n))
            inv = Task(f"invariants {kind} n={n}", ("invariants", "--spec", spec, "--max-q", str(n // 2)))
            pqs = [_pq_task(rng, kind, n, spec, p, q) for p, q in _pq_pairs(n)]
            tasks += [inv] + pqs
            if n == ZOO_DIMS[0]:
                warmup += [inv, pqs[0]]
    n = 10
    spec = _write(workdir / f"zoo-{ZOO_N10_MODEL}-{n}.json", _model(rng, ZOO_N10_MODEL, n))
    tasks += [_pq_task(rng, ZOO_N10_MODEL, n, spec, p, q) for p, q in _pq_pairs(n)]
    return tasks, warmup


def _dense_form(rng: random.Random, n: int, p: int) -> dict:
    """Every cell of D^{p,p} set to a nonzero small rational, in lex order."""
    blocks = [list(c) for c in itertools.combinations(range(n), p)]
    entries = [[i, j, _rational(rng, r * len(blocks) + c)]
               for r, i in enumerate(blocks) for c, j in enumerate(blocks)]
    return {"n": n, "p": p, "q": p, "entries": entries}


def _decompose_dense(rng: random.Random, workdir: Path) -> tuple[list[Task], list[Task]]:
    tasks = []
    for (n, p), count in DECOMPOSE_SHAPES.items():
        for index in range(count):
            path = _write(workdir / f"dense-{n}-{p}-{index}.json", _dense_form(rng, n, p))
            tasks.append(Task(f"decompose n={n} p={p}", ("decompose", "--input", path)))
    # one warm-up task per path: the closed form (2p <= n) and the solve (2p > n)
    warmup = [
        next(t for t in tasks if t.label == "decompose n=6 p=3"),
        next(t for t in tasks if t.label == "decompose n=5 p=3"),
    ]
    return tasks, warmup


def _verify_suites(rng: random.Random, workdir: Path) -> tuple[list[Task], list[Task]]:
    tasks, warmup = [], []
    for (suite, n), count in VERIFY_TASKS.items():
        for index in range(count):
            argv = (
                "verify", "--suite", suite, "--n", str(n),
                "--trials", str(VERIFY_TRIALS), "--seed", str(rng.randrange(10**6)),
            )
            tasks.append(Task(f"verify {suite} n={n}", argv))
            if index == 0 and n == min(n for _, n in VERIFY_TASKS):
                warmup.append(tasks[-1])
    return tasks, warmup


_GENERATORS = {
    "curvature_zoo": _curvature_zoo,
    "decompose_dense": _decompose_dense,
    "verify_suites": _verify_suites,
}


def generate(workload: str, seed: int, workdir: Path) -> tuple[list[Task], list[Task]]:
    """Write the inputs of one cycle into workdir; return (cycle, warm-up).

    The cycle is shuffled by the seed so the closed-loop client sees a mix;
    the warm-up holds one task of each kind and runs before any timing.
    """
    rng = random.Random(f"{workload}:{seed}")
    tasks, warmup = _GENERATORS[workload](rng, workdir)
    rng.shuffle(tasks)
    return tasks, warmup
