"""Outside-in tracer: spans and counts recorded around doubleforms' layers.

Nothing under src/ changes.  install() replaces each traced function where
it is looked up: a module-level function in every doubleforms module that
bound it (so names taken with `from ... import` are wrapped in the importing
module too), a method on its class, and each verify check in verify.SUITES.

A span is (name, start, end, parent, task).  Spans stay in memory in flat
arrays and are written out once, when the run ends.  A layer's self time is
its spans' total duration minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from math import comb

# span name -> functions it covers, as (module, attribute) or
# (module, class, attribute) below the doubleforms package.
SPANS = {
    "cli.main": [("cli", "main")],
    "serialize.parse": [("serialize", "model_spec_from_dict"), ("serialize", "form_from_dict")],
    "serialize.build": [("serialize", "build_curvature_tensor")],
    "serialize.emit": [
        ("serialize", "report_to_dict"),
        ("serialize", "decomposition_to_dict"),
        ("serialize", "dumps_canonical"),
    ],
    "curvature.build_invariant_report": [("curvature", "build_invariant_report")],
    "curvature.power": [("curvature", "power")],
    "curvature.weyl_invariant": [("curvature", "weyl_invariant")],
    "curvature.einstein_tensor": [("curvature", "einstein_tensor")],
    "curvature.certify": [("curvature", "CurvatureTensor", "__post_init__")],
    "curvature.sign_report_h4": [("curvature", "sign_report_h4")],
    "curvature.pq_curvature_tensor": [("curvature", "pq_curvature_tensor")],
    "curvature.sectional_curvature": [("curvature", "sectional_curvature")],
    "curvature.avez_pairing": [("curvature", "avez_pairing")],
    "decomposition.decompose": [("decomposition", "decompose")],
    "decomposition.divide_g_power": [("decomposition", "divide_g_power")],
    "decomposition.g_power_matrix": [("decomposition", "g_power_matrix")],
    "decomposition.reconstruct": [("decomposition", "EffectiveDecomposition", "reconstruct")],
    "decomposition.star_bianchi": [("decomposition", "star_bianchi")],
    "decomposition.star_in_components": [("decomposition", "star_in_components")],
    "linalg.rank": [("linalg", "rank")],
    "linalg.solve": [("linalg", "solve")],
    "linalg.nullspace": [("linalg", "nullspace")],
    "linalg.projector": [
        ("linalg", "KernelProjector", "__init__"),
        ("linalg", "KernelProjector", "project"),
    ],
    "core.mul": [("core", "DoubleForm", "mul")],
    "core.mul_g_power": [("core", "DoubleForm", "mul_g_power")],
    "core.contract": [("core", "DoubleForm", "contract")],
    "core.hodge": [("core", "DoubleForm", "hodge")],
    "core.bianchi_sum": [("core", "DoubleForm", "bianchi_sum")],
    "core.inner": [("core", "DoubleForm", "inner")],
    "core.linear": [
        ("core", "DoubleForm", "__add__"),
        ("core", "DoubleForm", "__sub__"),
        ("core", "DoubleForm", "scale"),
    ],
    "core.compare": [
        ("core", "DoubleForm", "__eq__"),
        ("core", "DoubleForm", "is_zero"),
        ("core", "DoubleForm", "is_symmetric"),
    ],
    "core.eval_oracle": [("core", "eval_oracle")],
    "verify.inputs": [
        ("verify", "random_form"),
        ("verify", "random_symmetric"),
        ("verify", "random_bianchi"),
        ("verify", "random_frame"),
    ],
}

# verify.<suite> spans wrap each check of the suite; they count cases, not calls.
SUITES = ("core-identities", "hodge", "decomposition", "curvature", "avez")

COUNTS = (
    "core.entries.calls",
    "core.entries.yielded",
    "core.alloc.calls",
    "core.alloc.cells",
)


def span_names() -> list[str]:
    return list(SPANS) + [f"verify.{suite}" for suite in SUITES]


class Tracer:
    """Span and count recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.task = -1
        self.counts: Counter[str] = Counter({name: 0 for name in COUNTS})

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        names, parents, tasks = self.span_name, self.span_parent, self.span_task
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            tasks.append(tracer.task)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Wrap every traced function of an imported doubleforms package."""
        prefix = package.__name__
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == prefix or key.startswith(prefix + "."))
        ]
        for name, targets in SPANS.items():
            for target in targets:
                owner = sys.modules[f"{prefix}.{target[0]}"]
                if len(target) == 3:
                    cls = getattr(owner, target[1])
                    setattr(cls, target[2], self._wrap(name, cls.__dict__[target[2]]))
                    continue
                original = getattr(owner, target[1])
                wrapped = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        self._install_suites(sys.modules[f"{prefix}.verify"])
        self._install_counts(sys.modules[f"{prefix}.core"].DoubleForm)
        exterior = sys.modules[f"{prefix}.exterior"]
        self.caches = {
            "exterior.subset_masks.misses": exterior.subset_masks,
            "exterior.rank_table.misses": exterior._mask_rank_table,
        }

    def _install_suites(self, verify) -> None:
        counts = self.counts
        for suite in SUITES:
            label = f"verify.{suite}"
            counts[f"{label}.cases"] = 0

            def counted(check, label=label):
                def run(rec, rng, n, trials):
                    before = rec.cases
                    try:
                        return check(rec, rng, n, trials)
                    finally:
                        counts[f"{label}.cases"] += rec.cases - before

                return self._wrap(label, functools.wraps(check)(run))

            verify.SUITES[suite] = tuple(
                (check_name, counted(check)) for check_name, check in verify.SUITES[suite]
            )

    def _install_counts(self, form_class) -> None:
        counts = self.counts
        init = form_class.__init__
        entries = form_class.entries

        @functools.wraps(init)
        def counted_init(form, n, p, q, coeffs=None):
            init(form, n, p, q, coeffs)
            counts["core.alloc.calls"] += 1
            counts["core.alloc.cells"] += comb(n, p) * comb(n, q)

        @functools.wraps(entries)
        def counted_entries(form):
            counts["core.entries.calls"] += 1
            for item in entries(form):
                counts["core.entries.yielded"] += 1
                yield item

        form_class.__init__ = counted_init
        form_class.entries = counted_entries

    # -- results -------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float | int, str]]:
        """Per layer: calls (cases for verify suites) and self time, plus counts."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        covered = [0] * len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        # children have larger indices than their parent, so a reverse pass
        # sees every child before the span it nests in
        for index in range(len(names) - 1, -1, -1):
            duration = ends[index] - starts[index]
            name_id = names[index]
            calls[name_id] += 1
            self_ns[name_id] += duration - covered[index]
            parent = parents[index]
            if parent >= 0:
                covered[parent] += duration
        out: dict[str, tuple[float | int, str]] = {}
        for name in span_names():
            name_id = self.names.index(name)
            if name.startswith("verify.") and name != "verify.inputs":
                out[f"{name}.cases"] = (self.counts[f"{name}.cases"], "count")
            else:
                out[f"{name}.calls"] = (calls[name_id], "count")
            out[f"{name}.self_s"] = (self_ns[name_id] / 1e9, "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        for name, cached in self.caches.items():
            out[name] = (cached.cache_info().misses, "count")
        return out

    def write(self, path) -> int:
        """Write the spans as gzip'd TSV (times in ns from the first span)."""
        origin = self.span_start[0] if len(self.span_start) else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\ttask\tname\tstart_ns\tend_ns\n")
            for index in range(len(self.span_name)):
                out.write(
                    f"{index}\t{self.span_parent[index]}\t{self.span_task[index]}\t"
                    f"{self.names[self.span_name[index]]}\t"
                    f"{self.span_start[index] - origin}\t{self.span_end[index] - origin}\n"
                )
        return len(self.span_name)
