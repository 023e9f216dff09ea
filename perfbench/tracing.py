"""In-process span tracing of torickit's public functions.

`Tracer.install()` replaces each function in `TRACED` with a wrapper
wherever a torickit module binds its name (`cli` and `fans` import names
directly, so patching only the defining module would miss those calls);
`uninstall()` puts the originals back. Import torickit before creating a
`Tracer`: the bindings are collected then. A wrapper records one span per
call: job index, function, start, end and the enclosing span. Spans stay
in compact arrays in memory and are written out by `write_spans`.

Self time of a span is its duration minus the durations of its direct
child spans (calls run on one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

TRACED = {
    "cli": ("main", "build_parser"),
    "document": ("load_fan_file", "load_poly_tuple_file", "poly_tuple_to_obj"),
    "fans": (
        "validate_fan",
        "primitive_collections",
        "is_smooth",
        "is_complete",
        "enumerate_subfans",
        "fan_isomorphism",
        "isomorphism_classes",
    ),
    "cones": ("intersection_is_common_face", "halfspace_description", "cone_contains", "is_smooth_cone"),
    "lattice": (
        "smith_normal_form",
        "kernel_basis",
        "positive_kernel_vector",
        "complete_degrees",
        "rational_solve",
        "rational_rank",
        "rational_nullspace",
    ),
    "cox": ("cox_report", "complete_degrees", "degree_of"),
    "stability": ("stability_report", "replay"),
    "gaussian": ("poly_gcd", "poly_multi_gcd", "poly_divmod", "poly_mul"),
    "holmap": ("is_member", "violating_collections", "stabilize"),
}

# Functions whose results feed a ratio: name -> predicate on the result.
OUTCOMES = {
    "fans.fan_isomorphism": lambda result: result is not None,
    "gaussian.poly_multi_gcd": lambda result: len(result) > 1,  # non-constant gcd
}


class Tracer:
    def __init__(self):
        self.names = [f"{module}.{name}" for module, names in TRACED.items() for name in names]
        self.job = array("i")
        self.fn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.current_job = -1
        self.outcomes = {name: 0 for name in OUTCOMES}
        self._stack = [-1]
        self._patches = []  # (module, attribute, original, wrapper)
        modules = [m for name, m in sys.modules.items() if name.startswith("torickit")]
        for index, qual in enumerate(self.names):
            module_name, fn_name = qual.split(".")
            original = getattr(sys.modules["torickit." + module_name], fn_name)
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _wrap(self, index: int, fn):
        job, fns, start, end, parent, stack = (
            self.job, self.fn, self.start, self.end, self.parent, self._stack
        )
        outcome = OUTCOMES.get(self.names[index])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(fns)
            job.append(self.current_job)
            fns.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if outcome is not None and outcome(result):
                self.outcomes[self.names[index]] += 1
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per function: calls, self time and the longest span, in seconds."""
        child = [0.0] * len(self.fn)
        for span, up in enumerate(self.parent):
            if up >= 0:
                child[up] += self.end[span] - self.start[span]
        stats = {name: {"calls": 0, "self": 0.0, "max": 0.0} for name in self.names}
        for span, index in enumerate(self.fn):
            entry = stats[self.names[index]]
            duration = self.end[span] - self.start[span]
            entry["calls"] += 1
            entry["self"] += duration - child[span]
            entry["max"] = max(entry["max"], duration)
        return stats

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: job, function, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tjob\tfunction\tstart_s\tend_s\tparent\n")
            for span in range(len(self.fn)):
                handle.write(
                    f"{span}\t{self.job[span]}\t{self.names[self.fn[span]]}\t"
                    f"{self.start[span]:.9f}\t{self.end[span]:.9f}\t{self.parent[span]}\n"
                )


def layer_metrics(tracer: Tracer, passes: int, jobs_per_pass: int, overhead: float) -> dict:
    """The per-layer metrics, averaged over the traced passes."""
    stats = tracer.summary()
    metrics = {}
    for name, entry in stats.items():
        metrics[f"{name}.calls"] = (entry["calls"] / passes, "count")
        metrics[f"{name}.self_ms"] = (entry["self"] * 1000 / passes, "ms")

    def ratio(hits: int, calls: int) -> float:
        return hits / calls if calls else 0.0

    metrics["stability.replay.max_ms"] = (stats["stability.replay"]["max"] * 1000, "ms")
    metrics["cox.cox_report.calls_per_job"] = (
        stats["cox.cox_report"]["calls"] / (passes * jobs_per_pass),
        "count",
    )
    metrics["fans.fan_isomorphism.hit_ratio"] = (
        ratio(tracer.outcomes["fans.fan_isomorphism"], stats["fans.fan_isomorphism"]["calls"]),
        "ratio",
    )
    metrics["holmap.nonconstant_gcd_ratio"] = (
        ratio(tracer.outcomes["gaussian.poly_multi_gcd"], stats["gaussian.poly_multi_gcd"]["calls"]),
        "ratio",
    )
    metrics["trace_overhead_ratio"] = (overhead, "ratio")
    return metrics
