"""The process that runs one workload's operations, timed and optionally traced.

Run by run.py, never by hand:

    python3 perfbench/worker.py setup SRC_DIR FILE...   # time import + loads
    python3 perfbench/worker.py run SPEC.json REPORT.json

``run`` executes the operations in passes through ``netelast.cli.main``,
in this process, with the working directory set to the workload's work
directory.  The report holds per-operation wall and CPU seconds, the peak
resident set, per-operation exit codes and output digests, and, for traced
passes, per-function span statistics.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import resource
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

# Public functions wrapped in a traced pass, by module.  Each is patched at
# every binding a netelast module holds, so callers that imported the name
# (``from .routing import route_all_pairs``) are traced too.
TRACED = {
    "routing": ("route_all_pairs", "normalized_throughput", "delivered_flow_count"),
    "graph": ("load_edge_list", "make_graph", "connected_components", "remove_nodes", "remove_links"),
    "attacks": ("plan_targeted_degree", "plan_random_nodes", "plan_random_links"),
    "engine": ("sweep", "averaged_elasticity"),
    "spectral": ("laplacian", "eigenvalues"),
    "metrics": ("summarize", "degree_histogram"),
    "cli": ("main",),
}
# Functions whose peak allocation is taken with tracemalloc, which runs only
# inside their spans.  route_all_pairs allocates few, large numpy arrays, so
# tracing costs it under 1%.  spectral.eigenvalues is left out: its
# Python-loop Jacobi solver makes millions of small allocations and runs
# about 17x slower under tracemalloc, which no run fits in.
ALLOC_TRACED = {"routing.route_all_pairs"}


def _count_routed(counts: dict, fa) -> None:
    counts["routing.pairs_routed"] += fa.delivered


def _count_samples(counts: dict, curve) -> None:
    counts["engine.samples"] += len(curve.samples)
    counts["engine.clamp_events"] += curve.clamp_events


COUNTERS = {"routing.route_all_pairs": _count_routed, "engine.sweep": _count_samples}


class Tracer:
    """In-memory spans around the public functions in TRACED.

    A span is [name, parent index, start, end, peak allocated bytes].  Spans
    stay in memory until a traced pass ends.  ``install`` binds the wrappers
    and ``uninstall`` restores the originals, so plain and traced passes
    can alternate in one process.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        for mod_name, funcs in TRACED.items():
            home = importlib.import_module(f"netelast.{mod_name}")
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for name, module in list(sys.modules.items()):
                    if name == "netelast" or name.startswith("netelast."):
                        self._bindings += [(module, attr, original, wrapper)
                                           for attr, value in vars(module).items()
                                           if value is original]

    def install(self) -> None:
        """Bind the wrapper at every name a netelast module holds for a traced function."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        alloc = name in ALLOC_TRACED
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0]
            self.spans.append(span)
            self._stack.append(index)
            own_malloc = alloc and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                if own_malloc:
                    span[4] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, result)
            return result

        return traced

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts


def span_stats(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """calls, inclusive s, self_s and peak_alloc_mb per function, plus counters.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the root spans.
    """
    child_s = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats: dict[str, float] = defaultdict(float)
    for mod_name, funcs in TRACED.items():
        for func in funcs:
            key = f"{mod_name}.{func}"
            stats[f"{key}.calls"] = 0
            stats[f"{key}.s"] = 0.0
            stats[f"{key}.self_s"] = 0.0
            if key in ALLOC_TRACED:
                stats[f"{key}.peak_alloc_mb"] = 0.0
    for (name, _, start, end, peak), nested in zip(spans, child_s):
        stats[f"{name}.calls"] += 1
        stats[f"{name}.s"] += end - start
        stats[f"{name}.self_s"] += end - start - nested
        if name in ALLOC_TRACED:
            stats[f"{name}.peak_alloc_mb"] = max(stats[f"{name}.peak_alloc_mb"], peak / 2**20)
    stats["trace.self_s_total"] = sum(
        v for k, v in stats.items() if k.endswith(".self_s")
    )
    for key in ("routing.pairs_routed", "engine.samples", "engine.clamp_events"):
        stats[key] = counts.get(key, 0)
    return dict(stats)


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _call(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an operation that crashes is a failed operation
        print(f"{argv[0]}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _rusage_cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _one_pass(cli, ops: list[dict], tracer: Tracer | None) -> dict:
    """Run every operation once; per-operation wall and CPU seconds outside tracing."""
    for op in ops:
        for out in op["outputs"]:
            Path(out).unlink(missing_ok=True)
    if tracer is not None:
        tracer.install()
    codes, op_s, op_cpu_s = [], [], []
    try:
        for op in ops:
            cpu = _rusage_cpu()
            t = time.perf_counter()
            codes.append(_call(cli.main, list(op["argv"])))
            op_s.append(time.perf_counter() - t)
            op_cpu_s.append(_rusage_cpu() - cpu)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {
        "op_s": op_s,
        "op_cpu_s": op_cpu_s,
        "codes": codes,
        "digests": [[_digest(Path(out)) for out in op["outputs"]] for op in ops],
    }
    if tracer is not None:
        record["stats"] = span_stats(*tracer.take())
    return record


def run(spec: dict) -> dict:
    """Passes, closed loop, for about spec["seconds"].

    Traced runs alternate a plain and a traced pass, so both see the same
    drift of a shared machine.  Another round starts only if one as long as
    the last still fits, so a run does not overshoot by a whole round;
    there is always at least one.
    """
    sys.path.insert(0, spec["src"])
    cli = importlib.import_module("netelast.cli")
    tracer = Tracer() if spec["trace"] else None
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(_one_pass(cli, spec["ops"], None))
        if tracer is not None:
            traced.append(_one_pass(cli, spec["ops"], tracer))
        now = time.perf_counter()
        if now - started + (now - t0) > spec["seconds"]:
            return {"passes": plain, "traced": traced}


def _peak_rss_mb() -> float:
    """Largest resident set of this process or of any one of its children.

    For this process the kernel's high-water mark of its own address space
    (VmHWM) is used: ru_maxrss of a freshly exec'd process also counts the
    parent's peak at the time it was spawned.  Children are counted by
    ru_maxrss, in KiB on Linux.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            self_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def setup(src: str, files: list[str]) -> float:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    netelast = importlib.import_module("netelast")
    for name in files:
        with open(name, encoding="utf-8") as fh:
            netelast.load_edge_list(fh)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        print(repr(setup(argv[1], argv[2:])))
        return 0
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    report = run(spec)
    report["peak_rss_mb"] = _peak_rss_mb()
    report["netelast_file"] = sys.modules["netelast"].__file__
    Path(argv[2]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
