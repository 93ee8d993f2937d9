"""End-to-end and per-layer benchmark of netelast, driven through its CLI.

    python3 perfbench/run.py --workload sweep-bottleneck --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from a checkout of the repository; the program is imported from its
``src/`` directory.  One run makes the workload's edge-list inputs from the
seed, times set-up in fresh processes, runs the workload's CLI operations in
passes in one fresh worker process (closed loop, one operation at a time),
checks every output, and prints one JSON object as its last line.  With
``--trace 1`` the worker also runs traced passes and the metrics are the
per-layer ones.  ``--workload all`` runs every workload in turn and prints
one summary line and one JSON line per workload.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_input, single_job  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "routing.route_all_pairs.calls": "count",
    "routing.route_all_pairs.s": "s",
    "routing.route_all_pairs.peak_alloc_mb": "MB",
    "routing.pairs_routed": "count",
    "routing.normalized_throughput.self_s": "s",
    "routing.delivered_flow_count.calls": "count",
    "routing.delivered_flow_count.self_s": "s",
    "graph.connected_components.calls": "count",
    "graph.connected_components.s": "s",
    "graph.make_graph.calls": "count",
    "graph.make_graph.s": "s",
    "graph.remove_nodes.self_s": "s",
    "graph.remove_links.self_s": "s",
    "graph.load_edge_list.s": "s",
    "attacks.plan_targeted_degree.s": "s",
    "attacks.plan_random_nodes.s": "s",
    "attacks.plan_random_links.s": "s",
    "engine.sweep.calls": "count",
    "engine.sweep.self_s": "s",
    "engine.averaged_elasticity.self_s": "s",
    "engine.samples": "count",
    "engine.clamp_events": "count",
    "spectral.laplacian.s": "s",
    "spectral.eigenvalues.s": "s",
    "metrics.summarize.s": "s",
    "metrics.degree_histogram.s": "s",
    "cli.main.self_s": "s",
    "trace.self_s_total": "s",
    "trace.overhead_frac": "ratio",
}
SETUP_REPEATS = 10
# One BLAS thread per process, so --jobs 2 uses at most two cores.
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run must end within 180 s; the worker gets what is left after set-up,
# less a margin for the checks.
DEADLINE_S = 165
DIGESTS = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_PIN)
    env.pop("PYTHONPATH", None)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(loadavg_1m: float) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or None
        except OSError:
            pass
    return {
        "git_commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_pin": BLAS_PIN,
        "loadavg_1m": loadavg_1m,
    }


def _run_child(args: list[str], cwd: Path, timeout: float) -> str:
    try:
        out = subprocess.run([sys.executable, str(WORKER), *args], cwd=cwd, env=child_env(),
                             capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s") from None
    if out.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {out.returncode}: {out.stderr[-2000:]}")
    return out.stdout


def _op_problems(workload: str, op, workdir: Path, graph, seed: int, tiny: bool) -> list[str]:
    outputs = [workdir / o for o in op.outputs]
    missing = [str(o) for o in op.outputs if not (workdir / o).exists()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    n, edges = graph
    kind = op.argv[0]
    if kind == "spectral":
        return checks.check_spectrum(outputs[0], n, edges)
    if kind == "metrics":
        return checks.check_metrics(outputs[0], n, edges)
    if kind == "ndd":
        return checks.check_ndd(outputs[0], n, edges)
    curve, result = outputs
    problems = checks.check_sweep(result, curve)
    if seed == DEFAULT_SEED and not tiny:
        got = {"curve": checks.sha256(curve), "result": checks.sha256(result)}
        if got != DIGESTS.get(f"{workload}/{op.name}"):
            problems.append(f"outputs differ from the digests recorded at seed {DEFAULT_SEED}: {got}")
    if op.input in checks.ROUTING_REFERENCE and "flow-ratio" not in op.argv:
        from netelast import load_edge_list

        with open(workdir / f"{op.input}.txt", encoding="utf-8") as fh:
            problems += checks.check_routing(load_edge_list(fh))
    return problems


def require_checkout() -> None:
    for need in (ROOT / "src" / "netelast" / "__init__.py", ROOT / "tests" / "flow_oracle.py"):
        if not need.is_file():
            raise BenchError(f"{need.relative_to(ROOT)} not found: run from a netelast checkout")


def per_pass(passes: list[dict], key: str) -> float:
    """Seconds of one pass: the sum over operations of each one's median."""
    return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            tiny: bool = False, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One run of one workload; returns the result object and its details."""
    started = time.monotonic()
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    ops = WORKLOADS[workload]
    if trace:
        ops = tuple(replace(op, argv=single_job(op.argv)) for op in ops)

    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    graphs = {}
    for name in sorted({op.input for op in ops}):
        n, edges, text = make_input(name, seed, tiny)
        (workdir / f"{name}.txt").write_text(text, encoding="utf-8")
        graphs[name] = (n, edges)
    files = [f"{name}.txt" for name in graphs]

    def time_setups(count: int) -> list[float]:
        return [float(_run_child(["setup", str(ROOT / "src"), *files], workdir, 60))
                for _ in range(count)]

    # Half the set-up samples before the worker and half after it, so their
    # median spans the run rather than one moment of a shared machine.
    setups = time_setups(setup_repeats - setup_repeats // 2)

    spec = {"src": str(ROOT / "src"), "seconds": seconds, "trace": trace,
            "ops": [{"argv": op.argv, "outputs": op.outputs} for op in ops]}
    (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    _run_child(["run", "spec.json", "report.json"], workdir,
               DEADLINE_S - (time.monotonic() - started))
    report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    setups += time_setups(setup_repeats // 2)
    if not Path(report["netelast_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"measured {report['netelast_file']}, not this checkout's src/")

    problems = {op.name: _op_problems(workload, op, workdir, graphs[op.input], seed, tiny)
                for op in ops}
    final = report["passes"][-1]["digests"]
    failed = attempted = 0
    for p in report["passes"] + report["traced"]:
        for i, op in enumerate(ops):
            attempted += 1
            if p["codes"][i] != 0 or p["digests"][i] != final[i] or problems[op.name]:
                failed += 1

    plain = report["passes"]
    wall = per_pass(plain, "op_s")
    e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "cpu_s": per_pass(plain, "op_cpu_s"),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    layer = {}
    if trace:
        traced = report["traced"]
        # Counts repeat exactly from pass to pass; median_low keeps them integers.
        layer = {k: (statistics.median_low if PER_LAYER[k] == "count" else statistics.median)(
                     [p["stats"][k] for p in traced])
                 for k in PER_LAYER if k != "trace.overhead_frac"}
        layer["trace.overhead_frac"] = per_pass(traced, "op_s") / wall - 1
    metrics = layer if trace else e2e
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    details = {
        "passes": len(plain),
        "traced_passes": len(report["traced"]),
        "end_to_end": e2e,
        "op_s": {op.name: statistics.median(p["op_s"][i] for p in plain)
                 for i, op in enumerate(ops)},
        "problems": {k: v for k, v in problems.items() if v},
    }
    return {"result": result, "details": details}


def summary_line(workload: str, seed: int, run: dict) -> str:
    res, det = run["result"], run["details"]
    parts = [f"{workload} seed={seed} passes={det['passes']}"]
    parts += [f"{k}={v:.4g} {END_TO_END[k]}" for k, v in det["end_to_end"].items()]
    parts.append(f"failure_rate={res['failed'] / res['attempted']:.3g} "
                 f"({res['failed']}/{res['attempted']})")
    if det["traced_passes"]:
        parts.append(f"trace.overhead_frac={res['metrics']['trace.overhead_frac']['value']:.3g}")
    return " ".join(parts)


def main(argv: list[str] | None = None) -> int:
    loadavg = os.getloadavg()[0]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = ROOT / ".perfbench-work"
    try:
        require_checkout()
        env = fingerprint(loadavg)
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        runs = []
        for name in names:
            run = measure(name, args.seed, args.seconds, bool(args.trace), workdir / name)
            for op, problems in run["details"]["problems"].items():
                print(f"FAILED {name}/{op}: {'; '.join(problems)}", flush=True)
            print("ops " + json.dumps(run["details"]["op_s"]), flush=True)
            print(summary_line(name, args.seed, run), flush=True)
            runs.append(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for run in runs:
        print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
