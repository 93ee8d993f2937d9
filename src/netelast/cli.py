"""Command-line front door: reproducible runs with CSV/JSON file outputs."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from .attacks import STRATEGIES
from .engine import (
    DEFAULT_MAX_REMOVAL,
    DEFAULT_STEPS,
    DEFAULT_TRIALS,
    AveragedSweep,
    averaged_elasticity,
)
from .generators import generate, parse_generator_spec
from .graph import Graph, dump_edge_list, load_edge_list
from .metrics import assortativity, degree_histogram, summarize
from .routing import DEFAULT_MODE, MODES, _usable_cpus
from .spectral import DEFAULT_SIZE_GUARD, eigenvalues, laplacian


def _emit(path: str | Path | None, text: str) -> None:
    """Write text to path atomically (temporary file, then rename), or to
    stdout when no path is given.  A failed write removes the temporary
    file and re-raises."""
    if not path:
        sys.stdout.write(text)
        return
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _curve_csv(curve) -> str:
    lines = ["percent_remaining,throughput"]
    lines += [f"{100.0 * f:.6f},{tp:.6f}" for f, tp in curve.samples]
    return "\n".join(lines) + "\n"


def _load_graph(path: str | None, spec: str | None, seed: int) -> tuple[Graph, str]:
    """Load an edge-list file or, when no path is given, generate spec.
    A byte-order mark at the start of the file is dropped."""
    if path:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return load_edge_list(fh), Path(path).stem
    kind, params = parse_generator_spec(spec)
    return generate(kind, params, seed=seed), spec.replace(":", "-")


def _add_source_options(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="edge-list file to load")
    src.add_argument("--generate", help="topology spec, e.g. ba:1000:3:3 or grid:32:32")
    p.add_argument("--seed", type=int, default=42, help="run seed (default 42)")


def _add_sweep_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--attack", choices=STRATEGIES, default="degree")
    p.add_argument("--mode", choices=MODES, default=DEFAULT_MODE)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                   help=f"trials for random attacks (default {DEFAULT_TRIALS}); targeted runs once")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--max-removal", type=float, default=DEFAULT_MAX_REMOVAL,
                   help="fraction of entities removed by the end of a sweep")
    p.add_argument("--static-degree", action="store_true",
                   help="rank the targeted attack by initial degrees only")
    p.add_argument("--jobs", type=int, default=_usable_cpus(),
                   help="processes that share a study's samples and trials, at most the "
                        "CPUs this process may use (default: all of them, %(default)s here)")


def _study(g: Graph, args) -> AveragedSweep:
    """The sweep study the sweep options ask for; the engine applies the trials rule."""
    return averaged_elasticity(
        g,
        args.attack,
        trials=args.trials,
        seed=args.seed,
        max_removal_fraction=args.max_removal,
        steps=args.steps,
        mode=args.mode,
        recompute=not args.static_degree,
        jobs=args.jobs,
    )


def _cmd_elasticity(args) -> int:
    g, label = _load_graph(args.input, args.generate, args.seed)
    label = args.label or label
    study = _study(g, args)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    curve_path = Path(args.curve_out) if args.curve_out else outdir / f"{label}_curve.csv"
    json_path = Path(args.json_out) if args.json_out else outdir / f"{label}_result.json"
    payload = study.result.to_dict()
    payload["label"] = label
    payload["config"] = {
        "input": args.input,
        "generate": args.generate,
        "label": label,
        "attack": args.attack,
        "mode": args.mode,
        "trials": study.result.trials,
        "seed": args.seed,
        "steps": args.steps,
        "max_removal_fraction": args.max_removal,
        "static_degree": args.static_degree,
    }
    _emit(curve_path, _curve_csv(study.mean_curve))
    _emit(json_path, _json_text(payload))
    print(f"{label} area={study.result.area:.6g} E={study.result.elasticity:.6g}")
    return 0


def _cmd_spectral(args) -> int:
    g, label = _load_graph(args.input, args.generate, args.seed)
    summary = eigenvalues(laplacian(g, size_guard=args.size_guard))
    payload = {
        "n": g.n,
        "m": g.m,
        "lambda2": summary.lambda2,
        "mean_eigenvalue": summary.mean_eigenvalue,
    }
    if args.full_spectrum:
        payload["spectrum"] = list(summary.eigenvalues)
    _emit(args.json_out, _json_text(payload))
    if args.json_out:
        lam = "n/a" if summary.lambda2 is None else f"{summary.lambda2:.6g}"
        print(f"{label} lambda2={lam}")
    return 0


def _cmd_metrics(args) -> int:
    g, _ = _load_graph(args.input, args.generate, args.seed)
    s = summarize(g)
    payload = {
        "n": s.n,
        "m": s.m,
        "max_degree": s.max_degree,
        "avg_degree": s.avg_degree,
        "r": "undefined" if s.assortativity is None else s.assortativity,
    }
    _emit(args.json_out, _json_text(payload))
    return 0


def _cmd_ndd(args) -> int:
    g, _ = _load_graph(args.input, args.generate, args.seed)
    hist = degree_histogram(g)
    lines = ["degree,count,fraction"]
    lines += [f"{d},{c},{c / g.n:.6f}" for d, c in hist.items()]
    _emit(args.csv_out, "\n".join(lines) + "\n")
    return 0


def _cmd_generate(args) -> int:
    g, _ = _load_graph(None, args.spec, args.seed)
    _emit(args.output, dump_edge_list(g))
    if args.output:
        print(f"{args.spec} n={g.n} m={g.m} -> {args.output}")
    return 0


def _cmd_scatter(args) -> int:
    sources = [(p, None) for p in args.input or []]
    sources += [(None, s) for s in args.generate or []]
    if not sources:
        raise ValueError("scatter needs at least one --input or --generate")
    rows = []
    for path, spec in sources:
        g, base = _load_graph(path, spec, args.seed)
        r = assortativity(g) if g.m >= 1 else None
        study = _study(g, args)
        r_text = "undefined" if r is None else f"{r:.3f}"
        r_col = "undefined" if r is None else f"{r:.6f}"
        rows.append(f"{base}_{r_text},{r_col},{study.result.elasticity:.6f}")
    _emit(args.csv_out, "\n".join(["graph_label,r,E"] + rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netelast",
        description="Network elasticity toolkit: attack sweeps, spectra, degree metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("elasticity", help="run an attack sweep and report elasticity")
    _add_source_options(p)
    _add_sweep_options(p)
    p.add_argument("--label", help="label for outputs (default: input stem or spec)")
    p.add_argument("--outdir", default=".", help="directory for default output names")
    p.add_argument("--curve-out", help="explicit path for the curve CSV")
    p.add_argument("--json-out", help="explicit path for the result JSON")
    p.set_defaults(func=_cmd_elasticity)

    p = sub.add_parser("spectral", help="Laplacian spectrum and algebraic connectivity")
    _add_source_options(p)
    p.add_argument("--size-guard", type=int, default=DEFAULT_SIZE_GUARD)
    p.add_argument("--full-spectrum", action="store_true", help="include all eigenvalues")
    p.add_argument("--json-out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("metrics", help="summary metrics (n, m, degrees, assortativity)")
    _add_source_options(p)
    p.add_argument("--json-out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("ndd", help="node degree distribution as CSV")
    _add_source_options(p)
    p.add_argument("--csv-out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_ndd)

    p = sub.add_parser("generate", help="write a topology as a canonical edge list")
    p.add_argument("spec", help="topology spec, e.g. ba:1000:3:3")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("scatter", help="per-graph (assortativity, elasticity) CSV")
    p.add_argument("--input", action="append", help="edge-list file (repeatable)")
    p.add_argument("--generate", action="append", help="topology spec (repeatable)")
    p.add_argument("--seed", type=int, default=42)
    _add_sweep_options(p)
    p.add_argument("--csv-out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_scatter)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
