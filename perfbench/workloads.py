"""Benchmark inputs and workloads.

Inputs are edge-list files made here from the workload seed, so the program
under test sees only files.  The preferential-attachment generator follows
the same draw sequence as ``netelast generate ba:N:3:3 --seed S``, which
makes the default-seed inputs the graphs the ROADMAP baseline was measured
on, while keeping the inputs independent of any later change to the
program's own generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 42

# Input name -> (kind, size).  BA graphs are ba:size:3:3, grids size x size.
INPUTS = {
    "ba-256": ("ba", 256),
    "ba-1024": ("ba", 1024),
    "ba-4096": ("ba", 4096),
    "grid-16": ("grid", 16),
    "grid-32": ("grid", 32),
    "grid-64": ("grid", 64),
}
# Sizes the smoke check substitutes, so every code path runs in well under
# a second.
TINY = {"ba": 64, "grid": 6}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: name, netelast argv, input it reads, outputs it writes."""

    name: str
    argv: tuple[str, ...]
    input: str
    outputs: tuple[str, ...]


def _sweep(name: str, source: str, *flags: str) -> Op:
    curve, result = f"out/{name}_curve.csv", f"out/{name}_result.json"
    argv = ("elasticity", "--input", f"{source}.txt", "--label", name, *flags,
            "--curve-out", curve, "--json-out", result)
    return Op(name, argv, source, (curve, result))


def _report(name: str, command: str, source: str, out_flag: str, suffix: str, *flags: str) -> Op:
    out = f"out/{name}.{suffix}"
    return Op(name, (command, "--input", f"{source}.txt", *flags, out_flag, out), source, (out,))


# Why each workload exists is in README.md; in short: bottleneck sweeps are
# routing-bound, flow-ratio sweeps never route, diagnostics never sweep.
WORKLOADS = {
    "sweep-bottleneck": (
        _sweep("ba-1024-degree", "ba-1024", "--attack", "degree", "--jobs", "2"),
        _sweep("grid-32-degree", "grid-32", "--attack", "degree", "--jobs", "2"),
        _sweep("grid-64-route", "grid-64", "--attack", "degree", "--steps", "1"),
    ),
    "sweep-flowratio": (
        _sweep("ba-1024-random-node", "ba-1024", "--attack", "random-node",
               "--mode", "flow-ratio", "--trials", "20", "--jobs", "1"),
        _sweep("grid-32-random-link", "grid-32", "--attack", "random-link",
               "--mode", "flow-ratio", "--trials", "20", "--jobs", "1"),
        _sweep("ba-4096-degree", "ba-4096", "--attack", "degree",
               "--mode", "flow-ratio", "--jobs", "1"),
    ),
    "diagnostics": (
        _report("grid-16-spectrum", "spectral", "grid-16", "--json-out", "json", "--full-spectrum"),
        _report("ba-256-spectrum", "spectral", "ba-256", "--json-out", "json", "--full-spectrum"),
        _report("ba-4096-metrics", "metrics", "ba-4096", "--json-out", "json"),
        _report("ba-4096-ndd", "ndd", "ba-4096", "--csv-out", "csv"),
    ),
}


def single_job(argv: tuple[str, ...]) -> tuple[str, ...]:
    """The same invocation with ``--jobs 1``: traced runs must stay in one process."""
    out = list(argv)
    if "--jobs" in out:
        out[out.index("--jobs") + 1] = "1"
    return tuple(out)


def ba_edges(n: int, seed: int) -> list[tuple[int, int]]:
    """Preferential attachment from a complete 3-node seed, 3 links per new node."""
    rng = random.Random(seed)
    edges = [(0, 1), (0, 2), (1, 2)]
    lottery = [x for e in edges for x in e]
    for src in range(3, n):
        targets: set[int] = set()
        while len(targets) < 3:
            targets.add(lottery[rng.randrange(len(lottery))])
        for t in sorted(targets):
            edges.append((t, src))
            lottery += (t, src)
    return edges


def grid_edges(side: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    return edges


def make_input(name: str, seed: int, tiny: bool = False) -> tuple[int, list[tuple[int, int]], str]:
    """Node count, edges and edge-list text of one input.

    The line order and the orientation of each line are shuffled by the
    seed; the loader canonicalizes both, so a grid is the same graph under
    every seed and only the BA graphs change with it.
    """
    kind, size = INPUTS[name]
    if tiny:
        size = TINY[kind]
    if kind == "ba":
        n, edges = size, ba_edges(size, seed)
    else:
        n, edges = size * size, grid_edges(size)
    rng = random.Random(f"{name}:{seed}")
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    rng.shuffle(lines)
    return n, edges, "\n".join(lines) + "\n"
