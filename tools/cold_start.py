"""What each netelast command costs from a cold start: wall time, CPU time,
peak resident memory, and whether it imported scipy.

    python3 tools/cold_start.py

Every command runs in a fresh interpreter that imports netelast.cli from
this checkout's src/ and calls its main, as the netelast script does, with
one BLAS thread (as perfbench runs it), so a single-process command's CPU
time cannot exceed its wall time by BLAS threads.  The inputs are made by
the first three rows, `generate` runs writing BA-4096, grid 16x16 and
BA-100000 edge lists into a temporary directory.  BA-100000 (299,994
links) is at the scale of the paper's measured topologies, where loading
the file is most of a `metrics` run; once it is written, a copy under a
three-line SNAP-style `#` header, the form such topologies are published
in, is written beside it, so a second `metrics` row shows what a
commented file costs to load.  Wall time is taken around the whole
process, interpreter start included; CPU time adds the process's pool
workers; max RSS is the child's ru_maxrss, the largest resident set of it
or of any worker.  This script imports no numpy, so the few MB of its own
that a spawned child's ru_maxrss may inherit stay below any netelast
process's peak.  The rows run ROUNDS times, round-robin, so a drift of the
machine spreads over every row; the table gives each measured column's
median, the worst exit code, and whether any run loaded scipy.  Prints one
Markdown table; the whole run takes under a minute.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in the fresh interpreter: argv is [src, command...].  The command's
# own stdout is discarded; the measurements go to the real stdout.
CHILD = """
import contextlib, json, os, resource, sys
sys.path.insert(0, sys.argv[1])
import netelast.cli
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = netelast.cli.main(sys.argv[2:])
own, kids = (resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(json.dumps({"code": code,
                  "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
                  "max_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024,
                  "scipy": "scipy" in sys.modules}))
"""

ROUNDS = 3
SNAP_HEADER = ("# Undirected graph: ba-100000.txt\n# Nodes: 100000 Edges: 299994\n"
               "# FromNodeId\tToNodeId\n")
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SWEEP = ("--steps", "20", "--curve-out", "curve.csv", "--json-out", "result.json")
COMMANDS = (
    ("generate", "ba:4096:3:3", "-o", "ba-4096.txt"),
    ("generate", "grid:16:16", "-o", "grid-16.txt"),
    ("generate", "ba:100000:3:3", "-o", "ba-100000.txt"),
    ("metrics", "--input", "ba-4096.txt", "--json-out", "metrics.json"),
    ("metrics", "--input", "ba-100000.txt", "--json-out", "metrics.json"),
    ("metrics", "--input", "ba-100000-snap.txt", "--json-out", "metrics.json"),
    ("ndd", "--input", "ba-4096.txt", "--csv-out", "ndd.csv"),
    ("spectral", "--input", "grid-16.txt", "--full-spectrum", "--json-out", "spectrum.json"),
    ("elasticity", "--input", "ba-4096.txt", "--mode", "flow-ratio", *SWEEP),
    ("elasticity", "--input", "grid-16.txt", "--attack", "random-link", "--trials", "4",
     "--mode", "flow-ratio", "--jobs", "2", *SWEEP),
    ("scatter", "--input", "grid-16.txt", "--mode", "flow-ratio", "--csv-out", "scatter.csv"),
    ("elasticity", "--input", "grid-16.txt", "--jobs", "1", *SWEEP),
    ("elasticity", "--input", "grid-16.txt", *SWEEP),
    ("elasticity", "--input", "grid-16.txt", "--jobs", "2", *SWEEP),
)


def cold_run(argv: tuple[str, ...] | list[str], workdir: Path) -> dict:
    """Run one netelast command in a fresh interpreter in workdir: its exit
    code, wall and CPU seconds, max RSS in MB, and whether scipy loaded."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), *argv], cwd=workdir,
                          env={**os.environ, **BLAS_PIN}, capture_output=True, text=True,
                          check=True)
    wall = time.perf_counter() - start
    return {"wall_s": wall, **json.loads(done.stdout)}


def cold_round(workdir: Path) -> list[dict]:
    """One cold run of each command, in order, in workdir; the SNAP-style
    copy of BA-100000 is written as soon as BA-100000 is."""
    runs = []
    for argv in COMMANDS:
        runs.append(cold_run(argv, workdir))
        if argv[-1] == "ba-100000.txt":
            text = (workdir / "ba-100000.txt").read_text()
            (workdir / "ba-100000-snap.txt").write_text(SNAP_HEADER + text)
    return runs


def main() -> int:
    rows = ["| command | exit | wall_s | cpu_s | max_rss_mb | scipy |",
            "|---|---|---|---|---|---|"]
    with tempfile.TemporaryDirectory() as tmp:
        runs = [cold_round(Path(tmp)) for _ in range(ROUNDS)]
    failed = False
    for argv, row in zip(COMMANDS, zip(*runs)):
        code = max(r["code"] for r in row)
        failed |= code != 0
        wall, cpu, rss = (statistics.median(r[k] for r in row)
                          for k in ("wall_s", "cpu_s", "max_rss_mb"))
        shown = " ".join(argv[:-len(SWEEP)] if argv[-len(SWEEP):] == SWEEP else argv)
        rows.append(f"| `{shown}` | {code} | {wall:.3f} | {cpu:.3f} | {rss:.1f} | "
                    f"{'yes' if any(r['scipy'] for r in row) else 'no'} |")
    print("\n".join(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
