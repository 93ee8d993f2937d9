"""What each netelast command costs from a cold start: wall time, CPU time,
peak resident memory, and whether it imported scipy.

    python3 tools/cold_start.py

Every command runs once, in a fresh interpreter that imports netelast.cli
from this checkout's src/ and calls its main, as the netelast script does.
The inputs are made by the first two rows, `generate` runs writing BA-4096
and grid 16x16 edge lists into a temporary directory.  Wall time is taken
around the whole process, interpreter start included; CPU time adds the
process's pool workers; max RSS is the child's ru_maxrss, the largest
resident set of it or of any worker.  This script imports no numpy, so the
few MB of its own that a spawned child's ru_maxrss may inherit stay below
any netelast process's peak.  Prints one Markdown table; the whole run
takes a few seconds.
"""

from __future__ import annotations

import json
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

SWEEP = ("--steps", "20", "--curve-out", "curve.csv", "--json-out", "result.json")
COMMANDS = (
    ("generate", "ba:4096:3:3", "-o", "ba-4096.txt"),
    ("generate", "grid:16:16", "-o", "grid-16.txt"),
    ("metrics", "--input", "ba-4096.txt", "--json-out", "metrics.json"),
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
                          capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    return {"wall_s": wall, **json.loads(done.stdout)}


def main() -> int:
    rows = ["| command | exit | wall_s | cpu_s | max_rss_mb | scipy |",
            "|---|---|---|---|---|---|"]
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for argv in COMMANDS:
            r = cold_run(argv, Path(tmp))
            failed |= r["code"] != 0
            shown = " ".join(argv[:-len(SWEEP)] if argv[-len(SWEEP):] == SWEEP else argv)
            rows.append(f"| `{shown}` | {r['code']} | {r['wall_s']:.3f} | {r['cpu_s']:.3f} | "
                        f"{r['max_rss_mb']:.1f} | {'yes' if r['scipy'] else 'no'} |")
    print("\n".join(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
