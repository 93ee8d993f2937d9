import importlib.util
import json
import multiprocessing
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
TOOL = Path(__file__).resolve().parents[1] / "tools" / "cold_start.py"


def fresh(code: str, cwd: Path) -> dict:
    """Run code as a script, fresh.py in cwd, in a fresh interpreter that
    imports from src/; its last stdout line, read as JSON."""
    (cwd / "fresh.py").write_text(f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}")
    done = subprocess.run([sys.executable, "fresh.py"], cwd=cwd, capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_that_never_route_never_import_scipy(tmp_path):
    # import netelast.cli loads numpy and nothing else outside the
    # standard library, nor the process pool's modules, and no command
    # short of a route imports scipy
    seen = fresh("""
import json
before = set(sys.modules)
import netelast.cli
loaded = {m.split(".")[0] for m in set(sys.modules) - before}
third_party = sorted(loaded - set(sys.stdlib_module_names) - {"netelast", "__mp_main__"})
pool = sorted(loaded & {"concurrent", "multiprocessing"})
main = netelast.cli.main
assert main(["generate", "ba:300:3:3", "-o", "ba.txt"]) == 0
assert main(["generate", "grid:5:5", "-o", "grid.txt"]) == 0
assert main(["metrics", "--input", "ba.txt", "--json-out", "m.json"]) == 0
assert main(["ndd", "--input", "ba.txt", "--csv-out", "ndd.csv"]) == 0
assert main(["spectral", "--input", "grid.txt", "--json-out", "s.json"]) == 0
assert main(["elasticity", "--input", "ba.txt", "--mode", "flow-ratio", "--steps", "10"]) == 0
assert main(["elasticity", "--generate", "er:30:0.2", "--attack", "random-node",
             "--trials", "3", "--mode", "flow-ratio", "--jobs", "2", "--steps", "5"]) == 0
print(json.dumps({"third_party": third_party, "pool": pool, "scipy": "scipy" in sys.modules}))
""", tmp_path)
    assert seen == {"third_party": ["numpy"], "pool": [], "scipy": False}


def test_a_bottleneck_pool_starts_after_scipy_is_imported(tmp_path):
    # the workers fork from a parent that already holds scipy, so none of
    # them imports its own; a flow-ratio pool imports none at all.  Each
    # pool is planned on 2 usable CPUs, whatever the runner has, and mapped
    # in this process.
    seen = fresh(f"""
import concurrent.futures
import json
sys.path.insert(0, {str(Path(__file__).parent)!r})
from conftest import SpyPool
from netelast import averaged_elasticity, grid_graph, routing

pools = []

class Recorded(SpyPool):
    def __call__(self, *args, **kwargs):
        pools.append("scipy.sparse.csgraph" in sys.modules)
        return super().__call__(*args, **kwargs)

concurrent.futures.ProcessPoolExecutor = Recorded()
routing._usable_cpus = lambda: 2
g = grid_graph(4, 4)
averaged_elasticity(g, "random-link", trials=3, steps=4, mode="flow-ratio", jobs=2)
averaged_elasticity(g, "degree", steps=4, jobs=2)
print(json.dumps(pools))
""", tmp_path)
    assert seen == [False, True]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the platform has no fork")
def test_a_pool_forks_whatever_start_method_is_set(tmp_path):
    # a script that runs studies at top level, with no __main__ guard, gets
    # jobs=1's values at jobs=2 after set_start_method forces forkserver,
    # then spawn: the pool names fork, so no worker runs the script again
    # (under either method, one that did broke the pool).  Each pool is
    # planned on 2 usable CPUs, whatever the runner has.
    seen = fresh("""
import json
import multiprocessing
from netelast import averaged_elasticity, grid_graph, routing, scale_free_ba

routing._usable_cpus = lambda: 2
studies = [(grid_graph(6, 6), "degree", "bottleneck"),
           (scale_free_ba(64, 2, 2, seed=1), "random-node", "flow-ratio")]
same = {}
for method in ("forkserver", "spawn"):
    multiprocessing.set_start_method(method, force=True)
    for g, strategy, mode in studies:
        serial, parallel = (averaged_elasticity(g, strategy, trials=3, mode=mode, jobs=jobs)
                            for jobs in (1, 2))
        same[f"{method} {mode}"] = (parallel.result == serial.result
                                    and parallel.trial_curves == serial.trial_curves)
print(json.dumps(same))
""", tmp_path)
    assert seen == {f"{method} {mode}": True for method in ("forkserver", "spawn")
                    for mode in ("bottleneck", "flow-ratio")}


def load_tool():
    spec = importlib.util.spec_from_file_location("cold_start", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_cold_start_measures_fresh_commands(tmp_path):
    tool = load_tool()
    made = tool.cold_run(["generate", "wheel:8", "-o", "w.txt"], tmp_path)
    assert (tmp_path / "w.txt").read_text().startswith("0 1\n")
    routed = tool.cold_run(["elasticity", "--input", "w.txt", "--steps", "2"], tmp_path)
    for run in (made, routed):
        assert run["code"] == 0 and run["wall_s"] > 0 and run["cpu_s"] > 0 and run["max_rss_mb"] > 0
    assert (made["scipy"], routed["scipy"]) == (False, True)
    assert tool.cold_run(["metrics", "--input", "missing.txt"], tmp_path)["code"] == 1
