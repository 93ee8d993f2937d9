import json
import os
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netelast import load_edge_list
from netelast.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_elasticity_star_flow_ratio(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "elasticity", "--generate", "star:5", "--attack", "degree",
        "--steps", "4", "--mode", "flow-ratio", "--outdir", str(tmp_path),
    )
    assert code == 0
    assert "area=10" in out and "E=0.125" in out
    curve = (tmp_path / "star-5_curve.csv").read_text()
    lines = curve.strip().splitlines()
    assert lines[0] == "percent_remaining,throughput"
    assert lines[1] == "100.000000,1.000000"
    assert lines[-1] == "20.000000,0.000000"
    payload = json.loads((tmp_path / "star-5_result.json").read_text())
    assert payload["elasticity"] == pytest.approx(0.125, rel=1e-12)
    assert payload["config"]["attack"] == "degree"
    assert payload["trials"] == 1


def test_elasticity_echoes_whole_config(tmp_path, capsys):
    path = tmp_path / "p5.txt"
    path.write_text("0 1\n1 2\n2 3\n3 4\n")
    runs = [
        # the degree attack runs once whatever --trials asks
        (["--input", str(path), "--attack", "degree", "--trials", "5", "--static-degree",
          "--mode", "flow-ratio", "--seed", "3", "--steps", "4", "--max-removal", "0.6",
          "--label", "p5-static"],
         {"input": str(path), "generate": None, "label": "p5-static", "attack": "degree",
          "mode": "flow-ratio", "trials": 1, "seed": 3, "steps": 4,
          "max_removal_fraction": 0.6, "static_degree": True}),
        # random attacks default to 20 trials
        (["--generate", "star:6", "--attack", "random-link", "--steps", "5"],
         {"input": None, "generate": "star:6", "label": "star-6", "attack": "random-link",
          "mode": "bottleneck", "trials": 20, "seed": 42, "steps": 5,
          "max_removal_fraction": 0.8, "static_degree": False}),
    ]
    for argv, config in runs:
        json_path = tmp_path / "result.json"
        code, _, _ = run(capsys, "elasticity", *argv, "--json-out", str(json_path),
                         "--outdir", str(tmp_path))
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["config"] == config
        assert payload["trials"] == config["trials"]


def test_elasticity_deterministic_outputs(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _, _ = run(
            capsys,
            "elasticity", "--generate", "ba:60:3:3", "--attack", "random-node",
            "--trials", "3", "--seed", "42", "--steps", "10",
            "--mode", "flow-ratio", "--outdir", str(d),
        )
        assert code == 0
    name_c, name_j = "ba-60-3-3_curve.csv", "ba-60-3-3_result.json"
    assert (dirs[0] / name_c).read_bytes() == (dirs[1] / name_c).read_bytes()
    assert (dirs[0] / name_j).read_bytes() == (dirs[1] / name_j).read_bytes()


def test_elasticity_missing_input(tmp_path, capsys):
    code, _, err = run(capsys, "elasticity", "--input", str(tmp_path / "missing.txt"))
    assert code != 0
    assert "error:" in err


def test_elasticity_from_file(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("0 1\n1 2\n")
    code, out, _ = run(
        capsys,
        "elasticity", "--input", str(path), "--attack", "degree",
        "--steps", "2", "--max-removal", "0.67", "--mode", "flow-ratio",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "p3_result.json").exists()


@pytest.mark.parametrize("text", ["0 1\n1 2\n2 0\n2 3\n", "# triangle and a tail\n0 1\n1 2\n2 0\n2 3\n"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run(capsys, "metrics", "--input", str(marked)) == run(capsys, "metrics", "--input", str(plain))
    # only a leading mark: one on a later line is still a bad id
    marked.write_text(text.replace("1 2", "\ufeff1 2"), encoding="utf-8")
    code, _, err = run(capsys, "metrics", "--input", str(marked))
    line = 1 + text.splitlines().index("1 2")
    assert code == 1 and f"error: line {line}: node ids must be nonnegative integers" in err


def test_requires_exactly_one_source(capsys):
    with pytest.raises(SystemExit):
        main(["elasticity", "--generate", "star:5", "--input", "x.txt"])
    with pytest.raises(SystemExit):
        main(["elasticity"])


def test_spectral_wheel_json(capsys):
    code, out, _ = run(capsys, "spectral", "--generate", "wheel:6")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 6 and payload["m"] == 10
    assert payload["lambda2"] == pytest.approx(2.381966, abs=1e-4)
    assert "spectrum" not in payload


def test_spectral_full_spectrum_to_file(tmp_path, capsys):
    out_path = tmp_path / "spectrum.json"
    code, out, _ = run(
        capsys, "spectral", "--generate", "complete:5",
        "--full-spectrum", "--json-out", str(out_path),
    )
    assert code == 0
    assert "lambda2=5" in out
    payload = json.loads(out_path.read_text())
    assert payload["spectrum"] == pytest.approx([0, 5, 5, 5, 5], abs=1e-8)


def test_metrics_complete4(capsys):
    code, out, _ = run(capsys, "metrics", "--generate", "complete:4")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 4, "m": 6, "max_degree": 3, "avg_degree": 3.0, "r": "undefined"}


def test_metrics_star_r(capsys):
    code, out, _ = run(capsys, "metrics", "--generate", "star:6")
    payload = json.loads(out)
    assert payload["r"] == pytest.approx(-1.0, abs=1e-9)


def test_ndd_csv(capsys):
    code, out, _ = run(capsys, "ndd", "--generate", "star:5")
    assert code == 0
    assert out.splitlines() == [
        "degree,count,fraction",
        "1,4,0.800000",
        "4,1,0.200000",
    ]


def test_generate_round_trip(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, _, _ = run(capsys, "generate", "ba:200:3:3", "--seed", "7", "-o", str(path))
    assert code == 0
    from netelast import generate

    g = generate("scale_free_ba", (200, 3, 3), seed=7)
    again = load_edge_list(path.read_text())
    assert again.n == g.n and again.edges == g.edges


def test_generate_stdout(capsys):
    code, out, _ = run(capsys, "generate", "path:3")
    assert code == 0
    assert out == "0 1\n1 2\n"


def test_scatter_csv(tmp_path, capsys):
    out_path = tmp_path / "scatter.csv"
    code, _, _ = run(
        capsys,
        "scatter", "--generate", "star:12", "--generate", "grid:4:4",
        "--attack", "degree", "--steps", "10", "--mode", "flow-ratio",
        "--csv-out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "graph_label,r,E"
    assert len(lines) == 3
    assert lines[1].startswith("star-12_-1.000,-1.000000,")
    grid_label = lines[2].split(",")[0]
    assert grid_label.startswith("grid-4-4_")


def test_scatter_needs_a_graph(capsys):
    code, _, err = run(capsys, "scatter", "--attack", "degree")
    assert code == 1
    assert "error:" in err


def test_bad_generator_spec(capsys):
    code, _, err = run(capsys, "metrics", "--generate", "moebius:5")
    assert code == 1
    assert "error:" in err


def test_trials_and_jobs_below_one_exit_1(tmp_path, capsys):
    outputs = {
        "elasticity": ["--outdir", str(tmp_path)],
        "scatter": ["--csv-out", str(tmp_path / "scatter.csv")],
    }
    for command, output in outputs.items():
        for flag in ("--trials", "--jobs"):
            code, _, err = run(
                capsys,
                command, "--generate", "path:5", "--attack", "degree",
                flag, "0", "--steps", "2", *output,
            )
            assert code == 1, (command, flag)
            assert f"{flag[2:]} must be >= 1" in err
    assert not list(tmp_path.iterdir())


def test_negative_seed_of_an_attack_exits_1(tmp_path, capsys):
    # the degree attack draws nothing from its seed, but echoes it
    outputs = {
        "elasticity": ["--outdir", str(tmp_path)],
        "scatter": ["--csv-out", str(tmp_path / "scatter.csv")],
    }
    for command, output in outputs.items():
        for attack in ("degree", "random-node", "random-link"):
            code, _, err = run(
                capsys,
                command, "--generate", "grid:4:4", "--attack", attack,
                "--seed", "-1", "--trials", "2", "--steps", "2", *output,
            )
            assert code == 1, (command, attack)
            assert "error: seed must be nonnegative, got -1" in err
    assert not list(tmp_path.iterdir())


def test_negative_seed_of_a_seeded_generator_exits_1(tmp_path, capsys):
    runs = [["generate", "ba:50:3:3", "-o", str(tmp_path / "g.txt")]]
    for spec in ("ba:50:3:3", "er:30:0.2"):
        runs += [
            ["elasticity", "--generate", spec, "--attack", "degree", "--steps", "2",
             "--outdir", str(tmp_path)],
            ["scatter", "--generate", spec, "--attack", "degree", "--steps", "2",
             "--csv-out", str(tmp_path / "scatter.csv")],
            ["spectral", "--generate", spec],
            ["metrics", "--generate", spec],
            ["ndd", "--generate", spec],
        ]
    for argv in runs:
        code, out, err = run(capsys, *argv, "--seed", "-5")
        assert code == 1, argv
        assert not out and "error: seed must be nonnegative, got -5" in err
    assert not list(tmp_path.iterdir())


def test_failed_write_leaves_no_temporary_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    target.mkdir()  # the final rename onto a directory fails
    code, _, err = run(capsys, "metrics", "--generate", "star:5", "--json-out", str(target))
    assert code == 1 and "error:" in err
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_readme_command_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [line for line in block.splitlines() if line.startswith("netelast ")]
    assert len(commands) >= 9
    for line in commands:
        build_parser().parse_args(shlex.split(line.removeprefix("netelast ")))


@pytest.mark.parametrize("mode", ["bottleneck", "flow-ratio"])
@pytest.mark.parametrize("attack", ["degree", "random-node", "random-link"])
@settings(max_examples=5, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=30),
    seed=st.integers(0, 1000),
)
# graphs of 1 and 3 nodes and no links, whose samples all cost nothing
@example(pairs=[(0, 0)], seed=0)
@example(pairs=[(0, 0), (1, 1), (2, 2)], seed=0)
def test_jobs_never_change_output_bytes(attack, mode, pairs, seed):
    # few examples: every --jobs above 1 starts a process pool
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in pairs))
        outputs = []
        # the last run passes no --jobs, so it takes the default
        for jobs in (["--jobs", "1"], ["--jobs", "2"], ["--jobs", "3"], []):
            outdir = Path(tmp) / f"jobs{len(outputs)}"
            code = main(["elasticity", "--input", str(path), "--attack", attack, "--mode", mode,
                         "--trials", "3", "--seed", str(seed), "--steps", "10",
                         *jobs, "--label", "g", "--outdir", str(outdir)])
            assert code == 0
            outputs.append([(outdir / name).read_bytes() for name in ("g_curve.csv", "g_result.json")])
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


def test_jobs_default_to_the_usable_cpus():
    args = build_parser().parse_args(["elasticity", "--generate", "grid:3:3"])
    assert args.jobs == len(os.sched_getaffinity(0))
