import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sbfem import cli
from sbfem.cli import build_mesh, load_config, main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
# the BLAS thread count under which CSV_DIGESTS were recorded: interp-singular
# k = 4 prints another last digit with 1 (ROADMAP item 5)
PIN_BLAS_THREADS = 2
BLAS_DEPENDENT = {"interp-singular"}
# OPENBLAS_NUM_THREADS is read only by a numpy built on OpenBLAS, which caps
# it at the CPUs the process may use
NO_BLAS_PIN = not (
    "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    and len(os.sched_getaffinity(0)) >= PIN_BLAS_THREADS)
NO_BLAS_PIN_REASON = (f"needs an OpenBLAS numpy and {PIN_BLAS_THREADS} CPUs to run "
                      f"{PIN_BLAS_THREADS} BLAS threads")


def _in_child(args: list, blas_threads: int) -> subprocess.CompletedProcess:
    """Run python with `args` in a child process whose OpenBLAS uses
    `blas_threads` threads, importing `sbfem` from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path,
                                   OPENBLAS_NUM_THREADS=str(blas_threads)))


def test_modes_single_square(tmp_path, capsys):
    rc = main(["modes", "--mesh", "single-square", "--k", "1",
               "--output", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0, 1, 1, 2" in out.replace("-0", "0")
    csv = (tmp_path / "eigenvalues_single-square_k1_s0.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "re,im,selected"
    assert len(lines) == 9
    selected = [int(l.split(",")[2]) for l in lines[1:]]
    assert sum(selected) == 3


def test_solve_const_zero_errors(tmp_path, capsys):
    rc = main(["solve", "--mesh", "quad", "--levels", "1", "--k", "1",
               "--problem", "const", "--output", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "solve_const_quad_k1.csv").read_text()
    row = csv.strip().split("\n")[1].split(",")
    assert float(row[3]) < 1e-12
    assert float(row[4]) < 1e-12


def test_convergence_matches_reference_row(tmp_path):
    rc = main(["convergence", "--mesh", "quad", "--levels", "1..2", "--k", "2",
               "--problem", "exp2d", "--output", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "convergence_exp2d_quad_k2.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "level,h,dof,e_l2,e_h1"
    lev2 = lines[2].split(",")
    assert int(lev2[2]) == 225
    assert float(lev2[3]) == pytest.approx(1.68e-2, rel=0.02)
    assert float(lev2[4]) == pytest.approx(5.92e-1, rel=0.02)
    assert lines[3].startswith("# rate_l2=")


def test_unwritable_output_file_exits_1(tmp_path, capsys):
    # a directory stands where the CSV should go
    (tmp_path / "solve_const_quad_k1.csv").mkdir()
    rc = main(["solve", "--mesh", "quad", "--levels", "1", "--k", "1",
               "--problem", "const", "--output", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"sbfem: error: cannot write output file {tmp_path / 'solve_const_quad_k1.csv'}: ")


def test_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["convergence", "--mesh", "polygon-case1", "--levels",
                   "1..2", "--k", "1", "--problem", "exp2d",
                   "--output", str(out)])
        assert rc == 0
    f1 = (out1 / "convergence_exp2d_polygon-case1_k1.csv").read_bytes()
    f2 = (out2 / "convergence_exp2d_polygon-case1_k1.csv").read_bytes()
    assert f1 == f2


def test_sweep_builds_each_level_once(tmp_path, monkeypatch):
    # every k of a sweep shares the level's mesh
    built = []

    def counted(name, level):
        built.append(level)
        return build_mesh(name, level)

    monkeypatch.setattr(cli, "build_mesh", counted)
    rc = main(["convergence", "--mesh", "coupled-singular", "--levels", "1..3",
               "--k", "1..2", "--problem", "sqrt2d", "--output", str(tmp_path)])
    assert rc == 0 and built == [1, 2, 3]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"convergence_sqrt2d_coupled-singular_k{k}.csv" for k in (1, 2)]


def test_config_file_and_flag_override(tmp_path):
    cfg = {"mesh": "quad", "levels": [1], "k": "1", "problem": "const",
           "output": str(tmp_path / "cfg")}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    rc = main(["solve", "--config", str(path), "--output",
               str(tmp_path / "override")])
    assert rc == 0
    assert (tmp_path / "override" / "solve_const_quad_k1.csv").exists()
    assert not (tmp_path / "cfg").exists()


def test_shipped_configs_parse():
    import argparse
    for path in sorted(CONFIG_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        ns = argparse.Namespace(command=data.get("command", "solve"),
                                config=str(path))
        cfg = load_config(ns)
        assert cfg["mesh"]
        assert cfg["k"]
        build_mesh(cfg["mesh"], cfg["levels"][0])


def test_readme_key_table_matches_options():
    # README's key table lists each key of `cli.OPTIONS` once, in order, with
    # its flag and its default
    text = (CONFIG_DIR.parent / "README.md").read_text()
    head = "| key | flag | default | accepts |\n|---|---|---|---|\n"
    body = text[text.index(head) + len(head):].split("\n\n")[0]
    rows = [[c.strip() for c in line.strip("|").split("|")] for line in body.splitlines()]
    assert [row[0] for row in rows] == [f"`{key}`" for key in cli.OPTIONS]
    for (_, flag, cell, _), (key, (default, _, _)) in zip(rows, cli.OPTIONS.items()):
        assert (flag, cell) == (f"`--{key}`", f"`{default}`"), key


# each shipped config: command, mesh, levels, k, problem; every other key
# it leaves out takes its default
SHIPPED = {
    "coupled-singular": ("convergence", "coupled-singular", [1, 2, 3], [1, 2], "sqrt2d"),
    "hex": ("convergence", "hex", [1, 2], [1, 2], "exp3d"),
    "interp-cube": ("interp", "refined-cube", [1, 2, 3], [1, 2], "exp3d"),
    "interp-singular": ("interp", "singular", [1, 2, 3, 4], [1, 2, 3, 4], "sqrt2d"),
    "interp-square": ("interp", "refined-square", [1, 2, 3], [1, 2, 3, 4], "exp2d"),
    "polygon-case1": ("convergence", "polygon-case1", [1, 2, 3], [1, 2], "exp2d"),
    "polyhedron-case1": ("convergence", "polyhedron-case1", [1, 2], [1, 2], "exp3d"),
    "quad": ("convergence", "quad", [1, 2, 3, 4], [1, 2, 3], "exp2d"),
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_loads_to_its_full_dict(name):
    import argparse
    command, mesh, levels, k, problem = SHIPPED[name]
    cfg = load_config(argparse.Namespace(command=command,
                                         config=str(CONFIG_DIR / f"{name}.json")))
    assert cfg == {"command": command, "mesh": mesh, "levels": levels,
                   "k": k, "problem": problem, "output": f"results/{name}",
                   "bc": "project"}
    assert sorted(SHIPPED) == sorted(p.stem for p in CONFIG_DIR.glob("*.json"))


# sha256 (first 16 hex digits) of every CSV of each shipped config: the
# errors, rates and DOF counts as the CLI prints them may only move on purpose
CSV_DIGESTS = {
    "coupled-singular": {
        "convergence_sqrt2d_coupled-singular_k1.csv": "d839ff2b501bc33f",
        "convergence_sqrt2d_coupled-singular_k2.csv": "cee05178594930cf",
    },
    "hex": {
        "convergence_exp3d_hex_k1.csv": "11f88f55550ca9b2",
        "convergence_exp3d_hex_k2.csv": "dd13113c595c3017",
    },
    "interp-cube": {
        "interp_exp3d_refined-cube_k1.csv": "3ab3ebaaadd1fc14",
        "interp_exp3d_refined-cube_k2.csv": "eb993439a711134e",
    },
    "interp-singular": {
        "interp_sqrt2d_singular_k1.csv": "5156ad77fe432ae7",
        "interp_sqrt2d_singular_k2.csv": "8d6268510d823c14",
        "interp_sqrt2d_singular_k3.csv": "0c10ea2c34065d02",
        "interp_sqrt2d_singular_k4.csv": "b8efe3164d6a7016",
    },
    "interp-square": {
        "interp_exp2d_refined-square_k1.csv": "8ef837c13d0ccefb",
        "interp_exp2d_refined-square_k2.csv": "c5159235afb07d25",
        "interp_exp2d_refined-square_k3.csv": "67c253dee96b4863",
        "interp_exp2d_refined-square_k4.csv": "2c1d2b031249c413",
    },
    "polygon-case1": {
        "convergence_exp2d_polygon-case1_k1.csv": "3355334b32cf34ed",
        "convergence_exp2d_polygon-case1_k2.csv": "ec88618d2079eab1",
    },
    "polyhedron-case1": {
        "convergence_exp3d_polyhedron-case1_k1.csv": "a491ac3cde5354aa",
        "convergence_exp3d_polyhedron-case1_k2.csv": "438f0a223aa6915b",
    },
    "quad": {
        "convergence_exp2d_quad_k1.csv": "2b3b14f6e20cdfb5",
        "convergence_exp2d_quad_k2.csv": "e7e8f1018b1ec594",
        "convergence_exp2d_quad_k3.csv": "a4baa1f57ca4624f",
    },
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_csvs_are_pinned(name, tmp_path):
    # in a child process, so that the BLAS thread count is the recorded one
    # whatever the test session's
    if name in BLAS_DEPENDENT and NO_BLAS_PIN:
        pytest.skip(NO_BLAS_PIN_REASON)
    command = SHIPPED[name][0]
    run = _in_child(["-m", "sbfem.cli", command, "--config",
                     str(CONFIG_DIR / f"{name}.json"), "--output", str(tmp_path)],
                    PIN_BLAS_THREADS)
    assert run.returncode == 0, run.stderr
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in tmp_path.glob("*.csv")} == CSV_DIGESTS[name]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: the ill-conditioned eigenvectors of the singular mesh at "
    "level 4, k = 4 move its L2 error by 2.4e-6 relative between 1 and 2 "
    "BLAS threads"))
def test_blas_thread_count_leaves_the_errors_unchanged():
    if NO_BLAS_PIN:
        pytest.skip(NO_BLAS_PIN_REASON)
    code = """
from sbfem.cli import build_mesh
from sbfem.postproc import get_exact, solution_errors
from sbfem.solver import sbfem_interpolate
exact = get_exact("sqrt2d")
print(*map(repr, solution_errors(sbfem_interpolate(build_mesh("singular", 4), 4,
                                                   exact.value), exact)))
"""
    errors = []
    for blas_threads in (1, 2):
        run = _in_child(["-c", code], blas_threads)
        assert run.returncode == 0, run.stderr
        errors.append([float(e) for e in run.stdout.split()])
    assert errors[0] == pytest.approx(errors[1], rel=1e-10, abs=0.0)


def test_config_command_must_match(tmp_path, capsys):
    # interp-square.json names `interp`; running it as a Galerkin solve
    # would write a different CSV under the same study
    path = CONFIG_DIR / "interp-square.json"
    rc = main(["convergence", "--config", str(path), "--levels", "1",
               "--k", "1", "--output", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'interp'" in err and "'convergence'" in err
    assert not list(tmp_path.iterdir())
    assert main(["interp", "--config", str(path), "--levels", "1", "--k", "1",
                 "--output", str(tmp_path)]) == 0


def test_bad_config_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["solve", "--config", str(path)]) == 2
    path2 = tmp_path / "unknown.json"
    path2.write_text(json.dumps({"meshh": "quad"}))
    assert main(["solve", "--config", str(path2)]) == 2
    assert main(["solve", "--mesh", "quad", "--k", "0"]) == 2
    path3 = tmp_path / "list.json"
    path3.write_text(json.dumps([{"mesh": "quad"}]))
    capsys.readouterr()
    assert main(["solve", "--config", str(path3)]) == 2
    assert capsys.readouterr().err == ("sbfem: config error: config file must "
                                       "hold a JSON object\n")


def test_module_error_exit_1(tmp_path, capsys):
    rc = main(["solve", "--mesh", "nosuch", "--output", str(tmp_path)])
    assert rc == 2  # unknown mesh is a config problem
    rc = main(["solve", "--mesh", "file:/nonexistent.json",
               "--output", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_mesh_file_run(tmp_path):
    from conftest import save_mesh
    from sbfem.mesh import gen_quad_mesh
    mesh_path = tmp_path / "mesh.json"
    save_mesh(gen_quad_mesh(2), mesh_path)
    rc = main(["solve", "--mesh", f"file:{mesh_path}", "--k", "1",
               "--problem", "exp2d", "--output", str(tmp_path)])
    assert rc == 0
    files = list(tmp_path.glob("solve_exp2d_*.csv"))
    assert files


@pytest.mark.parametrize("command", ["interp", "solve", "modes"])
def test_mesh_file_without_selements_exit_1(tmp_path, capsys, command):
    mesh_path = tmp_path / "empty.json"
    mesh_path.write_text(json.dumps({"dimension": 2, "vertices": [[0, 0], [1, 0]],
                                     "selements": []}))
    rc = main([command, "--mesh", f"file:{mesh_path}", "--k", "1",
               "--output", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "sbfem: error: mesh file lists no S-elements")


@pytest.mark.parametrize("vertices,facets,culprit", [
    ([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1], [1, 1], [1, 2], [2, 3], [3, 0]],
     "S-element 0, facet (1, 1)"),
    ([[0, 0], [1, 0], [1e308, 1e308], [0, 1]], [[0, 1], [1, 2], [2, 3], [3, 0]],
     "S-element 0, facet (0, 1)")], ids=["repeated-id", "merged-corners"])
def test_repeated_facet_vertex_exit_1(tmp_path, capsys, vertices, facets, culprit):
    # a facet that lists one vertex twice, or two corners that the
    # vertex-merge rule joins (one corner at 1e308 stretches its tolerance
    # over the other three), is named by its S-element and its vertex ids
    # as the file lists them
    mesh_path = tmp_path / "mesh.json"
    mesh_path.write_text(json.dumps({"dimension": 2, "vertices": vertices,
                                     "selements": [{"facets": facets}]}))
    rc = main(["solve", "--mesh", f"file:{mesh_path}", "--k", "1",
               "--output", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"sbfem: error: {culprit}: facet vertex order (0, 0) is not a symmetry of "
        "the reference segment\n")


def test_mesh_error_at_1e308_warns_nothing(tmp_path):
    # the cone sign that turns each sector to face its centre is computed from
    # the offsets over the mesh extent: no product overflows, so a child
    # process that makes every RuntimeWarning an error prints the one line
    mesh_path = tmp_path / "mesh.json"
    mesh_path.write_text(json.dumps({
        "dimension": 2, "vertices": [[0, 0], [1, 0], [1e308, 1e308], [0, 1]],
        "selements": [{"facets": [[0, 1], [1, 2], [2, 3], [3, 0]]}]}))
    run = _in_child(["-W", "error::RuntimeWarning", "-m", "sbfem.cli", "solve",
                     "--mesh", f"file:{mesh_path}", "--k", "1",
                     "--output", str(tmp_path / "out")], 1)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == ("sbfem: error: S-element 0, facet (0, 1): facet vertex "
                          "order (0, 0) is not a symmetry of the reference segment\n")


@pytest.mark.parametrize("flags,message", [
    (["--k", "x"], "k must be an integer, a list a,b,c or a range a..b, got 'x'"),
    (["--k", "1.."], "k must be an integer, a list a,b,c or a range a..b, got '1..'"),
    (["--levels", "a"], "levels must be an integer, a list a,b,c or a range a..b, "
                        "got 'a'"),
    (["--k", "3..1"], "k must list at least one integer, got '3..1'"),
    (["--levels", "3..1"], "levels must list at least one integer, got '3..1'"),
    (["--k", "7..9"], "k must be between 1 and 8, got 9"),
    (["--k", "0"], "k must be an integer >= 1, got 0"),
    (["--levels", "-1"], "levels must be an integer >= 1, got -1"),
    (["--levels", "0..2"], "levels must be an integer >= 1, got 0"),
    (["--levels", "2,1"], "levels must be strictly increasing, got '2,1'"),
    (["--levels", "1,1"], "levels must be strictly increasing, got '1,1'"),
    (["modes", "--levels", "1..3"], "levels must name one level for modes, got '1..3'"),
], ids=["k-word", "k-open-range", "levels-word", "k-empty-range",
        "levels-empty-range", "k-above-max", "k-0", "levels-negative",
        "levels-from-0", "levels-decreasing", "levels-repeated", "modes-level-sweep"])
def test_malformed_flag_exit_2(tmp_path, capsys, flags, message):
    # a case that names no command runs `interp`
    command = [] if flags[0] == "modes" else ["interp"]
    rc = main(command + flags + ["--mesh", "quad", "--output", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"sbfem: config error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags,entry,message", [
    (["--levels", "0..2"], {"levels": 2}, "levels must be an integer >= 1, got 0"),
    ([], {"levels": [3, 1]}, "levels must be strictly increasing, got [3, 1]"),
    (["--bc", "foo"], {"bc": "nodal"}, "bc must be one of ['nodal', 'project'], "
                                       "got 'foo'"),
], ids=["levels-flag-over-key", "levels-key-decreasing", "bc-flag-over-key"])
def test_every_given_key_is_checked(tmp_path, capsys, flags, entry, message):
    # a flag that overrides a valid config key is checked, and gives the
    # config key's message
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict({"mesh": "quad"}, **entry)))
    rc = main(["interp", "--config", str(path), "--output", str(tmp_path / "out")]
              + flags)
    assert rc == 2
    assert capsys.readouterr() == ("", f"sbfem: config error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["modes", "solve", "convergence"])
def test_empty_level_sweep_exit_2(tmp_path, capsys, command):
    # every command refuses it when the config is loaded (`interp` above)
    rc = main([command, "--mesh", "quad", "--levels", "3..1", "--output",
               str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == ("sbfem: config error: levels must list at "
                                       "least one integer, got '3..1'\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("entry,message", [
    ({"k": 1.5}, "k must be an integer >= 1, got 1.5"),
    ({"k": True}, "k must be an integer >= 1, got True"),
    ({"levels": [1, "a"]}, "levels must be an integer >= 1, got 'a'"),
    ({"facet_order": 8}, "unknown config keys: ['facet_order']"),
    ({"radial_points": 20}, "unknown config keys: ['radial_points']"),
    ({"composite_levels": 8}, "unknown config keys: ['composite_levels']"),
    ({"level": 2}, "unknown config keys: ['level']"),
    ({"output": 5}, "output must be a string, got 5"),
    ({"mesh": 5}, "mesh must be a string, got 5"),
    ({"dump_eigenvalues": True}, "unknown config keys: ['dump_eigenvalues']"),
    ({"bc": "foo"}, "bc must be one of ['nodal', 'project'], got 'foo'"),
    ({"problem": 5}, "problem must be one of ['const', 'exp2d', 'exp3d', 'sqrt2d'], "
                     "got 5"),
    ({"problem": "nope"}, "problem must be one of ['const', 'exp2d', 'exp3d', "
                          "'sqrt2d'], got 'nope'"),
    ({"k": []}, "k must list at least one integer, got []"),
    ({"levels": []}, "levels must list at least one integer, got []"),
    ({"levels": ","}, "levels must list at least one integer, got ','"),
    ({"k": 9}, "k must be between 1 and 8, got 9"),
], ids=["k-float", "k-bool", "levels-word", "facet-order-key-removed",
        "radial-points-key-removed", "composite-levels-key-removed", "level-key-removed",
        "output-number", "mesh-number", "dump-eigenvalues-key-removed",
        "bc-unknown", "problem-number", "problem-unknown", "k-empty", "levels-empty",
        "levels-no-entry", "k-above-max"])
def test_malformed_config_value_exit_2(tmp_path, capsys, entry, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict({"mesh": "quad"}, **entry)))
    # a flag overrides the config's value, so the output case goes without one
    flags = [] if "output" in entry else ["--output", str(tmp_path / "out")]
    rc = main(["interp", "--config", str(path)] + flags)
    assert rc == 2
    assert capsys.readouterr().err == f"sbfem: config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--mesh", "nosuch"],
                                   ["--mesh", "quad", "--problem", "exp3d"]],
                         ids=["unknown-mesh", "problem-of-another-dimension"])
def test_config_error_writes_nothing(tmp_path, capsys, flags):
    # the output directory is made at the first file write
    rc = main(["solve", "--output", str(tmp_path / "o1")] + flags)
    assert rc == 2
    assert capsys.readouterr().err.startswith("sbfem: config error: ")
    assert not (tmp_path / "o1").exists()


@pytest.mark.parametrize("sub", ["", "sub"], ids=["existing-file", "under-a-file"])
def test_output_path_error_exit_2(tmp_path, capsys, sub):
    # refused at load time, before any level runs
    (tmp_path / "f1").write_text("")
    out = tmp_path / "f1" / sub
    rc = main(["solve", "--mesh", "quad", "--levels", "1", "--output", str(out)])
    assert rc == 2
    assert capsys.readouterr() == ("", "sbfem: config error: output must be a "
                                   f"directory, but {tmp_path / 'f1'} is not one\n")


def test_file_mesh_level_sweep_exit_2(tmp_path, capsys):
    # a file mesh has no levels: a sweep would solve it once per level
    from conftest import save_mesh
    from sbfem.mesh import gen_quad_mesh
    mesh_path = tmp_path / "mesh.json"
    save_mesh(gen_quad_mesh(2), mesh_path)
    rc = main(["solve", "--mesh", f"file:{mesh_path}", "--levels", "1..3",
               "--output", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr() == ("", "sbfem: config error: levels must name one "
                                   "level for a file: mesh, got '1..3'\n")
    assert not (tmp_path / "out").exists()
    assert main(["solve", "--mesh", f"file:{mesh_path}", "--levels", "2",
                 "--output", str(tmp_path / "out")]) == 0


def test_problem_of_another_dimension_exit_2(tmp_path, capsys):
    rc = main(["interp", "--mesh", "single-square", "--problem", "exp3d",
               "--output", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == ("sbfem: config error: problem 'exp3d' is 3D "
                                       "but mesh 'single-square' is 2D\n")


@pytest.mark.parametrize("command", ["interp", "solve"])
def test_non_finite_errors_exit_1(tmp_path, capsys, command):
    # exp2d overflows on gen_quad_mesh(2) scaled by 2^40: the interpolant's
    # error integrals and the Galerkin solve's residual are NaN
    from conftest import mesh_to_json
    from sbfem.mesh import gen_quad_mesh
    data = mesh_to_json(gen_quad_mesh(2))
    data["vertices"] = [[c * 2.0 ** 40 for c in v] for v in data["vertices"]]
    for entry in data["selements"]:
        entry["center"] = [c * 2.0 ** 40 for c in entry["center"]]
    mesh_path = tmp_path / "big.json"
    mesh_path.write_text(json.dumps(data))
    with np.errstate(all="ignore"):
        rc = main([command, "--mesh", f"file:{mesh_path}", "--k", "1",
                   "--problem", "exp2d", "--output", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == {
        "interp": "sbfem: error: error integrals against 'exp2d' are not finite: "
                  "[nan, nan]\n",
        "solve": "sbfem: error: solver residual nan exceeds 1e-10\n"}[command]
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("flags,entry,message", [
    (["--k", "2,2"], {}, "k must be strictly increasing, got '2,2'"),
    ([], {"k": [2, 1]}, "k must be strictly increasing, got [2, 1]"),
], ids=["k-flag-repeated", "k-key-decreasing"])
def test_flags_and_lists_go_through_the_key_check(tmp_path, capsys, flags, entry,
                                                 message):
    # every integer list increases strictly, from a flag as from a config value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict({"mesh": "quad"}, **entry)))
    rc = main(["interp", "--config", str(path), "--output", str(tmp_path / "out")]
              + flags)
    assert rc == 2
    assert capsys.readouterr() == ("", f"sbfem: config error: {message}\n")
    assert not (tmp_path / "out").exists()



def test_threads_option_is_gone(tmp_path, capsys):
    # a sweep runs its levels one after the other: a "threads" key is an
    # unknown key, and --threads an unknown flag
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"mesh": "quad", "threads": 2}))
    rc = main(["interp", "--config", str(path), "--output", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr() == ("", "sbfem: config error: unknown config keys: "
                                   "['threads']\n")
    rc = main(["interp", "--mesh", "quad", "--threads", "2",
               "--output", str(tmp_path / "out")])
    assert rc == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--facet-order", "8"], ["--radial-points", "20"],
                                   ["--composite-levels", "8"], ["--dump-eigenvalues"]],
                         ids=["facet-order", "radial-points", "composite-levels",
                              "dump-eigenvalues"])
def test_removed_flags_exit_2(tmp_path, capsys, flags):
    # the error rules are those of `solution_errors`, and eigenvalue CSVs come
    # from `sbfem modes`: each flag is an unknown one, and nothing is written
    rc = main(["convergence", "--mesh", "quad", "--output", str(tmp_path / "out")]
              + flags)
    assert rc == 2
    assert f"unrecognized arguments: {' '.join(flags)}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_examples_parse(tmp_path, monkeypatch):
    # every `sbfem ...` line of README's sh blocks, and every inline
    # `sbfem <command> ...`, loads its config with the flags the parser has
    import re
    import shlex
    text = (CONFIG_DIR.parent / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for line in block.splitlines() if line.startswith("sbfem ")]
    lines += re.findall(r"`(sbfem (?:modes|interp|solve|convergence)\b[^`]*)`", text)
    assert len(lines) >= 7
    monkeypatch.chdir(CONFIG_DIR.parent)
    for line in lines:
        args = cli._build_parser().parse_args(shlex.split(line)[1:]
                                              + ["--output", str(tmp_path)])
        assert load_config(args)["output"] == str(tmp_path), line
