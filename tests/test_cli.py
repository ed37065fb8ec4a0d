import json
from pathlib import Path

import pytest

from sbfem.cli import build_mesh, load_config, main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


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
    rc = main(["solve", "--mesh", "quad", "--level", "1", "--k", "1",
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


def test_threads_match_serial(tmp_path):
    outs = []
    for tag, threads in (("s", "1"), ("p", "3")):
        out = tmp_path / tag
        rc = main(["interp", "--mesh", "refined-square", "--levels", "1..3",
                   "--k", "2", "--problem", "exp2d", "--threads", threads,
                   "--output", str(out)])
        assert rc == 0
        outs.append((out / "interp_exp2d_refined-square_k2.csv").read_bytes())
    assert outs[0] == outs[1]


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


def test_dump_eigenvalues_flag(tmp_path):
    rc = main(["solve", "--mesh", "quad", "--level", "1", "--k", "1",
               "--problem", "const", "--output", str(tmp_path),
               "--dump-eigenvalues"])
    assert rc == 0
    files = sorted(tmp_path.glob("eigenvalues_quad_k1_l1_s*.csv"))
    assert len(files) == 16
    header = files[0].read_text().split("\n")[0]
    assert header == "re,im,selected"


def test_bad_config_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["solve", "--config", str(path)]) == 2
    path2 = tmp_path / "unknown.json"
    path2.write_text(json.dumps({"meshh": "quad"}))
    assert main(["solve", "--config", str(path2)]) == 2
    assert main(["solve", "--mesh", "quad", "--k", "0"]) == 2


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
