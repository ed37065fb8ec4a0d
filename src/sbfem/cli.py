"""Command-line driver: eigen-mode dumps, interpolation and Galerkin runs,
and convergence studies reproducing the reference tables."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import mesh as mesh_mod
from .errors import ConfigError, SbfemError
from .modes import eigenvalue_rows
from .polyspace import MAX_DEGREE
from .postproc import (EXACT_SOLUTIONS, convergence_rates, get_exact,
                       report_to_csv, solution_errors)
from .solver import (DIRICHLET_METHODS, apply_dirichlet, assemble_global,
                     build_operators, sbfem_interpolate, solve)

MESH_FAMILIES = {
    # name: (generator(n), level -> n), for levels >= 1
    "quad": (mesh_mod.gen_quad_mesh, lambda lev: 2 ** (lev + 1)),
    "polygon-case1": (mesh_mod.gen_polygon_case1, lambda lev: 2 ** lev),
    "hex": (mesh_mod.gen_hex_mesh, lambda lev: 2 ** lev),
    "polyhedron-case1": (mesh_mod.gen_polyhedron_case1, lambda lev: 2 ** (lev - 1)),
    "refined-square": (mesh_mod.gen_refined_square, lambda lev: 2 ** lev),
    "refined-cube": (mesh_mod.gen_refined_cube, lambda lev: 2 ** (lev - 1)),
    "singular": (mesh_mod.singular_open_selement, lambda lev: 2 ** (lev - 1)),
    "coupled-singular": (mesh_mod.gen_coupled_singular, lambda lev: lev),
    "single-square": (lambda n: mesh_mod.gen_quad_mesh(1), lambda lev: 1),
}


def build_mesh(name: str, level: int):
    if name.startswith("file:"):
        return mesh_mod.import_mesh(name[5:])
    try:
        gen, level_to_n = MESH_FAMILIES[name]
    except KeyError:
        raise ConfigError(f"unknown mesh '{name}'; choose from "
                          f"{sorted(MESH_FAMILIES)} or file:<path>") from None
    return gen(level_to_n(level))


# Each config key, and its flag: (default, accepted values, flag help).  Accepted:
# `str`; `list`: an integer >= 1, a strictly increasing list of them, "a..b" or
# "a,b,c"; or a sorted list of names.
OPTIONS = {
    "mesh": ("quad", str, "mesh family name or file:<path>"),
    "levels": ("1", list, "refinement level(s), e.g. 2, 1..4 or 1,2,3"),
    "k": ("1", list, "trace degree(s), e.g. 2 or 1..3"),
    "problem": ("exp2d", sorted(EXACT_SOLUTIONS), "exact solution registry name"),
    "output": (".", str, "output directory"),
    "bc": ("project", sorted(DIRICHLET_METHODS), "Dirichlet enforcement"),
}


def _check(key: str, value, accepts):
    """`value` as the run uses it, or a ConfigError naming `key`."""
    if accepts is list:
        out = value if isinstance(value, list) else [value]
        if isinstance(value, str):
            try:
                a, dots, b = value.partition("..")
                out = (list(range(int(a), int(b) + 1)) if dots
                       else [int(tok) for tok in value.split(",") if tok])
            except ValueError:
                raise ConfigError(f"{key} must be an integer, a list a,b,c or a range "
                                  f"a..b, got {value!r}") from None
        if not out:
            raise ConfigError(f"{key} must list at least one integer, got {value!r}")
        for v in [v for v in out if type(v) is not int or v < 1][:1]:
            raise ConfigError(f"{key} must be an integer >= 1, got {v!r}")
        if any(b <= a for a, b in zip(out, out[1:])):
            raise ConfigError(f"{key} must be strictly increasing, got {value!r}")
        return out
    ok, what = ((value in accepts, f"one of {accepts}") if isinstance(accepts, list)
                else (isinstance(value, str), "a string"))
    if not ok:
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sbfem",
        description="Scaled boundary finite elements for the Laplace equation")
    p.add_argument("command", choices=["modes", "interp", "solve", "convergence"])
    p.add_argument("--config", help="JSON config file; flags override its keys")
    for key, (default, _, text) in OPTIONS.items():
        p.add_argument("--" + key, default=None, help=f"{text} (default: {default})")
    return p


def load_config(args: argparse.Namespace) -> dict:
    given = {key: default for key, (default, _, _) in OPTIONS.items()}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(data) - set(OPTIONS) - {"command"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if data.get("command", args.command) != args.command:
            raise ConfigError(f"config {args.config} is for command "
                              f"'{data['command']}', not '{args.command}'")
        given.update(data)
    given.update({key: v for key in OPTIONS
                  if (v := getattr(args, key, None)) is not None})
    cfg = {key: _check(key, given[key], accepts)
           for key, (_, accepts, _) in OPTIONS.items()}
    cfg["command"] = args.command
    for where, one in (("modes", args.command == "modes"),
                       ("a file: mesh", cfg["mesh"].startswith("file:"))):
        if one and len(cfg["levels"]) > 1:
            raise ConfigError(f"levels must name one level for {where}, "
                              f"got {given['levels']!r}")
    for k in [k for k in cfg["k"] if k > MAX_DEGREE][:1]:
        raise ConfigError(f"k must be between 1 and {MAX_DEGREE}, got {k}")
    out = Path(cfg["output"])
    for p in [p for p in (out, *out.parents) if p.exists() and not p.is_dir()][:1]:
        raise ConfigError(f"output must be a directory, but {p} is not one")
    return cfg


def _run_one(cfg: dict, mesh, k: int, galerkin: bool):
    exact = get_exact(cfg["problem"])
    if exact.dim not in (0, mesh.dimension):
        raise ConfigError(f"problem '{exact.name}' is {exact.dim}D but mesh "
                          f"'{cfg['mesh']}' is {mesh.dimension}D")
    if galerkin:
        system = assemble_global(mesh, k)
        apply_dirichlet(system, exact.value,
                        facet_ids=exact.dirichlet_facets(mesh),
                        method=cfg["bc"])
        sol = solve(system)
    else:
        sol = sbfem_interpolate(mesh, k, exact.value)
    e_l2, e_h1 = solution_errors(sol, exact)
    return sol, e_l2, e_h1


def _write(path: Path, text: str):
    """Write one output file, making its directory first."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise SbfemError(f"cannot write output file {path}: {exc}") from None


def _eigen_csv(mesh, ops, out_dir: Path, tag: str):
    """One eigenvalue CSV per S-element, from the rows of its class."""
    text = ["re,im,selected\n" + "".join(f"{re:.5E},{im:.5E},{sel}\n" for re, im, sel
                                        in eigenvalue_rows(op.modes)) for op in ops]
    for e, c in enumerate(mesh._sel_class.tolist()):
        _write(out_dir / f"eigenvalues_{tag}_s{e}.csv", text[c])


def _mesh_tag(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-." else "_"
                   for c in Path(name).name)


def run(cfg: dict) -> int:
    out_dir = Path(cfg["output"])
    command = cfg["command"]
    if command == "modes":
        mesh = build_mesh(cfg["mesh"], cfg["levels"][0])
        for k in cfg["k"]:
            ops = build_operators(mesh, mesh_mod.number_dofs(mesh, k))
            _eigen_csv(mesh, ops, out_dir, f"{_mesh_tag(cfg['mesh'])}_k{k}")
            lam = np.sort_complex(ops[0].modes.lambdas)
            print(f"mesh={cfg['mesh']} k={k}: selected exponents "
                  + ", ".join(f"{v.real:.6g}{v.imag:+.2g}j" if abs(v.imag) > 1e-12
                              else f"{v.real:.6g}" for v in lam))
        return 0
    galerkin = command == "solve" or command == "convergence"
    meshes = {}   # each level's mesh, shared by every k
    for k in cfg["k"]:
        rows = []
        for lev in cfg["levels"]:
            meshes[lev] = meshes.get(lev) or build_mesh(cfg["mesh"], lev)
            sol, e_l2, e_h1 = _run_one(cfg, meshes[lev], k, galerkin)
            rows.append((lev, 2.0 ** (-lev), sol.n_dofs, e_l2, e_h1))
            print(f"{command} mesh={cfg['mesh']} problem={cfg['problem']} "
                  f"k={k} level={lev}: dof={sol.n_dofs} e_l2={e_l2:.5E} "
                  f"e_h1={e_h1:.5E}")
        rates = convergence_rates(rows)
        name = f"{command}_{cfg['problem']}_{_mesh_tag(cfg['mesh'])}_k{k}.csv"
        _write(out_dir / name, report_to_csv(rows, rates))
        if len(rows) > 1:
            print(f"  rates (last two levels): l2={rates[0]:.3f} "
                  f"h1={rates[1]:.3f} -> {out_dir / name}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args)
        return run(cfg)
    except ConfigError as exc:
        print(f"sbfem: config error: {exc}", file=sys.stderr)
        return 2
    except SbfemError as exc:
        print(f"sbfem: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
