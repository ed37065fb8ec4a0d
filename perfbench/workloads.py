"""The benchmark's workloads: inputs, one pass through the public pipeline,
and the checks every pass's outputs must pass.

Only the standard library is imported at module level, so that a worker
can start its set-up clock before `import sbfem` pulls in numpy and scipy.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

# Published reference-table entries (DOF count, L2 error, H1 error).
QUAD_L3_K3 = (1377, 2.95e-5, 3.19e-3)
HEX_L2_K2 = (665, 1.93e-4, 6.02e-3)
QUAD_L3_K2 = (833, 2.12e-3, 1.42e-1)
TABLE_RTOL = 0.02
STORED_RTOL = 1e-10

# A jittered 16 x 16 mesh has no table entry.  Its errors must lie within
# this factor band of the uniform-grid entry QUAD_L3_K2; seeds 0..39 at
# amplitude 0.18 give 1.07-1.25 (L2) and 1.06-1.21 (H1).
JITTER_N = 16
JITTER_AMPLITUDE = 0.18
JITTER_BAND = (0.9, 1.5)

# Coupled FE + open S-element sweep: reference H1 at levels 2 and 3 (5%),
# and the asymptotic (L2, H1) rates of the last two levels (within 0.15).
COUPLED_LEVELS = "1..4"
COUPLED_H1 = {1: {2: 5.54e-2, 3: 2.73e-2}, 2: {2: 4.23e-3, 3: 1.06e-3}}
COUPLED_RATES = {1: (2.0, 1.0), 2: (3.0, 2.0)}
COUPLED_H1_RTOL = 0.05
COUPLED_RATE_TOL = 0.15

# The four cases.  Each workload runs two of them, one after the other, in
# every pass: a pass then takes about 2 s and a run samples the machine for
# long enough to give a steady median.  `congruent` exercises the congruence
# cache and is dominated by error integration; `distinct` bypasses the cache,
# so per-element E-matrices and eigen-solves weigh more.
CASES = ("quad-k3", "hex-k2", "jittered-k2", "coupled-sweep")
WORKLOADS = {
    "congruent": (("quad-k3", "hex-k2"),
                  "structured quad k=3 and hex k=2 meshes: the congruence cache "
                  "answers all but 2 of 320 S-elements; error integration dominates"),
    "distinct": (("jittered-k2", "coupled-sweep"),
                 "seeded jittered quads k=2 and the coupled singular CLI sweep: "
                 "every S-element needs its own E-matrices and eigen-solve"),
}


def jittered_mesh_json(n: int, amplitude: float, seed: int) -> dict:
    """n x n quadrilateral S-elements on [-1,1]^2 with jittered interior vertices."""
    import numpy as np

    rng = np.random.default_rng(seed)
    xs = np.linspace(-1, 1, n + 1)
    vertices = []
    vid = {}
    for j in range(n + 1):
        for i in range(n + 1):
            p = np.array([xs[i], xs[j]])
            if 0 < i < n and 0 < j < n:
                p = p + rng.uniform(-amplitude, amplitude, 2) * (2.0 / n)
            vid[(i, j)] = len(vertices)
            vertices.append([float(p[0]), float(p[1])])
    sels = []
    for j in range(n):
        for i in range(n):
            loop = [vid[(i, j)], vid[(i + 1, j)], vid[(i + 1, j + 1)],
                    vid[(i, j + 1)]]
            sels.append({"facets": [[loop[t], loop[(t + 1) % 4]]
                                    for t in range(4)]})
    return {"dimension": 2, "vertices": vertices, "selements": sels}


def prepare_inputs(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's input files into `work`; returns the worker's spec."""
    spec = {"workload": workload, "seed": seed, "work": str(work)}
    if "jittered-k2" in WORKLOADS[workload][0]:
        path = work / "jittered.json"
        path.write_text(json.dumps(
            jittered_mesh_json(JITTER_N, JITTER_AMPLITUDE, seed)))
        spec["mesh_file"] = str(path)
    return spec


def _galerkin(mesh, k: int, problem: str) -> dict:
    from sbfem.postproc import get_exact, solution_errors
    from sbfem.solver import apply_dirichlet, assemble_global, solve

    exact = get_exact(problem)
    system = assemble_global(mesh, k)
    apply_dirichlet(system, exact.value, facet_ids=exact.dirichlet_facets(mesh),
                    method="project")
    sol = solve(system)
    e_l2, e_h1 = solution_errors(sol, exact)
    return {"dof": sol.n_dofs, "e_l2": e_l2, "e_h1": e_h1}


class Pass:
    """One pass over the workload's cases.

    `run()` is the timed part and records each case's time in `case_s`;
    it calls `on_case(case)`, when set, as each case starts.  Entering makes
    the CLI output directory and leaving removes it.
    """

    def __init__(self, spec: dict, root: Path):
        self.spec = spec
        self.root = root
        self.cases = WORKLOADS[spec["workload"]][0]
        self.out_dir = None
        self.results = {}
        self.case_s = {}
        self.on_case = None

    def __enter__(self):
        if "coupled-sweep" in self.cases:
            self.out_dir = tempfile.mkdtemp(dir=self.spec["work"])
        return self

    def __exit__(self, *exc):
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self):
        from sbfem import cli, mesh

        for case in self.cases:
            if self.on_case is not None:
                self.on_case(case)
            start = time.perf_counter()
            if case == "quad-k3":
                out = _galerkin(mesh.gen_quad_mesh(16), 3, "exp2d")
            elif case == "hex-k2":
                out = _galerkin(mesh.gen_hex_mesh(4), 2, "exp3d")
            elif case == "jittered-k2":
                out = _galerkin(mesh.import_mesh(self.spec["mesh_file"]),
                                2, "exp2d")
            else:
                out = {"rc": cli.main([
                    "convergence",
                    "--config", str(self.root / "configs" / "coupled-singular.json"),
                    "--levels", COUPLED_LEVELS, "--output", self.out_dir])}
            self.case_s[case] = time.perf_counter() - start
            self.results[case] = out

    def outputs(self) -> dict:
        out = dict(self.results)
        if self.out_dir is not None:
            out["coupled-sweep"]["csv"] = {
                p.name: p.read_text() for p in sorted(Path(self.out_dir).iterdir())}
        return out


def _rel(got: float, ref: float) -> float:
    return abs(got - ref) / abs(ref)


def _check_table(out: dict, table: tuple, label: str) -> list[str]:
    dof, l2, h1 = table
    bad = []
    if out["dof"] != dof:
        bad.append(f"{label}: dof {out['dof']} != {dof}")
    for key, ref in (("e_l2", l2), ("e_h1", h1)):
        if not _rel(out[key], ref) <= TABLE_RTOL:
            bad.append(f"{label}: {key} {out[key]:.4e} not within "
                       f"{TABLE_RTOL:.0%} of {ref:.2e}")
    return bad


def _check_stored(out: dict, stored: dict, label: str) -> list[str]:
    bad = []
    for key in ("e_l2", "e_h1"):
        if not _rel(out[key], stored[key]) <= STORED_RTOL:
            bad.append(f"{label}: {key} {out[key]!r} differs from the stored "
                       f"{stored[key]!r} by more than {STORED_RTOL:g} relative")
    return bad


def _check_coupled(out: dict) -> list[str]:
    if out["rc"] != 0:
        return [f"coupled-sweep: cli exit code {out['rc']}"]
    bad = []
    stored = {p.name: p.read_text()
              for p in sorted((REFERENCE / "coupled-sweep").iterdir())}
    if sorted(out["csv"]) != sorted(stored):
        return [f"coupled-sweep: CSV files {sorted(out['csv'])} != "
                f"{sorted(stored)}"]
    for name, text in out["csv"].items():
        if text != stored[name]:
            bad.append(f"coupled-sweep: {name} differs from the stored copy")
    for k, h1_ref in COUPLED_H1.items():
        name = f"convergence_sqrt2d_coupled-singular_k{k}.csv"
        lines = out["csv"][name].splitlines()
        rows = {int(r.split(",")[0]): float(r.split(",")[4])
                for r in lines[1:] if not r.startswith("#")}
        for level, ref in h1_ref.items():
            if not _rel(rows[level], ref) <= COUPLED_H1_RTOL:
                bad.append(f"coupled-sweep k={k} level {level}: H1 "
                           f"{rows[level]:.4e} not within 5% of {ref:.2e}")
        rates = dict(kv.split("=") for kv in lines[-1].lstrip("# ").split(","))
        for key, want in zip(("rate_l2", "rate_h1"), COUPLED_RATES[k]):
            if not abs(float(rates[key]) - want) <= COUPLED_RATE_TOL:
                bad.append(f"coupled-sweep k={k}: {key} {rates[key]} not "
                           f"within {COUPLED_RATE_TOL} of {want}")
    return bad


def _check_case(case: str, seed: int, out: dict, stored: dict) -> list[str]:
    if case == "coupled-sweep":
        return _check_coupled(out)
    if case == "quad-k3":
        return (_check_table(out, QUAD_L3_K3, case)
                + _check_stored(out, stored[case], case))
    if case == "hex-k2":
        return (_check_table(out, HEX_L2_K2, case)
                + _check_stored(out, stored[case], case))
    dof, l2, h1 = QUAD_L3_K2
    bad = [] if out["dof"] == dof else [f"{case}: dof {out['dof']} != {dof}"]
    lo, hi = JITTER_BAND
    for key, ref in (("e_l2", l2), ("e_h1", h1)):
        if not lo <= out[key] / ref <= hi:
            bad.append(f"{case}: {key} {out[key]:.4e} outside "
                       f"[{lo}, {hi}] x {ref:.2e}")
    if str(seed) in stored[case]:
        bad += _check_stored(out, stored[case][str(seed)], f"{case} seed {seed}")
    return bad


def check(workload: str, seed: int, outputs: dict) -> list[str]:
    """Failed checks of one pass's outputs; empty when all pass."""
    stored = json.loads((REFERENCE / "errors.json").read_text())
    return [msg for case in WORKLOADS[workload][0]
            for msg in _check_case(case, seed, outputs[case], stored)]
