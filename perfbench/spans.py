"""Self-time spans around the public functions of each sbfem layer.

`Tracer.install()` replaces every public module-level function and every
public method of the classes defined in the eight layer modules with a
wrapper that records a span.  The wrapper is patched under every name a
caller resolves: the defining module, each module that imported the name,
module-level tables holding it (`cli.MESH_FAMILIES`), and the registered
exact solutions, whose callbacks count as `postproc.exact`.

While `active` is false the wrappers only call through.  A span's time is
charged to a key.  A call from another layer (or from the
benchmark) opens a new key named after the callee; a call from the same
layer is charged to the caller's key, so that `mesh.gen_quad_mesh` includes
`finalize` and `validate`.  The functions in STAGES always open their own
key.  Self time is a span's duration minus that of the spans it encloses.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("refgeom", "polyspace", "ematrix", "modes", "mesh", "solver",
          "postproc", "cli")
STAGES = {"solver.build_operators", "postproc.exact"}


class Tracer:
    def __init__(self):
        self.stack = []
        self.observers = {}
        self.originals = {}
        self.active = False
        self.reset()

    def reset(self):
        """Start a new pass: clear the per-pass aggregates."""
        self.self_s = defaultdict(float)    # key -> self time
        self.incl_s = defaultdict(float)    # key -> time of its outermost spans
        self.calls = Counter()              # function -> calls
        self.layer_of = {}                  # key -> layer
        self.notes = defaultdict(list)      # observer records

    def observe(self, name: str, fn):
        """Call fn(tracer, args, result) after each call of function `name`."""
        self.observers[name] = fn

    def wrap(self, fn, name: str, layer: str):
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if parent is None or parent[1] != layer or name in STAGES:
                key = name
            else:
                key = parent[0]
            frame = [key, layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                tracer.self_s[key] += dur - frame[2]
                tracer.calls[name] += 1
                tracer.layer_of[key] = layer
                if parent is not None:
                    parent[2] += dur
                if parent is None or parent[0] != key:
                    tracer.incl_s[key] += dur
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(tracer, args, result)
            return result

        return traced

    def install(self):
        """Patch every public function and method of the layer modules."""
        import sbfem

        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sbfem.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}.{attr}", layer)
                    self.originals[f"{layer}.{attr}"] = obj
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, Exception)):
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            setattr(obj, mname, self.wrap(
                                meth, f"{layer}.{obj.__name__}.{mname}", layer))
        modules = [sbfem] + [importlib.import_module(f"sbfem.{m}") for m in LAYERS]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if isinstance(v, tuple) and any(id(x) in wrapped for x in v):
                            obj[k] = tuple(wrapped.get(id(x), x) for x in v)
        postproc = importlib.import_module("sbfem.postproc")
        for name, sol in list(postproc.EXACT_SOLUTIONS.items()):
            postproc.EXACT_SOLUTIONS[name] = dataclasses.replace(
                sol, value=self.wrap(sol.value, "postproc.exact", "postproc"),
                gradient=self.wrap(sol.gradient, "postproc.exact", "postproc"))

    def layer_self(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, s in self.self_s.items():
            out[self.layer_of[key]] += s
        return out


# -- the traced run ---------------------------------------------------------------

RADIAL = "modes.SbfemModes.radial_complex"
ERROR_B = "ematrix.sector_B_many"   # keyed apart only when the errors call it
MESH_BUILDERS = ("mesh.import_mesh", "mesh.singular_open_selement")


def _observers(tracer: Tracer):
    def selements(t, args, result):
        t.notes["selements"].append(len(result))

    def radial(t, args, result):
        t.notes["radial_args"].append(tuple(args))

    def solved(t, args, result):
        t.notes["solutions"].append(result)
        t.notes["nnz"].append(args[0].K.nnz)

    def sector_points(t, args, result):
        t.notes["quad_points"].append(result[0].shape[0] * result[0].shape[1])

    def fe_points(t, args, result):
        t.notes["quad_points"].append(result[0].shape[0])

    tracer.observe("solver.build_operators", selements)
    tracer.observe("polyspace.radial_quadrature", radial)
    tracer.observe("solver.solve", solved)
    tracer.observe("solver.evaluate_in_sector", sector_points)
    tracer.observe("solver.evaluate_in_fe", fe_points)


def errors_time(s: dict, layer_of: dict) -> float:
    """Self time of error integration: postproc and what it calls for it."""
    return (sum(v for k, v in s.items() if layer_of[k] == "postproc")
            + s.get("solver.evaluate_in_sector", 0.0)
            + s.get("solver.evaluate_in_fe", 0.0) + s.get(RADIAL, 0.0)
            + s.get(ERROR_B, 0.0))


def assembly_time(s: dict, layer_of: dict) -> float:
    """Self time of E-matrices, eigen-solves, stiffness and build_operators."""
    return s.get("solver.build_operators", 0.0) + sum(
        v for k, v in s.items()
        if layer_of[k] in ("ematrix", "modes") and k not in (RADIAL, ERROR_B))


class PassMetrics:
    """Alternates untraced and traced passes and keeps the figures of each.

    Alternating puts both kinds of pass into the same stretches of machine
    load, so their difference, the tracing overhead, is not swamped by it.
    """

    LRU = ("polyspace.trace_basis", "polyspace.facet_quadrature")

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.rows = []
        self.untraced = []
        self.cases = {}
        self.lru_before = None
        self.solutions = []
        self.marks = []

    def _lru(self):
        infos = [self.tracer.originals[name].cache_info() for name in self.LRU]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def _totals(self):
        t = self.tracer
        return (dict(t.self_s), t.calls["modes.select_modes"],
                sum(t.notes["selements"]))

    def before(self):
        self.tracer.active = not self.tracer.active
        self.tracer.reset()
        self.lru_before = self._lru()
        self.marks = []

    def case_started(self, case: str):
        if self.tracer.active:
            self.marks.append((case, self._totals()))

    def _case_rows(self, case_s: dict) -> dict:
        """Errors and assembly shares and cache hits of each case of the pass."""
        row = {}
        ends = [totals for _, totals in self.marks[1:]] + [self._totals()]
        for (case, start), end in zip(self.marks, ends):
            delta = {k: v - start[0].get(k, 0.0) for k, v in end[0].items()}
            layer_of = self.tracer.layer_of
            row[f"case.{case}.share_errors"] = (errors_time(delta, layer_of)
                                                / case_s[case])
            row[f"case.{case}.share_assembly"] = (assembly_time(delta, layer_of)
                                                  / case_s[case])
            row[f"case.{case}.cache_hit_ratio"] = (
                1.0 - (end[1] - start[1]) / max(end[2] - start[2], 1))
        return row

    def after(self, wall: float, case_s: dict):
        t = self.tracer
        if not t.active:
            self.untraced.append(wall)
            for case, seconds in case_s.items():
                self.cases.setdefault(f"case.{case}_s", []).append(seconds)
            return
        s, c, incl, notes = t.self_s, t.calls, t.incl_s, t.notes
        layer = t.layer_self()
        hits, misses = (a - b for a, b in zip(self._lru(), self.lru_before))
        builders = [k for k in s if k.startswith("mesh.gen_") or k in MESH_BUILDERS]
        n_sel = sum(notes["selements"])
        eigensolves = c["modes.select_modes"]
        stage_errors = incl.get("postproc.solution_errors", 0.0)
        row = {
            "mesh.build_s": sum(s[k] for k in builders),
            "mesh.number_dofs_s": s.get("mesh.number_dofs", 0.0),
            "mesh.selements": n_sel,
            "refgeom.self_s": layer["refgeom"],
            "refgeom.calls": sum(v for k, v in c.items() if k.startswith("refgeom.")),
            "polyspace.self_s": layer["polyspace"],
            "polyspace.radial_quadrature_calls": c["polyspace.radial_quadrature"],
            "polyspace.radial_quadrature_distinct": len(set(notes["radial_args"])),
            "polyspace.lru_hit_ratio": hits / max(hits + misses, 1),
            "ematrix.assemble_E_s": s.get("ematrix.assemble_E", 0.0),
            "ematrix.assemble_E_calls": c["ematrix.assemble_E"],
            "modes.build_system_s": s.get("modes.build_system", 0.0),
            "modes.select_modes_s": s.get("modes.select_modes", 0.0),
            "modes.element_stiffness_s": s.get("modes.element_stiffness", 0.0),
            "modes.radial_complex_s": s.get(RADIAL, 0.0),
            "modes.eigensolves": eigensolves,
            "solver.build_operators_s": s.get("solver.build_operators", 0.0),
            "solver.assemble_global_s": s.get("solver.assemble_global", 0.0),
            "solver.apply_dirichlet_s": s.get("solver.apply_dirichlet", 0.0),
            "solver.solve_s": s.get("solver.solve", 0.0),
            "solver.evaluate_in_sector_s": s.get("solver.evaluate_in_sector", 0.0),
            "solver.evaluate_in_fe_s": s.get("solver.evaluate_in_fe", 0.0),
            "solver.cache_hit_ratio": 1.0 - eigensolves / max(n_sel, 1),
            "solver.evaluate_in_sector_calls": c["solver.evaluate_in_sector"],
            "solver.dofs": sum(sol.n_dofs for sol in notes["solutions"]),
            "solver.nnz": sum(notes["nnz"]),
            "postproc.solution_errors_s": s.get("postproc.solution_errors", 0.0),
            "postproc.exact_s": s.get("postproc.exact", 0.0),
            "postproc.quad_points": sum(notes["quad_points"]),
            "cli.run_s": layer["cli"],
            "stage.mesh_s": sum(incl[k] for k in builders),
            "stage.assemble_s": incl.get("solver.assemble_global", 0.0),
            "stage.dirichlet_s": incl.get("solver.apply_dirichlet", 0.0),
            "stage.solve_s": incl.get("solver.solve", 0.0),
            "stage.errors_s": stage_errors,
            "stage.errors_share": stage_errors / wall,
            "share.errors": errors_time(s, t.layer_of) / wall,
            "share.assembly": assembly_time(s, t.layer_of) / wall,
            "trace.wall_s": wall,
            "trace.unaccounted_s": wall - sum(s.values()),
        }
        for name in ("mesh", "ematrix", "modes", "solver", "postproc"):
            row[f"{name}.self_s"] = layer[name]
        for name in LAYERS:
            row[f"share.{name}"] = layer[name] / wall
        row.update(self._case_rows(case_s))
        self.rows.append(row)
        self.solutions = notes["solutions"]


def health(solutions) -> dict:
    """Worst numerical-health values over the S-elements of the solutions."""
    from sbfem.modes import element_stiffness

    ops = list({id(op.modes): op for sol in solutions
                for op in sol.operators}.values())
    return {
        "ematrix.cond_E11_max": max(op.E.condition_number() for op in ops),
        "modes.cond_A_max": max(op.modes.cond_A for op in ops),
        "modes.asymmetry_max": max(element_stiffness(op.modes).asymmetry
                                   for op in ops),
        "modes.lam_min_pos": min(op.modes.min_positive_exponent for op in ops),
        "solver.residual_max": max(sol.residual for sol in solutions),
    }


def traced_run(spec, root, workloads, tally, timed_loop) -> dict:
    """Alternate untraced and traced passes for the run's seconds.

    Per-layer figures are medians of the traced passes; the per-case times
    `case.<case>_s` are medians of the untraced ones.
    """
    import statistics

    tracer = Tracer()
    _observers(tracer)
    tracer.install()
    per_pass = PassMetrics(tracer)
    timed_loop(spec, root, workloads, tally, spec["seconds"], each=per_pass)
    tracer.active = False
    if not per_pass.rows or not per_pass.untraced:
        return {}
    out = {key: statistics.median(row[key] for row in per_pass.rows)
           for key in per_pass.rows[0]}
    out.update({key: statistics.median(v) for key, v in per_pass.cases.items()})
    out["trace.untraced_wall_s"] = statistics.median(per_pass.untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.passes"] = len(per_pass.rows)
    out.update(health(per_pass.solutions))
    return out
