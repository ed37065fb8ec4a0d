import dataclasses
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import (complex_solution_errors, coupled_mixed_mesh, facet_vertices,
                      flat_sector_squares, force_contraction, hybrid_mesh,
                      interpolant, jittered_quad_mesh,
                      laplacian_residual, on_member_fields,
                      open_element_pinned_first, reference_solution_errors,
                      selement_views)
from sbfem import postproc, refgeom
from sbfem.errors import MeshError, QuadratureError, SbfemError
from sbfem.mesh import (gen_coupled_singular, gen_hex_mesh, gen_polygon_case1,
                        gen_polyhedron_case1, gen_quad_mesh,
                        gen_refined_square, import_mesh,
                        singular_open_selement)
from sbfem.polyspace import (TraceBasis, _basis_table, facet_quadrature,
                             radial_quadrature, trace_basis)
from sbfem.postproc import (EXACT_SOLUTIONS, convergence_rates, get_exact,
                            report_to_csv, solution_errors)
from sbfem.refgeom import FacetKind
from sbfem.solver import (apply_dirichlet, assemble_global, sbfem_interpolate,
                          solve)


def test_registered_solutions_are_harmonic(rng):
    pts2 = rng.uniform(-0.8, 0.8, (10, 2))
    pts2[:, 1] = np.abs(pts2[:, 1]) + 0.15      # keep sqrt2d off its cut
    pts3 = rng.uniform(0.1, 0.9, (10, 3))
    assert laplacian_residual(get_exact("exp2d"), pts2) < 1e-4
    assert laplacian_residual(get_exact("sqrt2d"), pts2) < 1e-4
    assert laplacian_residual(get_exact("exp3d"), pts3) < 1e-4
    assert laplacian_residual(get_exact("const"), pts2) < 1e-12


def test_gradients_match_values(rng):
    step = 1e-6
    for name in ("exp2d", "sqrt2d", "exp3d"):
        exact = EXACT_SOLUTIONS[name]
        d = 3 if name.endswith("3d") else 2
        pts = rng.uniform(0.2, 0.8, (8, d))
        g = exact.gradient(pts)
        for axis in range(d):
            e = np.zeros(d)
            e[axis] = step
            fd = (exact.value(pts + e) - exact.value(pts - e)) / (2 * step)
            assert np.abs(fd - g[:, axis]).max() < 1e-6 * (
                1 + np.abs(g).max()), name


def test_unknown_solution_rejected():
    with pytest.raises(SbfemError):
        get_exact("nope")


def test_sqrt2d_boundary_split():
    mesh = gen_coupled_singular(1)
    exact = get_exact("sqrt2d")
    dir_facets = set(exact.dirichlet_facets(mesh))
    for fid in mesh.boundary_facet_ids():
        mid = mesh.vertices[list(facet_vertices(mesh, fid))].mean(axis=0)
        if abs(mid[1]) < 1e-12 and mid[0] > 0:
            assert fid not in dir_facets
        else:
            assert fid in dir_facets


def test_constant_errors_zero():
    mesh = gen_quad_mesh(2)
    sol = sbfem_interpolate(mesh, 1, 1.0)
    exact = get_exact("const")
    e_l2, e_h1 = solution_errors(sol, exact)
    assert e_l2 < 1e-12
    assert e_h1 < 1e-12


@pytest.mark.parametrize("make,k,problem,dims", [
    (lambda: gen_hex_mesh(1), 2, "exp2d", "2D but the mesh is 3D"),
    (lambda: gen_quad_mesh(2), 1, "exp3d", "3D but the mesh is 2D")],
    ids=["hex-exp2d", "quad-exp3d"])
def test_exact_solution_of_another_dimension_is_named(make, k, problem, dims):
    # an SbfemError that names both dimensions, not a numpy error
    sol = sbfem_interpolate(make(), k, 1.0)
    with pytest.raises(SbfemError, match=f"^exact solution '{problem}' is {dims}$"):
        solution_errors(sol, get_exact(problem))


def test_convergence_rates():
    rows = [(1, 0.5, 25, 1.0, 2.0), (2, 0.25, 81, 0.25, 1.0),
            (3, 0.125, 289, 0.0625, 0.5)]
    assert convergence_rates(rows) == pytest.approx((2.0, 1.0))
    flat = [(1, 0.5, 25, 1.0, 1.0), (2, 0.25, 81, 1.0, 1.0)]
    assert convergence_rates(flat) == pytest.approx((0.0, 0.0))
    assert np.isnan(convergence_rates(rows[:1])).all()


def test_convergence_rates_reject_non_monotone():
    with pytest.raises(SbfemError, match=r"^DOF sequence \[100, 80\] is not increasing$"):
        convergence_rates([(1, 0.5, 100, 1.0, 1.0), (2, 0.25, 80, 0.5, 0.5)])
    with pytest.raises(SbfemError, match="^convergence table needs at least one level$"):
        convergence_rates([])


def test_csv_schema():
    rows = [(1, 0.5, 25, 1.2345678e-3, 6.543210e-1),
            (2, 0.25, 81, 3.0864195e-4, 3.2716050e-1)]
    lines = report_to_csv(rows, convergence_rates(rows)).strip().split("\n")
    assert lines[0] == "level,h,dof,e_l2,e_h1"
    assert lines[1] == "1,5.00000E-01,25,1.23457E-03,6.54321E-01"
    assert lines[-1] == "# rate_l2=2.00000E+00,rate_h1=1.00000E+00"
    # one level has no rate line
    assert report_to_csv(rows[:1], convergence_rates(rows[:1])).split("\n")[1:] == [
        "1,5.00000E-01,25,1.23457E-03,6.54321E-01", ""]


def test_quadrature_refinement_stability_smooth():
    exact = get_exact("exp2d")
    mesh = gen_quad_mesh(4)
    system = assemble_global(mesh, 2)
    apply_dirichlet(system, exact.value)
    sol = solve(system)
    base = solution_errors(sol, exact)
    fine = solution_errors(sol, exact, facet_order=16, radial_points=24)
    assert abs(fine[0] - base[0]) / base[0] < 1e-3
    assert abs(fine[1] - base[1]) / base[1] < 1e-3


def test_quadrature_stability_singular_extra_level():
    exact = get_exact("sqrt2d")
    mesh = gen_coupled_singular(2)
    system = assemble_global(mesh, 2)
    apply_dirichlet(system, exact.value, facet_ids=exact.dirichlet_facets(mesh))
    sol = solve(system)
    base = solution_errors(sol, exact)
    more = solution_errors(sol, exact, composite_levels=9)
    assert abs(more[0] - base[0]) / base[0] < 5e-3
    assert abs(more[1] - base[1]) / base[1] < 5e-3


def test_galerkin_energy_below_interpolant_nodal_bc():
    exact = get_exact("exp2d")
    for k in (1, 2):
        mesh = gen_quad_mesh(4)
        system = assemble_global(mesh, k)
        apply_dirichlet(system, exact.value, method="nodal")
        sol = solve(system)
        interp = interpolant(mesh, system.numbering, exact.value, system.operators)
        e_gal = solution_errors(sol, exact)[1]
        e_int = solution_errors(interp, exact)[1]
        assert e_gal <= e_int * (1 + 1e-9)


def test_interpolation_error_decay_singular_wedge():
    # open S-element interpolation of the square-root singular solution
    exact = get_exact("sqrt2d")
    errs = []
    for n in (1, 2, 4):
        mesh = singular_open_selement(n)
        sol = sbfem_interpolate(mesh, 2, exact.value)
        errs.append(solution_errors(sol, exact))
    rate_h1 = np.log2(errs[-2][1] / errs[-1][1])
    rate_l2 = np.log2(errs[-2][0] / errs[-1][0])
    assert rate_h1 == pytest.approx(2.0, abs=0.25)
    assert rate_l2 == pytest.approx(3.0, abs=0.35)


def _galerkin(mesh, k, problem):
    exact = get_exact(problem)
    system = assemble_global(mesh, k)
    apply_dirichlet(system, exact.value, facet_ids=exact.dirichlet_facets(mesh))
    return solve(system), exact


def tensor_quad_mesh(xs, ys):
    """Quadrilateral S-elements on the tensor grid of xs and ys."""
    n = len(xs)
    corners = (j * n + i for j in range(len(ys) - 1) for i in range(n - 1))
    return import_mesh({
        "dimension": 2, "vertices": [[x, y] for y in ys for x in xs],
        "selements": [{"facets": [[a, a + 1], [a + 1, a + n + 1],
                                  [a + n + 1, a + n], [a + n, a]]}
                      for a in corners]})


BATCH_CASES = {
    "quad-l1-k3": (lambda: gen_quad_mesh(4), 3, "exp2d"),
    # one class of 64 S-elements per facet position
    "quad-l2-k3": (lambda: gen_quad_mesh(8), 3, "exp2d"),
    # 27 S-elements per class, two member blocks at the default budget
    "hex-n3-k2": (lambda: gen_hex_mesh(3), 2, "exp3d"),
    "polygon-case1-n3-k2": (lambda: gen_polygon_case1(3), 2, "exp2d"),
    # cells of widths (1/2, 1/2, 1/2, 1) x heights (1/2, 1/2, 1): classes of
    # 6, 3, 2 and 1 S-elements in one pass
    "tensor-4x3-k2": (lambda: tensor_quad_mesh([-1, -0.5, 0, 0.5, 1.5],
                                               [-1, -0.5, 0, 1]), 2, "exp2d"),
    "hex-l1-k2": (lambda: gen_hex_mesh(2), 2, "exp3d"),
    "polygon-case1-l1-k2": (lambda: gen_polygon_case1(2), 2, "exp2d"),
    "polyhedron-case1-l1-k2": (lambda: gen_polyhedron_case1(1), 2, "exp3d"),
    "jittered-8x8-k2": (lambda: jittered_quad_mesh(8, 0.18), 2, "exp2d"),
    "coupled-singular-l2-k2": (lambda: gen_coupled_singular(2), 2, "sqrt2d"),
    # FE quads of two widths: two FE classes, both in one chunk
    "coupled-mixed-fe-k2": (coupled_mixed_mesh, 2, "sqrt2d"),
    # the side-face pin removes an early S-local DOF, not the last
    "open-pinned-first-k2": (open_element_pinned_first, 2, "sqrt2d"),
}


@pytest.mark.parametrize("one_sector_chunks", [False, True])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_errors_match_per_sector_reference(case, one_sector_chunks,
                                                   monkeypatch):
    if one_sector_chunks:
        monkeypatch.setattr(refgeom, "CHUNK_BUDGET", 1)
    make, k, problem = BATCH_CASES[case]
    sol, exact = _galerkin(make(), k, problem)
    got = solution_errors(sol, exact)
    expect = reference_solution_errors(sol, exact)
    assert got == pytest.approx(expect, rel=1e-12, abs=0.0)



@pytest.mark.parametrize("rules", [dict(facet_order=7), dict(radial_points=11),
                                   dict(composite_levels=2),
                                   dict(facet_order=9, radial_points=13,
                                        composite_levels=0)])
@pytest.mark.parametrize("case", ["quad-l1-k3", "coupled-singular-l2-k2",
                                  "polyhedron-case1-l1-k2"])
def test_error_rule_overrides_match_the_per_sector_reference(case, rules):
    # the facet order, radial points and composite levels of `solution_errors`,
    # on regular and singular classes
    make, k, problem = BATCH_CASES[case]
    sol, exact = _galerkin(make(), k, problem)
    assert solution_errors(sol, exact, **rules) == pytest.approx(
        reference_solution_errors(sol, exact, **rules), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rules,message", [
    (dict(facet_order=0), "quadrature order must be >= 1, got 0"),
    (dict(radial_points=0), "radial order must be >= 1, got 0"),
    (dict(radial_points=-1), "radial order must be >= 1, got -1")])
def test_error_rules_below_one_are_refused(rules, message):
    # 0 is no request for the default rule
    make, k, problem = BATCH_CASES["quad-l1-k3"]
    sol, exact = _galerkin(make(), k, problem)
    with pytest.raises(QuadratureError, match=f"^{message}$"):
        solution_errors(sol, exact, **rules)


@pytest.mark.parametrize("one_sector_chunks", [False, True])
def test_error_work_is_per_class(one_sector_chunks, monkeypatch):
    # radial factors once per congruence class, shared by its four facet
    # positions, however many chunks and member blocks they span
    if one_sector_chunks:
        monkeypatch.setattr(refgeom, "CHUNK_BUDGET", 1)
    rows = {"radial": 0}
    radial = postproc._radial_factors

    def counted_radial(xis, lambdas):
        rows["radial"] += len(lambdas)
        return radial(xis, lambdas)

    monkeypatch.setattr(postproc, "_radial_factors", counted_radial)
    counts = []
    for n in (4, 8):
        sol, exact = _galerkin(gen_quad_mesh(n), 3, "exp2d")
        rows.update(radial=0)
        solution_errors(sol, exact)
        counts.append(rows["radial"])
    assert counts == [1, 1]


@pytest.mark.parametrize("one_quad_chunks", [False, True])
def test_fe_geometry_is_per_fe_class(one_quad_chunks, monkeypatch):
    # J, J^-T grad N and det once per FE class in a chunk: the 96 FE quads of
    # coupled-singular level 3 are translates of one quad, in one chunk at
    # the default budget or in 96 of one quad each
    if one_quad_chunks:
        monkeypatch.setattr(refgeom, "CHUNK_BUDGET", 1)
    sol, exact = _galerkin(gen_coupled_singular(3), 2, "sqrt2d")
    rows, tangents = [], postproc._facet_tangents
    monkeypatch.setattr(postproc, "_facet_tangents", lambda kind, etas, v: (
        rows.append(len(v)), tangents(kind, etas, v))[1])
    got = solution_errors(sol, exact)
    assert len(sol.mesh._fe_class) == 96
    assert rows == [1] * (96 if one_quad_chunks else 1)
    assert got == pytest.approx(reference_solution_errors(sol, exact), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("make, problem", [
    (lambda: gen_coupled_singular(3), "sqrt2d"),
    (lambda: jittered_quad_mesh(8, 0.18), "exp2d")], ids=["coupled", "jittered"])
def test_error_tables_are_computed_once(make, problem, monkeypatch):
    # the radial factors of a class serve all its sector records, and the
    # basis table of a (facet kind, k, rule order) serves every pass
    mesh = make()
    sol, exact = _galerkin(mesh, 2, problem)
    rows, tables = [0], Counter()
    radial, eval_many = postproc._radial_factors, TraceBasis.eval_many

    def counted_radial(xis, lambdas):
        rows[0] += len(lambdas)
        return radial(xis, lambdas)

    def counted_eval(self, etas):
        tables[id(self), np.asarray(etas).tobytes()] += 1
        return eval_many(self, etas)

    monkeypatch.setattr(postproc, "_radial_factors", counted_radial)
    monkeypatch.setattr(TraceBasis, "eval_many", counted_eval)
    _basis_table.cache_clear()
    expect = solution_errors(sol, exact)
    assert solution_errors(sol, exact) == expect
    records = sum(len(o) for *_, o in mesh._stacks.values())
    assert rows[0] == 2 * len(sol.operators) < 2 * records
    assert tables and set(tables.values()) == {1}


@pytest.mark.parametrize("make, k, problem, rtol", [
    (lambda: gen_hex_mesh(4), 2, "exp3d", 1e-12),
    (lambda: gen_quad_mesh(8), 3, "exp2d", 1e-12),
    (lambda: gen_coupled_singular(3), 2, "sqrt2d", 1e-8)],
    ids=["hex-l2-k2", "quad-8x8-k3", "coupled-l3-k2"])
def test_energy_identity(make, k, problem, rtol):
    # SBFEM functions are gradient-orthogonal to those vanishing on the
    # skeleton, so the energy of u_h is u K u, the error against a constant
    # its quadrature.  The radial rule of a regular class integrates smooth
    # powers of xi to round-off; the open S-element's r^(-1/2) gradient is
    # integrated by a geometric composite rule, to about 1e-9 only.
    mesh = make()
    exact = get_exact(problem)
    system = assemble_global(mesh, k)
    apply_dirichlet(system, exact.value, facet_ids=exact.dirichlet_facets(mesh))
    sol = solve(system)
    energy = sol.nodal @ (system.K @ sol.nodal)
    h1 = solution_errors(sol, get_exact("const"))[1]
    assert abs(h1 ** 2 - energy) <= rtol * energy


def test_error_chunks_count_sector_arrays_only(monkeypatch):
    # the open S-element of coupled level 4, k = 2 (64 modes, a composite
    # radial rule of 108 points, 32 facets): its radial factors are made
    # once and broadcast over the sectors of a chunk, so only the per-sector
    # arrays fill the chunk budget
    sol, exact = _galerkin(gen_coupled_singular(4), 2, "sqrt2d")
    shapes = []
    on_member_fields(monkeypatch, lambda contraction, operands, coeffs: shapes.append(
        (contraction, operands[2].shape[-1], operands[0].shape[0])))
    solution_errors(sol, exact)
    assert 1 <= len(shapes) <= 4 and set(shapes) == {("coefficients", 64, 1)}


def test_coefficients_are_solved_once_per_class(monkeypatch):
    # one congruence class with quadrilateral and triangular sectors
    sol = sbfem_interpolate(hybrid_mesh(), 2, get_exact("exp3d").value)
    calls, linsolve = [], np.linalg.solve

    def counted(*args):
        calls.append(args[0].shape)
        return linsolve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    solution_errors(sol, get_exact("exp3d"))
    assert len(calls) == 1 and calls[0][0] == 1


@pytest.mark.parametrize("name", sorted(EXACT_SOLUTIONS))
def test_value_and_gradient_match_the_fields(name):
    # bit for bit, on sqrt2d's branch cut (y = 0, x < 0) and at the origin
    exact = EXACT_SOLUTIONS[name]
    d = 3 if name == "exp3d" else 2
    x = np.zeros((7, d))
    x[:, 0] = [0.0, -1.0, -0.25, 0.5, 0.3, -0.7, 1.0]
    x[4:, 1] = [0.2, -0.4, 0.0]
    with np.errstate(all="ignore"):
        value, gradient = exact.value_and_gradient(x)
        assert np.array_equal(value, exact.value(x), equal_nan=True)
        assert np.array_equal(gradient, exact.gradient(x), equal_nan=True)
    assert value.shape == (7,) and gradient.shape == (7, d)


VALUE_ONLY = {"exp2d": (lambda: gen_quad_mesh(2), "_exp2d"),
              "exp3d": (lambda: gen_hex_mesh(1), "_exp3d"),
              "sqrt2d": (lambda: gen_coupled_singular(1), "_sqrt2d")}


@pytest.mark.parametrize("name", sorted(VALUE_ONLY))
def test_value_only_callers_compute_no_gradient(name, rng, monkeypatch):
    # the registered value is the value of value_and_gradient, bit for bit,
    # and Dirichlet data and interpolation never ask for a gradient
    exact = get_exact(name)
    x = rng.uniform(-1.0, 1.0, (200, exact.dim))
    assert np.array_equal(exact.value(x), exact.value_and_gradient(x)[0])
    make, function = VALUE_ONLY[name]
    mesh, asked = make(), []
    field = getattr(postproc, function)
    monkeypatch.setattr(postproc, function, lambda x, gradient=True: (
        asked.append(gradient), field(x, gradient))[1])
    system = assemble_global(mesh, 2)
    for method in ("project", "nodal"):
        apply_dirichlet(system, exact.value, facet_ids=exact.dirichlet_facets(mesh),
                        method=method)
    sbfem_interpolate(mesh, 2, exact.value)
    assert asked and not any(asked)


@pytest.mark.parametrize("name", sorted(EXACT_SOLUTIONS))
def test_wave_tables_reproduce_their_point_functions(name, rng):
    # u = sum_k Im(a_k exp(kappa_k . x)) with kappa_k . kappa_k = 0, so that
    # each wave is harmonic; the table's value and gradient, by complex exp
    # here, match the closed forms to round-off (not bit for bit: kappa . x
    # sums in another order, and gives +0 where sin(pi * -0.0) is -0), so
    # the closed forms stay the Dirichlet data; sqrt2d and const have no table
    exact = EXACT_SOLUTIONS[name]
    if name in ("sqrt2d", "const"):
        assert exact.waves == ()
        return
    x = rng.uniform(-1.0, 1.0, (500, exact.dim))
    a, kappa = map(np.array, zip(*exact.waves))
    waves = a * np.exp(x @ kappa.T)
    expect = exact.value_and_gradient(x)
    for got, e in zip((waves.imag.sum(1), (waves[:, :, None] * kappa).imag.sum(1)), expect):
        assert got.shape == e.shape
        assert np.abs(got - e).max() <= 1e-14 * np.abs(e).max()
    assert kappa.shape[1] == exact.dim
    assert np.abs((kappa * kappa).sum(axis=1)).max() <= 1e-15 * (abs(kappa) ** 2).sum()


@pytest.mark.parametrize("make, k, problem, points", [
    (lambda: gen_quad_mesh(16), 3, "exp2d", False),
    (lambda: gen_hex_mesh(4), 2, "exp3d", False),
    (lambda: jittered_quad_mesh(8, 0.18), 2, "exp2d", True),
    (lambda: gen_coupled_singular(2), 2, "sqrt2d", True)],
    ids=["quad-l3-k3", "hex-l2-k2", "jittered-8x8-k2", "coupled-singular-l2-k2"])
def test_wave_columns_replace_the_member_points(make, k, problem, points,
                                                monkeypatch):
    # where every block contracts a mode basis, the exact solution's waves
    # are K more columns of it and value_and_gradient sees no S-element
    # point; singletons (coefficients first) and sqrt2d evaluate points
    sol, exact = _galerkin(make(), k, problem)
    seen, blocks = [], []
    counted = dataclasses.replace(exact, value_and_gradient=lambda x: (
        seen.append(len(x)), exact.value_and_gradient(x))[1])
    on_member_fields(monkeypatch, lambda *block: blocks.append(block))
    fe_points = len(sol.mesh._fe_class) * len(facet_quadrature(FacetKind.QUADRILATERAL,
                                                                2 * k + 4))
    got = solution_errors(sol, counted)
    assert (sum(seen) > fe_points) == points
    K = len(exact.waves)
    for contraction, operands, coeffs in blocks:
        if contraction == "basis" and K:
            B, kappa, a0 = operands
            assert kappa.shape == (K, sol.mesh.dimension)
            assert a0.shape == (len(coeffs), coeffs.shape[-1], sol.mesh.dimension)
            assert B.shape[-1] == coeffs.shape[1] + 2 * K
        else:
            assert len(operands) == (1 if contraction == "basis" else 3)
    # without its table, the same solution is evaluated at every point; at
    # quad l3 k3 the L2 error is 1.3e-6 of max |u|, so the two paths'
    # round-off differs by 5e-12 of it
    seen.clear()
    assert solution_errors(sol, dataclasses.replace(counted, waves=())) == \
        pytest.approx(got, rel=1e-10, abs=0.0)
    assert sum(seen) > fe_points


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_wave_columns_match_the_point_path(case):
    make, k, problem = BATCH_CASES[case]
    sol, exact = _galerkin(make(), k, problem)
    assert solution_errors(sol, exact) == pytest.approx(
        solution_errors(sol, dataclasses.replace(exact, waves=())), rel=1e-12, abs=0.0)


def test_exact_solutions_take_replaced_fields():
    # a tracer replaces value and gradient by wrappers of its own, and reads
    # the cache statistics of the trace basis and the facet rule
    for exact in EXACT_SOLUTIONS.values():
        traced = dataclasses.replace(exact, value=lambda x: exact.value(x) + 1.0,
                                     gradient=lambda x: 2.0 * exact.gradient(x))
        x = np.full((3, 3), 0.5)
        assert np.array_equal(traced.value(x), exact.value(x) + 1.0)
        assert np.array_equal(traced.gradient(x), 2.0 * exact.gradient(x))
        assert traced.value_and_gradient is exact.value_and_gradient
    for cached in (trace_basis, facet_quadrature):
        cached(FacetKind.SEGMENT, 2)
        hits = cached.cache_info().hits
        cached(FacetKind.SEGMENT, 2)
        assert cached.cache_info().hits == hits + 1


def test_degeneracy_is_checked_on_every_copy_near_the_threshold():
    # S-elements 0 and 1 would share one cache entry, so their bottom
    # sectors would form one class; registration checks every copy, so a
    # copy whose relative |J| (5e-15) is below 1e-14 fails the import
    # however healthy its representative (4e-14), and one above it passes
    with pytest.raises(MeshError, match=re.escape(
            "S-element 1 fails the star-shape check: facet (1, 2) is not "
            "fully visible")):
        import_mesh(flat_sector_squares(4e-14, 5e-15))
    mesh = import_mesh(flat_sector_squares(4e-14, 2e-14))
    sol, exact = _galerkin(mesh, 1, "exp2d")
    assert mesh._sel_class.tolist() == [0, 0] and len(sol.operators) == 1
    assert np.isfinite(solution_errors(sol, exact)).all()


def test_error_memory_is_bounded_by_the_chunk_budget():
    # classes of 216 S-elements; contracted whole, they peaked at 15 MB
    sol, exact = _galerkin(gen_hex_mesh(6), 2, "exp3d")
    tracemalloc.start()
    try:
        solution_errors(sol, exact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a member block holds a few arrays of about CHUNK_BUDGET complex entries
    assert peak < 16 * 16 * refgeom.CHUNK_BUDGET


def test_radial_rule_round_off_floor_is_plain_gauss():
    # lambda_min of a hex S-element is 1 up to round-off on either side
    sol, _ = _galerkin(gen_hex_mesh(2), 2, "exp3d")
    views = selement_views(sol)
    rules = postproc._radial_rules(views, range(len(views)), 2, 3, 12, None)
    for op, args in zip(views, rules):
        assert abs(op.modes.min_positive_exponent - 1.0) < 1e-12
        assert len(radial_quadrature(*args)) == 12
    open_op = sbfem_interpolate(singular_open_selement(1), 2, 0.0).operators[0]
    floor, n_rad, levels = postproc._radial_rules([open_op], [0], 2, 2, 12, None)[0]
    assert floor == pytest.approx(-0.5, abs=1e-3)
    assert levels == postproc.SINGULAR_COMPOSITE_LEVELS
    assert len(radial_quadrature(floor, n_rad, levels)) == 12 * (levels + 1)


def test_regular_radial_rule_follows_the_largest_exponent():
    # refined-square level 3, k=4: the largest exponent is about 76, far
    # beyond what the default 2k+8 = 16 Gauss points integrate exactly
    exact = get_exact("exp2d")
    sol = sbfem_interpolate(gen_refined_square(8), 4, exact.value)
    assert sol.operators[0].modes.lambdas.real.max() > 70
    got = solution_errors(sol, exact)
    dense = solution_errors(sol, exact, radial_points=100)
    assert got == pytest.approx(dense, rel=1e-9, abs=0.0)


def test_class_without_positive_exponent_names_its_representative():
    # of two such classes, the first in class order is named, by the lowest
    # S-element of the class
    mesh = tensor_quad_mesh([-1, -0.5, 0, 0.5, 1.5], [-1, -0.5, 0, 1])
    sol, exact = _galerkin(mesh, 2, "exp2d")
    classes = mesh._sel_class
    assert classes.max() == 3 and np.flatnonzero(classes == 1)[0] > 1
    for c in (2, 1):
        op = sol.operators[c]
        sol.operators[c] = dataclasses.replace(op, modes=dataclasses.replace(
            op.modes, lambdas=np.zeros_like(op.modes.lambdas)))
    rep = int(np.flatnonzero(classes == 1)[0])
    with pytest.raises(QuadratureError, match=re.escape(
            f"S-element {rep}: no positive exponent to set the radial "
            "quadrature floor")):
        solution_errors(sol, exact)


@pytest.mark.parametrize("make, k, problem, paired", [
    (lambda: gen_quad_mesh(4), 3, "exp2d", False),
    (lambda: gen_hex_mesh(4), 2, "exp3d", False),
    (lambda: gen_hex_mesh(3), 2, "exp3d", True),
    (lambda: gen_coupled_singular(3), 2, "sqrt2d", False),
    (lambda: gen_coupled_singular(4), 2, "sqrt2d", True),
    (lambda: jittered_quad_mesh(16, 0.18, seed=4111), 2, "exp2d", True)],
    ids=["quad-4x4-k3", "hex-l2-k2", "hex-n3-k2", "coupled-l3-k2", "coupled-l4-k2",
         "jittered-16x16-k2"])
def test_error_groups_are_real_unless_a_class_has_a_complex_exponent(
        make, k, problem, paired, monkeypatch):
    # a group without a complex exponent hands float64 trace blocks and
    # exponents to `_class_fields`, and float64 radial factors and class
    # fields to `_mode_basis` or `_coefficient_fields`; a group with a
    # conjugate pair keeps complex Z and T: the open S-element of coupled
    # level 4, k = 2 (Im 2.7), and round-off pairs (|Im| ~ 1e-15) of a
    # repeated real exponent in the hex n3 class (mode basis) and in some
    # jittered classes.  The coefficients are real either way.  `eig`
    # gives a real A for the all-real open S-element of coupled level 3
    sol, exact = _galerkin(make(), k, problem)
    seen = set()

    def spy(name, key):
        kernel = getattr(postproc, name)
        monkeypatch.setattr(postproc, name, lambda *args: (
            seen.add((name,) + key(*args)), kernel(*args))[1])

    spy("_class_fields", lambda table, J, alpha, lambdas: (
        alpha.dtype.kind, lambdas.dtype.kind, bool(lambdas.imag.any())))
    for name in ("_mode_basis", "_coefficient_fields"):
        spy(name, lambda Z, Z1, F, *rest: (Z.dtype.kind, Z1.dtype.kind, F.dtype.kind))
    on_member_fields(monkeypatch, lambda contraction, operands, coeffs:
                     seen.add(("coefficients", coeffs.dtype.kind)))
    solution_errors(sol, exact)
    groups = {key[1:] for key in seen if key[0] == "_class_fields"}
    fields = {key[1:] for key in seen if key[0] in ("_mode_basis", "_coefficient_fields")}
    real, pair = ("f", "f", False), ("c", "c", True)
    assert groups and groups <= {real, pair} and (pair in groups) == paired
    assert fields and fields <= {("f",) * 3, ("c",) * 3}
    assert (("c",) * 3 in fields) == paired
    assert {key for key in seen if key[0] == "coefficients"} == {("coefficients", "f")}


@pytest.mark.parametrize("contraction", ["basis", "coefficients"])
@pytest.mark.parametrize("one_sector_chunks", [False, True])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_errors_match_the_reference_with_either_contraction(
        case, one_sector_chunks, contraction, monkeypatch):
    # the contraction forced each way: every block contracts a mode basis,
    # or every block contracts its coefficients first
    if one_sector_chunks:
        monkeypatch.setattr(refgeom, "CHUNK_BUDGET", 1)
    taken = set()
    on_member_fields(monkeypatch, lambda contraction, *_: taken.add(contraction))
    force_contraction(monkeypatch, contraction)
    make, k, problem = BATCH_CASES[case]
    sol, exact = _galerkin(make(), k, problem)
    if contraction == "coefficients":     # no wave columns to route
        exact = dataclasses.replace(exact, waves=())
    got = solution_errors(sol, exact)
    assert taken == {contraction}
    assert got == pytest.approx(reference_solution_errors(sol, exact),
                                rel=1e-12, abs=0.0)


PAIRED_CASES = {
    # 13 round-off conjugate pairs among 256 singleton classes
    "jittered-16x16-k2": (lambda: jittered_quad_mesh(16, 0.18, seed=4111), 2, "exp2d"),
    # two conjugate pairs among the 64 modes of the open S-element
    "coupled-l4-k2": (lambda: gen_coupled_singular(4), 2, "sqrt2d"),
}


@pytest.mark.parametrize("contraction", [None, "basis", "coefficients"])
@pytest.mark.parametrize("one_sector_chunks", [False, True])
@pytest.mark.parametrize("case", sorted(BATCH_CASES) + sorted(PAIRED_CASES))
def test_realified_errors_match_the_complex_pass(case, one_sector_chunks,
                                                 contraction, monkeypatch):
    # the realified pass, as it chooses or forced each way, against the
    # complex modal pass of conftest; measured at most 7e-13 apart
    if one_sector_chunks:
        monkeypatch.setattr(refgeom, "CHUNK_BUDGET", 1)
    if contraction:
        force_contraction(monkeypatch, contraction)
    make, k, problem = {**BATCH_CASES, **PAIRED_CASES}[case]
    sol, exact = _galerkin(make(), k, problem)
    if contraction == "coefficients":
        exact = dataclasses.replace(exact, waves=())
    assert solution_errors(sol, exact) == pytest.approx(
        complex_solution_errors(sol, exact), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("make, k, width, complex_width", [
    (lambda: gen_hex_mesh(4), 2, 30, 56), (lambda: gen_quad_mesh(16), 3, 14, 26)],
    ids=["hex-k2", "quad-k3"])
def test_real_mode_basis_is_n_plus_2k_columns(make, k, width, complex_width,
                                              monkeypatch):
    # perfbench's structured cases: an all-real class of n modes (26 and
    # 12) and K plane waves (2 and 1) give a float64 mode basis of n + 2K
    # columns, which one real GEMM contracts; the complex basis read as
    # interleaved reals took 2 (n + K)
    exact = get_exact("exp3d" if k == 2 else "exp2d")
    sol = sbfem_interpolate(make(), k, exact.value)
    n, K = sol.operators[0].modes.n, len(exact.waves)
    bases = []
    on_member_fields(monkeypatch, lambda contraction, operands, coeffs:
                     bases.append((contraction, operands[0].dtype, operands[0].shape[-1],
                                   coeffs.dtype, coeffs.shape[1])))
    solution_errors(sol, exact)
    assert (n + 2 * K, 2 * (n + K)) == (width, complex_width)
    assert set(bases) == {("basis", np.dtype(float), width, np.dtype(float), n)}


@pytest.mark.parametrize("rules,name", [
    (dict(facet_order=8.0), "facet_order"), (dict(radial_points=12.9), "radial_points"),
    (dict(composite_levels=2.5), "composite_levels"),
    (dict(composite_levels="2"), "composite_levels")])
def test_error_rules_are_read_as_integers(rules, name):
    # by operator.index, like the facet ids of apply_dirichlet: no
    # truncation, no bare TypeError; numpy integers are integers
    make, k, problem = BATCH_CASES["coupled-singular-l2-k2"]
    sol, exact = _galerkin(make(), k, problem)
    value = next(iter(rules.values()))
    with pytest.raises(QuadratureError, match=re.escape(
            f"{name} must be an integer, got {value!r}")):
        solution_errors(sol, exact, **rules)
    whole = {name: np.int64(int(float(value)))}
    assert solution_errors(sol, exact, **whole) == solution_errors(
        sol, exact, **{name: int(float(value))})


@pytest.mark.parametrize("make, k, problem, basis", [
    (lambda: gen_quad_mesh(4), 3, "exp2d", True),
    (lambda: gen_hex_mesh(3), 2, "exp3d", True),
    (lambda: jittered_quad_mesh(8, 0.18), 2, "exp2d", False),
    (lambda: gen_coupled_singular(4), 2, "sqrt2d", False)],
    ids=["quad-4x4-k3", "hex-n3-k2", "jittered-8x8-k2", "coupled-l4-k2"])
def test_contraction_takes_the_smaller_intermediate(make, k, problem, basis,
                                                    monkeypatch):
    # a mode basis of R Q (1 + d) n entries per sector where a member block
    # has at least R members (16 quads against 14 radial points, blocks of
    # 18 hexes against 12), else the coefficients first: jittered singletons
    # and the open S-element of 108 radial points
    sol, exact = _galerkin(make(), k, problem)
    forms = []
    on_member_fields(monkeypatch, lambda contraction, *_: forms.append(contraction))
    solution_errors(sol, exact)
    assert forms and set(forms) == {"basis" if basis else "coefficients"}


@pytest.mark.parametrize("make, k, widths", [
    (lambda: gen_hex_mesh(4), 2, [64] * 6), (lambda: gen_quad_mesh(16), 3, [256] * 4),
    (lambda: gen_hex_mesh(8), 2, ([109] * 4 + [76]) * 6)],
    ids=["hex-l2-k2", "quad-l3-k3", "hex-l3-k2"])
def test_basis_blocks_are_sized_by_their_gemm_output(make, k, widths, monkeypatch):
    # a mode-basis member block is cut by its real GEMM output, s (1 + d) R
    # Q m reals, within 8 x CHUNK_BUDGET: one block per facet position for
    # hex l2 k2 (64 members x 1,200 reals) and quad l3 k3 (256 x 252), five
    # of up to 109 members per position for hex l3 k2 (512 members).
    # Blocks sized like the coefficient-first ones, by R Q d per member,
    # numbered 24, 12 and 174
    exact = get_exact("exp3d" if k == 2 else "exp2d")
    sol = sbfem_interpolate(make(), k, exact.value)
    blocks = []
    on_member_fields(monkeypatch, lambda contraction, operands, coeffs:
                     blocks.append((contraction, coeffs.shape[0], coeffs.shape[-1])))
    solution_errors(sol, exact)
    assert blocks == [("basis", 1, m) for m in widths]


def test_chunk_budget_is_pinned():
    # test_error_memory_is_bounded_by_the_chunk_budget and
    # test_mode_basis_memory_is_bounded_by_the_chunk_budget bound the peak
    # by 16 x 16 x CHUNK_BUDGET bytes: a larger budget would loosen both
    # quietly, so changing it must change this test too
    assert refgeom.CHUNK_BUDGET == 1 << 14


def test_production_radial_rules_reach_the_fine_rule_errors(monkeypatch):
    # refined-square level 3, k = 4 (a shipped config): the default rules
    # against a 60-point radial and a degree-30 facet rule read 5.0e-10
    # (H1) and 3.8e-8 (L2) apart; the old fixed 2k + 8 radial points of a
    # regular class read 1.9e-5 and 1.8e-5, which these bounds reject
    exact = get_exact("exp2d")
    sol = sbfem_interpolate(gen_refined_square(8), 4, exact.value)
    fine = np.array(solution_errors(sol, exact, radial_points=60, facet_order=30))

    def gap():
        return np.abs(np.array(solution_errors(sol, exact)) / fine - 1.0)

    bound = np.array([2e-7, 2e-9])          # (L2, H1)
    assert (gap() <= bound).all()
    rules = postproc._radial_rules
    monkeypatch.setattr(postproc, "_radial_rules", lambda ops, ids, k, d, points, levels: [
        (floor, n if floor < 0.0 else points, cells)
        for floor, n, cells in rules(ops, ids, k, d, points, levels)])
    assert (gap() > 50.0 * bound).all()


def test_representative_geometry_is_computed_once_per_pass(monkeypatch):
    # hex level 2, k = 2: one class of 64 members at 6 facet positions, one
    # chunk each; J(1,eta) and its inverse are made once for all 6
    sol, exact = _galerkin(gen_hex_mesh(4), 2, "exp3d")
    calls, jacobians, inverse = Counter(), postproc._sector_jacobians, postproc._inv

    def counted_jacobians(kind, etas, centres, vertices):
        calls["jacobians", len(centres)] += 1
        return jacobians(kind, etas, centres, vertices)

    def counted_inverse(J):
        calls["inverse", len(J)] += 1
        return inverse(J)

    monkeypatch.setattr(postproc, "_sector_jacobians", counted_jacobians)
    monkeypatch.setattr(postproc, "_inv", counted_inverse)
    solution_errors(sol, exact)
    assert calls == {("jacobians", 6): 1, ("inverse", 6): 1}


@pytest.mark.parametrize("make, k, basis", [
    (lambda: gen_hex_mesh(6), 2, True), (lambda: gen_hex_mesh(8), 2, True),
    (lambda: gen_quad_mesh(32), 4, True), (lambda: gen_hex_mesh(3), 3, False)],
    ids=["hex-l6-k2", "hex-l8-k2", "quad-32x32-k4", "hex-n3-k3"])
def test_mode_basis_memory_is_bounded_by_the_chunk_budget(make, k, basis,
                                                          monkeypatch):
    # the mode basis of a chunk is no larger than the G x C operand of one
    # of its member blocks, so the bound of the coefficient-first blocks
    # holds.  Hex n3, k = 3: 27 members and 14 radial points, but blocks of
    # 10; its basis (1.8 MB per sector) would break the bound
    exact = get_exact("exp3d" if make().dimension == 3 else "exp2d")
    sol = sbfem_interpolate(make(), k, exact.value)
    forms = set()
    on_member_fields(monkeypatch, lambda contraction, *_: forms.add(contraction))
    tracemalloc.start()
    try:
        solution_errors(sol, exact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forms == {"basis" if basis else "coefficients"}
    assert peak < 16 * 16 * refgeom.CHUNK_BUDGET
