from dataclasses import replace

import numpy as np
import pytest

from conftest import (GeometryError, affine_cube_mesh, constant_index,
                      constant_trace_admissible, coupled_mixed_mesh, duffy_map_many,
                      fd_mode_gradients, fixture_meshes_2d, fixture_meshes_3d,
                      hybrid_mesh, is_open, jittered_quad_mesh, mesh_to_json, mode_fields,
                      op_sectors, operator_for, orthogonality_residual,
                      quadratic_residual, radial_factors, random_polygon_mesh,
                      reference_mode_chain, stiffness_from_gram)
from sbfem import modes, solver
from sbfem.ematrix import EMatrices
from sbfem.errors import SpectrumError
from sbfem.mesh import (gen_coupled_singular, gen_hex_mesh,
                        gen_polyhedron_case1, import_mesh, number_dofs,
                        singular_open_selement)
from sbfem.modes import (build_system, eigenvalue_rows, element_stiffness,
                         select_modes)
from sbfem.postproc import _radial_factors, get_exact, solution_errors
from sbfem.solver import (apply_dirichlet, assemble_global, build_operators,
                          sbfem_interpolate, solve)
from sbfem.cli import MESH_FAMILIES, build_mesh
from test_mesh import _open_pair
from test_postproc import BATCH_CASES, PAIRED_CASES


def all_fixture_ops(ks=(1, 2)):
    out = []
    for name, mesh in fixture_meshes_2d() + fixture_meshes_3d():
        for k in ks:
            out.append((f"{name}-k{k}", mesh, operator_for(mesh, k)))
    return out


def test_euler_blocks_2d(square_mesh):
    op = operator_for(square_mesh, 1)
    E = op.E
    M = build_system(E, 2)
    n = E.n
    Y = np.linalg.inv(E.E11)
    assert np.allclose(M[:n, :n], -Y @ E.E12)
    assert np.allclose(M[:n, n:], Y)
    # for d = 2 the lower-right block reduces to the bare cross term
    assert np.allclose(M[n:, n:], E.E21 @ Y)


def test_square_full_spectrum(square_mesh):
    op = operator_for(square_mesh, 1)
    lam = np.sort(op.modes.all_eigenvalues.real)
    assert np.abs(op.modes.all_eigenvalues.imag).max() < 1e-7
    assert lam == pytest.approx([-2, -1, -1, 0, 0, 1, 1, 2], abs=1e-8)


def test_square_selected_modes(square_mesh):
    op = operator_for(square_mesh, 1)
    lam = np.sort(op.modes.lambdas.real)
    assert lam == pytest.approx([0, 1, 1, 2], abs=1e-8)
    ci = constant_index(op.modes)
    assert ci is not None
    col = op.modes.A[:, ci]
    assert np.abs(col - col[0]).max() < 1e-12
    assert np.linalg.norm(op.modes.P[:, ci]) < 1e-10


def test_cube_pairing(cube_mesh):
    op = operator_for(cube_mesh, 1)
    lam = op.modes.all_eigenvalues
    mirrored = -(lam + 1.0)
    a = np.sort_complex(np.round(lam, 8))
    b = np.sort_complex(np.round(mirrored, 8))
    assert np.abs(a - b).max() < 1e-7
    sel = np.sort(op.modes.lambdas.real)
    assert sel == pytest.approx([0, 1, 1, 1, 2, 2, 2, 3], abs=1e-7)


@pytest.mark.parametrize("dim", [2, 3])
def test_eigenvalue_pairing_randomized(dim, rng):
    for trial in range(10):
        if dim == 2:
            mesh = random_polygon_mesh(np.random.default_rng(100 + trial))
        else:
            mesh = affine_cube_mesh(np.random.default_rng(200 + trial))
        op = operator_for(mesh, 1 + trial % 2)
        lam = op.modes.all_eigenvalues
        scale = max(np.abs(lam).max(), 1.0)
        mirrored = -(lam + (dim - 2))
        a = np.sort_complex(lam)
        b = np.sort_complex(mirrored)
        assert np.abs(a - b).max() < 1e-8 * scale


def test_exactly_one_constant_mode():
    for name, mesh, op in all_fixture_ops():
        ci = constant_index(op.modes)
        assert ci == 0, name
        near_zero = np.abs(op.modes.lambdas) < 1e-8
        assert near_zero.sum() == 1, name


def test_ode_residual_invariant():
    for name, mesh, op in all_fixture_ops():
        res = quadratic_residual(op.modes, op.E, mesh.dimension)
        assert res < 1e-7, (name, res)


def test_flux_consistency():
    # eigenvector flux part equals (lambda E11 + E12) A
    for name, mesh, op in all_fixture_ops(ks=(2,)):
        md, E = op.modes, op.E
        for i, lam in enumerate(md.lambdas):
            expect = (lam * E.E11 + E.E12) @ md.A[:, i]
            assert np.abs(md.P[:, i] - expect).max() < 1e-8 * max(
                1.0, np.abs(expect).max()), name
        # every non-constant column has a unit trace part
        norms = np.linalg.norm(np.delete(md.A, constant_index(md), axis=1),
                               axis=0)
        assert np.abs(norms - 1.0).max() < 1e-12, name


def test_constant_mode_evaluation(square_mesh):
    op = operator_for(square_mesh, 1)
    ctx = op_sectors(square_mesh, op, 0)[0]
    for xi, eta in [(0.5, 0.2), (1.0, -0.7), (0.0, 0.0)]:
        vals, grads = mode_fields(op, ctx, xi, eta)
        ci = constant_index(op.modes)
        norm = op.modes.A[0, ci]
        assert vals[ci] / norm == pytest.approx(1.0, abs=1e-12)
        assert np.abs(grads[:, ci]).max() < 1e-10


def test_square_top_mode_is_xy(square_mesh, rng):
    op = operator_for(square_mesh, 1)
    idx = int(np.argmax(op.modes.lambdas.real))
    assert op.modes.lambdas[idx].real == pytest.approx(2.0, abs=1e-9)
    ctx = op_sectors(square_mesh, op, 0)[0]
    xi0, eta0 = 0.77, 0.31
    v0, _ = mode_fields(op, ctx, xi0, eta0)
    x0 = duffy_map_many(ctx.sector, [xi0], [[eta0]])[0, 0]
    c = v0[idx] / (x0[0] * x0[1])
    for _ in range(50):
        xi, eta = rng.uniform(0.1, 1.0), rng.uniform(-1, 1)
        vals, _ = mode_fields(op, ctx, xi, eta)
        x = duffy_map_many(ctx.sector, [xi], [[eta]])[0, 0]
        assert vals[idx] == pytest.approx(c * x[0] * x[1], abs=1e-9 * abs(c))


def test_shape_gradients_match_finite_differences(rng):
    for name, mesh in fixture_meshes_2d() + fixture_meshes_3d():
        op = operator_for(mesh, 2)
        ctx = op_sectors(mesh, op, 0)[0]
        kind = ctx.sector.facet_kind
        for _ in range(20):
            xi = rng.uniform(0.25, 0.9)
            if kind.name == "SEGMENT":
                eta = rng.uniform(-0.8, 0.8, 1)
            elif kind.name == "QUADRILATERAL":
                eta = rng.uniform(-0.8, 0.8, 2)
            else:
                eta = rng.dirichlet([1, 1, 1])[:2] * 0.75
            _, grads = mode_fields(op, ctx, xi, eta)
            fd = fd_mode_gradients(op, ctx, xi, eta)
            scale = max(np.abs(grads).max(), 1.0)
            assert np.abs(grads - fd).max() < 1e-5 * scale, name


def test_gradient_at_center_domain_error(wedge_mesh):
    # the exponent-1/2 mode has no gradient at the scaling center
    op = operator_for(wedge_mesh, 1)
    ctx = op_sectors(wedge_mesh, op, 0)[0]
    with pytest.raises(GeometryError):
        mode_fields(op, ctx, 0.0, 0.0)


def test_stiffness_properties():
    for name, mesh, op in all_fixture_ops():
        K = op.K
        n = K.shape[0]
        assert np.abs(K - K.T).max() < 1e-9 * np.linalg.norm(K), name
        w = np.linalg.eigvalsh(K)
        assert w.min() > -1e-9 * np.linalg.norm(K), name
        if not is_open(mesh, 0):
            ones = np.ones(n)
            assert np.linalg.norm(K @ ones) < 1e-9 * np.linalg.norm(K), name
            # kernel is exactly the constants
            assert (w > 1e-8 * w.max()).sum() == n - 1, name


def test_stiffness_matches_gram():
    for name, mesh, op in all_fixture_ops():
        K2 = stiffness_from_gram(op.modes, op.E, mesh.dimension)
        err = np.linalg.norm(op.K - K2) / np.linalg.norm(op.K)
        assert err < 1e-7, (name, err)


def test_square_stiffness_is_bilinear_fem(square_mesh):
    # S-functions with piecewise-linear traces on the square span Q1, so the
    # stiffness must match the classical bilinear element matrix
    op = operator_for(square_mesh, 1)
    coords = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    from sbfem.mesh import number_dofs
    nd = number_dofs(square_mesh, 1)
    # classical Q1 stiffness on [-1,1]^2 in the same dof order
    import itertools
    from numpy.polynomial.legendre import leggauss
    xg, wg = leggauss(3)
    Kq1 = np.zeros((4, 4))
    order = []
    for g in op.dofs_kept:
        xy = nd.coords[g]
        order.append(np.argmin(np.linalg.norm(coords - xy, axis=1)))
    for xi, wx in itertools.product(range(3), range(3)):
        u, v = xg[xi], xg[wx]
        dN = np.array([[-(1 - v), -(1 - u)], [(1 - v), -(1 + u)],
                       [(1 + v), (1 + u)], [-(1 + v), (1 - u)]]) * 0.25
        Kq1 += wg[xi] * wg[wx] * dN @ dN.T
    Kq1 = Kq1[np.ix_(order, order)]
    assert np.abs(op.K - Kq1).max() < 1e-8
    assert np.abs(np.diag(Kq1) - 2.0 / 3.0).max() < 1e-12
    assert np.abs(op.K.sum(axis=1)).max() < 1e-10


def test_square_stiffness_matches_volume_quadrature(square_mesh):
    # modes are polynomials here, so tensor quadrature integrates exactly
    from sbfem.polyspace import facet_quadrature, radial_quadrature
    from conftest import sector_B_many
    op = operator_for(square_mesh, 1)
    md = op.modes
    n = md.n
    rad = radial_quadrature(1.0, 8, 0)
    G = np.zeros((n, n), dtype=complex)
    for ctx in op_sectors(square_mesh, op, 0):
        frule = facet_quadrature(ctx.sector.facet_kind, 8)
        B1, B2, det = sector_B_many(ctx.sector, ctx.basis, frule.points)
        alpha = md.A[ctx.rows, :]
        Zs, Z1s = _radial_factors(rad.points[:, 0], md.lambdas)
        C1 = np.einsum("qdm,mi->qdi", B1, alpha)
        C2 = np.einsum("qdm,mi->qdi", B2, alpha)
        W1 = Z1s * md.lambdas[None, :]
        grads = (np.einsum("ri,qdi->rqdi", W1, C1)
                 + np.einsum("ri,qdi->rqdi", Z1s, C2))
        w = np.outer(rad.weights * rad.points[:, 0], frule.weights * det)
        G += np.einsum("rq,rqdi,rqdj->ij", w, grads.conj(), grads)
    Ainv = np.linalg.inv(md.A)
    K_vol = (Ainv.conj().T @ G @ Ainv).real
    assert np.abs(K_vol - op.K).max() < 1e-8


def test_sideface_reduction_counts(wedge_mesh):
    # each side-face pin removes one trace DOF from the class operator; an
    # unpinned open S-element keeps them all and its constant mode
    data = mesh_to_json(wedge_mesh)
    n = len(operator_for(wedge_mesh, 1).dofs_full)
    for pins in ([], [8], [0, 8]):
        data["selements"][0]["dirichlet_sideface_nodes"] = pins
        op = operator_for(import_mesh(data), 1)
        m = n - len(pins)
        assert (op.E.n, op.modes.n, len(op.kept_local)) == (m, m, m)
        assert (constant_index(op.modes) is None) == bool(pins)


def test_all_pinned_open_selement_is_named():
    # a one-segment open S-element whose two side-face nodes are both pinned
    # has no trace DOF left at k = 1
    mesh = import_mesh({"dimension": 2, "vertices": [[0, 0], [2, 0], [2, 1]],
                        "selements": [
                            {"facets": [[0, 1], [1, 2], [2, 0]]},
                            {"facets": [[1, 2]], "center": [3.0, 0.5],
                             "dirichlet_sideface_nodes": [1, 2]}]})
    with pytest.raises(SpectrumError, match="^S-element 1: side-face constraints "
                       "would remove every trace DOF$"):
        build_operators(mesh, number_dofs(mesh, 1))


def test_wedge_min_exponent_half():
    mesh = singular_open_selement(4)
    op = operator_for(mesh, 3)
    assert abs(op.modes.min_positive_exponent - 0.5) < 1e-3
    assert constant_index(op.modes) is None
    # count equals the constrained DOF count
    assert op.modes.n == len(op.dofs_full) - 1


def test_orthogonality_defining_and_extended(rng):
    for name, mesh, op in all_fixture_ops():
        d = mesh.dimension
        r1 = orthogonality_residual(op.modes, op.E, d, [0.0, 1.0, -1.0], rng=rng)
        r2 = orthogonality_residual(op.modes, op.E, d, [1.0, -3.0, 3.0, -1.0],
                                    rng=rng)
        assert r1 < 1e-9, (name, r1)
        assert r2 < 1e-9, (name, r2)
        traces = rng.standard_normal((4, op.E.n))
        r3 = orthogonality_residual(op.modes, op.E, d, [0.0, 1.0, -1.0],
                                    traces=traces)
        assert r3 < 1e-9, (name, r3)


def test_stiffness_rejects_modes_not_closed_under_conjugation():
    op = operator_for(dict(fixture_meshes_2d())["pentagon"], 1)
    md, n = op.modes, op.modes.n
    assert np.array_equal(element_stiffness(md).K, op.K)
    # swap the partner of a conjugate pair for a rejected eigenvector
    partner = int(np.flatnonzero(md.lambdas.imag < -1e-8)[0])
    lam, V = np.linalg.eig(build_system(op.E, 2))
    v = V[:, np.argmin(lam.real)]
    v = v / np.linalg.norm(v[:n])
    A, P = md.A.copy(), md.P.copy()
    A[:, partner], P[:, partner] = v[:n], v[n:]
    with pytest.raises(SpectrumError, match="conjugation"):
        element_stiffness(replace(md, A=A, P=P))


def test_ill_conditioned_open_element_interpolates():
    # the trace eigenvectors of the k=4 open element are nearly dependent;
    # K and u_h must still come out to the reference errors
    exact = get_exact("sqrt2d")
    sol = sbfem_interpolate(singular_open_selement(8), 4, exact.value)
    assert sol.operators[0].modes.cond_A > 1e10
    errors = solution_errors(sol, exact)
    assert errors == pytest.approx((1.0306866673065958e-09,
                                    1.9017328290407705e-07), rel=1e-8)


def test_defective_detection_by_condition_cap(square_mesh, monkeypatch):
    op_E = operator_for(square_mesh, 1).E
    M = build_system(op_E, 2)
    monkeypatch.setattr(modes, "COND_CAP", 1.0)
    with pytest.raises(SpectrumError, match="trace eigenvector condition"):
        select_modes(M, 2, True)


def test_eigenvalue_rows_format(square_mesh):
    op = operator_for(square_mesh, 1)
    rows = eigenvalue_rows(op.modes)
    assert len(rows) == 8
    assert sum(sel for _, _, sel in rows) == 3   # positives; constant replaced
    assert rows == sorted(rows)


def test_radial_factor_limits_at_center():
    lams = np.array([0.0, 1.0, 2.0, 1.5 + 0.5j, 1.5 - 0.5j])
    xis = np.array([0.0, 0.25])
    Z, Z1 = radial_factors(xis, lams)
    assert np.array_equal(Z[0], [1, 0, 0, 0, 0])
    assert np.array_equal(Z1[0], [0, 1, 0, 0, 0])
    assert np.abs(Z[1] - 0.25 ** lams).max() < 1e-15
    assert np.all(Z1[:, 0] == 0.0)
    assert np.abs(Z1[1, 1:] - 0.25 ** (lams[1:] - 1)).max() < 1e-14
    # stacked exponent sets broadcast over a leading axis
    Zs, _ = radial_factors(xis, np.stack([lams, lams[::-1]]))
    assert np.array_equal(Zs[1], Z[:, ::-1])
    for bad in (-0.5, 0.5j, 0.5, 0.8 + 0.3j):
        with pytest.raises(GeometryError):
            radial_factors(xis, np.array([0.0, bad]))
        radial_factors(xis[1:], np.array([0.0, bad]))   # fine off the center


@pytest.mark.parametrize("E11", [np.diag([1.0, -1.0]), np.diag([1.0, 1e-15])],
                         ids=["not-positive-definite", "condition-above-1e14"])
def test_singular_E11_rejected(E11):
    zero = np.zeros((2, 2))
    with pytest.raises(SpectrumError):
        build_system(EMatrices(E11=E11, E12=zero, E22=zero), 2)


ORACLE_MESHES = {
    "jittered-6x6": lambda: jittered_quad_mesh(6, 0.18),
    "hybrid": hybrid_mesh,
    "coupled-singular-l2": lambda: gen_coupled_singular(2),
    "hex-n1": lambda: gen_hex_mesh(1),
    "polyhedron-case1-n1": lambda: gen_polyhedron_case1(1),
}


@pytest.mark.parametrize("name", ORACLE_MESHES)
def test_stacked_mode_layer_matches_per_element_oracle(name):
    mesh = ORACLE_MESHES[name]()
    for op in build_operators(mesh, number_dofs(mesh, 2)):
        lams, cond_A, K = reference_mode_chain(op.E, mesh.dimension)
        assert np.abs(op.modes.lambdas - lams).max() <= 1e-12 * np.abs(lams).max()
        assert abs(op.modes.cond_A - cond_A) <= 1e-12 * cond_A
        assert np.linalg.norm(op.K - K) <= 1e-12 * np.linalg.norm(K)


def three_cell_mesh():
    """A square, a pentagon and a trapezoid in a row: at k = 1 the trace
    sizes are 4, 5 and 4, so the misses form two stacks, (0, 2) and (1,)."""
    V = [[0, 0], [1, 0], [2, 0], [3.3, 0], [0, 1], [1, 1], [1.5, 1], [2, 1],
         [3, 1]]
    loops = [[0, 1, 5, 4], [1, 2, 7, 6, 5], [2, 3, 8, 7]]
    return import_mesh({"dimension": 2, "vertices": V, "selements": [
        {"facets": [[lp[t], lp[(t + 1) % len(lp)]] for t in range(len(lp))]}
        for lp in loops]})


def test_spectrum_error_names_lowest_failing_selement(monkeypatch):
    mesh = three_cell_mesh()
    numbering = number_dofs(mesh, 1)
    cond = [op.modes.cond_A for op in build_operators(mesh, numbering)]
    assert cond[0] < min(cond[1:])
    # S-elements 1 and 2 fail the cap; the stack (0, 2) goes first
    monkeypatch.setattr(modes, "COND_CAP", 0.5 * (cond[0] + min(cond[1:])))
    with pytest.raises(SpectrumError,
                       match="^S-element 1: .*trace eigenvector condition"):
        build_operators(mesh, numbering)


def test_spectrum_error_names_earlier_member_of_a_later_guard(monkeypatch):
    # S-element 2 fails the E11 guard, which its stack (0, 2) meets before
    # S-element 0 reaches the condition cap
    mesh = three_cell_mesh()
    numbering = number_dofs(mesh, 1)
    assemble_E = solver.assemble_E

    def negate_E11_of_2(stacks, rows, members, *args):
        E = assemble_E(stacks, rows, members, *args)
        E.E11[members == 2] *= -1.0
        return E

    monkeypatch.setattr(solver, "assemble_E", negate_E11_of_2)
    with pytest.raises(SpectrumError, match="^S-element 2: E11 is not positive"):
        build_operators(mesh, numbering)
    monkeypatch.setattr(modes, "COND_CAP", 1.0)
    with pytest.raises(SpectrumError, match="^S-element 0: .*condition"):
        build_operators(mesh, numbering)



def test_one_assemble_E_call_per_stack(monkeypatch):
    # build_operators alone lays out the stacks: one call per (S-local size,
    # constant trace) key, in order of first appearance, members ascending
    calls, assemble_E = [], solver.assemble_E

    def recorded(stacks, rows, members, n, *args):
        calls.append((members.tolist(), n))
        return assemble_E(stacks, rows, members, n, *args)

    monkeypatch.setattr(solver, "assemble_E", recorded)
    mesh = three_cell_mesh()
    build_operators(mesh, number_dofs(mesh, 1))
    assert calls == [([0, 2], 4), ([1], 5)]

PIN_RULE_MESHES = {
    **{f"{name}-l2": lambda name=name: build_mesh(name, 2) for name in MESH_FAMILIES},
    "hybrid": hybrid_mesh,
    "singular-open-2": lambda: singular_open_selement(2),
    "coupled-mixed": coupled_mixed_mesh,
    # S-element 1 is open without pins: it keeps the constant
    "open-pair-one-pinned": lambda: _open_pair({0: (0,)}),
    "open-pair-both-pinned": lambda: _open_pair({0: (0,), 1: (3,)}),
}


@pytest.mark.parametrize("name", PIN_RULE_MESHES)
def test_constant_trace_follows_the_side_face_pins(name):
    # build_operators gives a class the constant mode exactly when its
    # S-elements have no side-face pin; the numeric E-check agrees
    mesh = PIN_RULE_MESHES[name]()
    system = assemble_global(mesh, 2)
    for e, c in enumerate(mesh._sel_class.tolist()):
        op, pinned = system.operators[c], e in mesh._dirichlet
        assert bool(constant_trace_admissible(op.E)) is not pinned, e
        assert (constant_index(op.modes) is None) is pinned, e
    assert np.isfinite(solve(apply_dirichlet(system, 1.0)).nodal).all()


@pytest.mark.parametrize("case", sorted(BATCH_CASES) + sorted(PAIRED_CASES))
def test_conjugate_pairs_are_adjacent_and_exact(case):
    # the layout the error pass's realified basis relies on: each complex
    # exponent sits next to its conjugate, negative imaginary part first,
    # the two eigenvectors are exact conjugates, and a real exponent has an
    # exactly real eigenvector.  Bit for bit but for the sign of a zero
    # part, which LAPACK's pair storage does not fix: with the zeros' signs
    # cleared (+ 0.0), the bytes are equal
    make, k, _ = {**BATCH_CASES, **PAIRED_CASES}[case]
    pairs = 0
    for op in assemble_global(make(), k).operators:
        lam, A = op.modes.lambdas, np.asarray(op.modes.A, dtype=complex)
        neg, pos = np.flatnonzero(lam.imag < 0.0), np.flatnonzero(lam.imag > 0.0)
        assert np.array_equal(pos, neg + 1)
        assert (lam[pos] + 0.0).tobytes() == (lam[neg].conj() + 0.0).tobytes()
        assert (A[:, pos] + 0.0).tobytes() == (A[:, neg].conj() + 0.0).tobytes()
        assert not A[:, lam.imag == 0.0].imag.any()
        pairs += len(neg)
    assert pairs or case not in PAIRED_CASES
