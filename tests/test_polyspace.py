from fractions import Fraction
from math import comb

import numpy as np
import pytest

from conftest import (reference_eval_many, reference_gauss_jacobi,
                      reference_lattice_nodes, reference_monomials,
                      reference_radial_quadrature)
from sbfem.errors import QuadratureError
from sbfem.polyspace import (MAX_DEGREE, _basis_table, _gauss_jacobi,
                             facet_quadrature, radial_quadrature, trace_basis)
from sbfem.refgeom import FacetKind

KINDS = [FacetKind.SEGMENT, FacetKind.QUADRILATERAL, FacetKind.TRIANGLE]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lagrange_and_partition_of_unity(kind, k, rng):
    basis = trace_basis(kind, k)
    vals, _ = basis.eval_many(basis.nodes)
    assert np.abs(vals - np.eye(len(basis.nodes))).max() < 1e-12
    if kind is FacetKind.SEGMENT:
        etas = rng.uniform(-1, 1, (20, 1))
    elif kind is FacetKind.QUADRILATERAL:
        etas = rng.uniform(-1, 1, (20, 2))
    else:
        etas = rng.dirichlet([1, 1, 1], 20)[:, :2]
    vals, grads = basis.eval_many(etas)
    assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(grads.sum(axis=2)).max() < 1e-10


def test_cardinalities():
    for k in range(1, 5):
        assert len(trace_basis(FacetKind.SEGMENT, k).nodes) == k + 1
        assert len(trace_basis(FacetKind.QUADRILATERAL, k).nodes) == (k + 1) ** 2
        assert len(trace_basis(FacetKind.TRIANGLE, k).nodes) == \
            (k + 1) * (k + 2) // 2


def _same(got, want) -> bool:
    # compared as bytes, so the sign of a zero counts too
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.flags.c_contiguous and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", range(1, MAX_DEGREE + 1))
def test_basis_is_bit_identical_to_the_branch_and_loop_oracles(kind, k):
    # nodes index one tick list by the monomial exponents and one broadcast
    # evaluator serves the Vandermonde and every table; each must equal, bit
    # for bit, the per-kind lattice and the loop evaluation it replaced
    basis = trace_basis(kind, k)
    nodes = reference_lattice_nodes(kind, k)
    assert _same(basis.nodes, nodes)
    assert _same(basis.coeffs, np.linalg.inv(reference_monomials(basis.powers, nodes)))
    for order in range(1, 41):
        points = facet_quadrature(kind, order).points
        for got, want in zip(_basis_table(kind, k, order),
                             reference_eval_many(basis, points)):
            assert _same(got, want), order


def test_segment_linear_hats():
    basis = trace_basis(FacetKind.SEGMENT, 1)
    vals, grads = basis.eval_many([[0.0]])
    assert vals[0] == pytest.approx([0.5, 0.5])
    assert grads[0, 0] == pytest.approx([-0.5, 0.5])


def test_triangle_lattice_lagrange():
    basis = trace_basis(FacetKind.TRIANGLE, 2)
    for idx, node in enumerate(basis.nodes):
        vals, _ = basis.eval_many(node[None, :])
        expect = np.zeros(len(basis.nodes))
        expect[idx] = 1.0
        assert vals[0] == pytest.approx(expect, abs=1e-12)


def test_vandermonde_conditioning_up_to_6():
    for kind in KINDS:
        for k in range(1, 7):
            basis = trace_basis(kind, k)
            vmat = np.linalg.inv(basis.coeffs)
            resid = np.abs(vmat @ basis.coeffs - np.eye(len(basis.nodes))).max()
            assert resid < 1e-8, (kind, k, resid)


def test_degree_cap():
    with pytest.raises(QuadratureError):
        trace_basis(FacetKind.SEGMENT, 9)
    with pytest.raises(QuadratureError):
        trace_basis(FacetKind.SEGMENT, 0)


def test_segment_order3_classical():
    rule = facet_quadrature(FacetKind.SEGMENT, 3)
    assert len(rule) == 2
    assert rule.weights == pytest.approx([1.0, 1.0])
    assert np.sort(rule.points[:, 0]) == pytest.approx(
        [-1 / np.sqrt(3), 1 / np.sqrt(3)])


def test_quadrilateral_measure():
    for order in (1, 4, 9):
        rule = facet_quadrature(FacetKind.QUADRILATERAL, order)
        assert rule.weights.sum() == pytest.approx(4.0)


def test_triangle_xy_moment():
    rule = facet_quadrature(FacetKind.TRIANGLE, 2)
    val = np.dot(rule.weights, rule.points[:, 0] * rule.points[:, 1])
    assert val == pytest.approx(1.0 / 24.0, rel=1e-12)


def _exact_monomial(kind, p, q):
    if kind is FacetKind.SEGMENT:
        return 0.0 if p % 2 else 2.0 / (p + 1)
    if kind is FacetKind.QUADRILATERAL:
        ix = 0.0 if p % 2 else 2.0 / (p + 1)
        iy = 0.0 if q % 2 else 2.0 / (q + 1)
        return ix * iy
    # unit triangle: int x^p y^q = p! q! / (p+q+2)!
    from math import factorial
    return factorial(p) * factorial(q) / factorial(p + q + 2)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", [2, 5, 8])
def test_quadrature_exactness(kind, order, rng):
    rule = facet_quadrature(kind, order)
    assert rule.weights.min() > 0
    for _ in range(5):
        # random polynomial of the advertised total degree
        terms = [(int(p), int(q), c) for p, q, c in
                 zip(rng.integers(0, order + 1, 6),
                     rng.integers(0, order + 1, 6), rng.standard_normal(6))
                 if p + q <= order]
        if not terms:
            continue
        if kind is FacetKind.SEGMENT:
            approx = sum(c * np.dot(rule.weights, rule.points[:, 0] ** p)
                         for p, q, c in terms)
            exact = sum(c * _exact_monomial(kind, p, 0) for p, q, c in terms)
        else:
            approx = sum(c * np.dot(rule.weights, rule.points[:, 0] ** p
                                    * rule.points[:, 1] ** q)
                         for p, q, c in terms)
            exact = sum(c * _exact_monomial(kind, p, q) for p, q, c in terms)
        assert approx == pytest.approx(exact, rel=1e-11, abs=1e-13)


def test_radial_plain_gauss():
    rule = radial_quadrature(1.0, 5, 0)
    assert np.dot(rule.weights, rule.points[:, 0] ** 3) == pytest.approx(
        0.25, abs=1e-14)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_radial_composite_weak_singularity():
    rule = radial_quadrature(-0.5, 10, 8)
    val = np.dot(rule.weights, rule.points[:, 0] ** -0.5)
    assert val == pytest.approx(2.0, rel=1e-8)


def test_radial_zero_levels_is_plain():
    plain = radial_quadrature(0.3, 6, 0)
    comp0 = radial_quadrature(-0.5, 6, 0)
    assert np.allclose(plain.points, comp0.points)
    assert np.allclose(plain.weights, comp0.weights)


def test_radial_composite_integrates_weighted_smooth(rng):
    # xi^(2*floor) x smooth, floor = -0.4
    floor = -0.4
    rule = radial_quadrature(floor, 12, 8)
    for c in rng.standard_normal(3):
        f = lambda x: x ** (2 * floor + 1) * (1.0 + c * x + x ** 2)
        exact = (1 / (2 * floor + 2) + c / (2 * floor + 3) + 1 / (2 * floor + 4))
        val = np.dot(rule.weights, f(rule.points[:, 0]))
        assert val == pytest.approx(exact, rel=1e-8)



@pytest.mark.parametrize("levels", [0, 1, 3, 8, 9])
@pytest.mark.parametrize("floor", [0.0, -0.0, 1e-9, 0.3, 0.5, 0.999, 1.0, 2.5,
                                   -1e-8, -0.3, -0.5, -0.9])
def test_radial_rule_is_bit_identical_to_the_two_cell_oracle(floor, levels):
    # one inner cell, Gauss-Jacobi with b = min(floor, 0): at b = 0 it is the
    # plain Gauss cell bit for bit, since the maps scale by 0.5 exactly
    for order in (1, 2, 5, 12, 16, 40):
        rule = radial_quadrature(floor, order, levels)
        points, weights = reference_radial_quadrature(floor, order, levels)
        assert rule.points.shape == (len(points), 1)
        assert rule.points[:, 0].tobytes() == points.tobytes(), order
        assert rule.weights.tobytes() == weights.tobytes(), order

def test_radial_errors():
    with pytest.raises(QuadratureError):
        radial_quadrature(-1.0, 5, 2)
    with pytest.raises(QuadratureError):
        radial_quadrature(0.5, 0, 2)
    with pytest.raises(QuadratureError, match="^composite_levels must be non-negative$"):
        radial_quadrature(0.0, 4, -1)
    with pytest.raises(QuadratureError):
        facet_quadrature(FacetKind.SEGMENT, 0)


def test_cached_arrays_are_read_only():
    from sbfem.mesh import _corner_weights
    rule = radial_quadrature(0.0, 12, 0)
    assert radial_quadrature(0.0, 12, 0) is rule
    basis = trace_basis(FacetKind.QUADRILATERAL, 2)
    shared = [rule.points, rule.weights,
              facet_quadrature(FacetKind.TRIANGLE, 6).weights,
              basis.nodes, basis.coeffs,
              _corner_weights(FacetKind.TRIANGLE, 3)]
    for arr in shared:
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_triangle_rule_is_invariant_under_vertex_rotation():
    # a facet integrates alike whichever vertex it lists first
    rule = facet_quadrature(FacetKind.TRIANGLE, 5)
    x, y = rule.points.T
    for pts in (np.column_stack([1.0 - x - y, x]), np.column_stack([y, x])):
        a = np.column_stack([rule.points, rule.weights])
        b = np.column_stack([pts, rule.weights])
        assert np.allclose(a[np.lexsort(a.T[::-1].round(12))],
                           b[np.lexsort(b.T[::-1].round(12))], rtol=0, atol=1e-15)


@pytest.mark.parametrize("b", [0.0, -0.25, -0.5, -0.9])
def test_gauss_jacobi_matches_the_scipy_rule(b):
    for n in range(1, 121):
        x, w = _gauss_jacobi(n, b)
        x_ref, w_ref = reference_gauss_jacobi(n, b)
        assert np.abs(x - x_ref).max() <= 1e-15, n
        # scipy's own weights are off by up to 3e-10 relative (n = 108, b = -0.9)
        assert np.abs(w / w_ref - 1.0).max() <= 1e-9, n


def _jacobi_moment(j: int, b: float) -> float:
    """int_{-1}^{1} x^j (1 + x)^b dx = 2^(b+1) sum_i C(j,i) (-1)^(j-i) 2^i / (i+b+1),
    from x = (1 + x) - 1; the sum is exact in rationals."""
    s = sum(Fraction(comb(j, i) * (-1) ** (j - i) * 2 ** i) / (i + 1 + Fraction(b))
            for i in range(j + 1))
    return float(s) * 2.0 ** (b + 1.0)


@pytest.mark.parametrize("b", [0.0, -0.5])
def test_gauss_jacobi_integrates_moments_to_round_off(b):
    # exact for degree 2n - 1, to 5e-14 of the absolute sum; scipy's rules
    # miss this by 4e-13 (b = 0) and 2e-12 (b = -1/2)
    for n in range(1, 41):
        x, w = _gauss_jacobi(n, b)
        for j in range(2 * n):
            err = abs(np.dot(w, x ** j) - _jacobi_moment(j, b))
            assert err <= 5e-14 * np.dot(w, np.abs(x) ** j), (n, j)


@pytest.mark.parametrize("b", [0.0, -0.5, -0.9, -0.999])
def test_gauss_jacobi_weights_sum_to_the_weight_integral(b):
    mu0 = 2.0 ** (b + 1.0) / (b + 1.0)
    for n in range(1, 121):
        assert abs(_gauss_jacobi(n, b)[1].sum() / mu0 - 1.0) <= 1e-14, n


def test_rule_caches_keep_every_rule():
    # a polygonal mesh can need more than 64 distinct radial rules in one
    # pass; a bounded cache would evict and recompute them on every warm pass
    calls = ([(radial_quadrature, (-0.5 + 0.005 * i, 4, 2)) for i in range(70)]
             + [(facet_quadrature, (FacetKind.SEGMENT, o)) for o in range(1, 71)]
             + [(_basis_table, (FacetKind.SEGMENT, 1, o)) for o in range(1, 71)])
    for f, args in calls:
        f(*args)
    before = {f: f.cache_info() for f, _ in calls}
    for f, args in calls:
        f(*args)
    for f, info in before.items():
        after = f.cache_info()
        assert after.maxsize is None and after.currsize >= 70
        assert (after.hits, after.misses) == (info.hits + 70, info.misses)
