"""Reference-element quadrature and basis tests against exact moments and an
independent symbolic construction."""

import math

import numpy as np
import pytest
import sympy

import oracles
from westervelt_hdg.basis import (
    SegmentBasis,
    TriangleBasis,
    scalar_space_dim,
    segment_quadrature,
    triangle_quadrature,
)
from westervelt_hdg.parameters import MAX_DEGREE, MAX_QUADRATURE_ORDER


@pytest.mark.parametrize("degree,dim", [(0, 1), (1, 3), (2, 6), (3, 10), (7, 36)])
def test_scalar_space_dim(degree, dim):
    assert scalar_space_dim(degree) == dim


class TestTriangleQuadrature:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 7, 10, 15, 24])
    def test_exact_for_monomials(self, order):
        rule = triangle_quadrature(order)
        x, y = rule.points[:, 0], rule.points[:, 1]
        for a in range(order + 1):
            for b in range(order + 1 - a):
                approx = float(np.sum(rule.weights * x**a * y**b))
                exact = oracles.monomial_moment(a, b)
                assert approx == pytest.approx(exact, abs=1.0e-15, rel=1.0e-13)

    @pytest.mark.parametrize("order", [0, 3, 12, 31])
    def test_weights_positive_and_sum_to_area(self, order):
        rule = triangle_quadrature(order)
        assert np.all(rule.weights > 0.0)
        assert np.sum(rule.weights) == pytest.approx(0.5, rel=1.0e-14)

    @pytest.mark.parametrize("order", [1, 6, 17])
    def test_points_inside_reference_triangle(self, order):
        pts = triangle_quadrature(order).points
        assert np.all(pts >= 0.0)
        assert np.all(pts.sum(axis=1) <= 1.0)

    def test_order_bounds(self):
        with pytest.raises(ValueError,
                           match="quadrature_order must be <= 60"):
            triangle_quadrature(MAX_QUADRATURE_ORDER + 1)
        with pytest.raises(ValueError, match="quadrature_order must be >= 0"):
            triangle_quadrature(-1)
        triangle_quadrature(MAX_QUADRATURE_ORDER)  # still available

    def test_rule_is_frozen(self):
        rule = triangle_quadrature(3)
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0


class TestSegmentQuadrature:
    @pytest.mark.parametrize("order", [0, 1, 4, 9, 16])
    def test_exact_for_monomials(self, order):
        rule = segment_quadrature(order)
        for a in range(order + 1):
            approx = float(np.sum(rule.weights * rule.points**a))
            assert approx == pytest.approx(1.0 / (a + 1), rel=1.0e-14)

    def test_weights(self):
        rule = segment_quadrature(11)
        assert np.all(rule.weights > 0.0)
        assert np.sum(rule.weights) == pytest.approx(1.0, rel=1.0e-15)


class TestOracleQuadrature:
    """Certify the independent Duffy rule used by the dense oracles."""

    @pytest.mark.parametrize("order", [0, 2, 5, 9, 14])
    def test_exact_for_monomials(self, order):
        pts, wts = oracles.oracle_triangle_rule(order)
        for a in range(order + 1):
            for b in range(order + 1 - a):
                approx = float(np.sum(wts * pts[:, 0]**a * pts[:, 1]**b))
                exact = oracles.monomial_moment(a, b)
                assert approx == pytest.approx(exact, abs=1.0e-15, rel=1.0e-13)


def _interior_points(npts, seed):
    rng = np.random.default_rng(seed)
    bary = rng.dirichlet((1.0, 1.0, 1.0), npts)
    return bary[:, :2]


class TestTriangleBasis:
    @pytest.mark.parametrize("degree", range(MAX_DEGREE + 1))
    def test_orthonormal(self, degree):
        # with the cell rule of assembly, so every element mass is |det J| I
        basis = TriangleBasis(degree)
        rule = triangle_quadrature(2 * degree + 2)
        vals = basis.eval_values(rule.points)
        gram = vals.T @ (rule.weights[:, None] * vals)
        assert np.abs(gram - np.eye(basis.dim)).max() < 1.0e-13

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_values_match_symbolic_oracle(self, degree):
        pts = _interior_points(60, seed=degree)
        mine = TriangleBasis(degree).eval_values(pts)
        ref = oracles.basis_values(degree, pts)
        assert np.abs(mine - ref).max() < 1.0e-12

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_gradients_match_symbolic_oracle(self, degree):
        x, y, exprs = oracles.symbolic_basis(degree)
        pts = _interior_points(40, seed=10 + degree)
        _, grads = TriangleBasis(degree).eval(pts)
        for i, expr in enumerate(exprs):
            gx = sympy.lambdify((x, y), sympy.diff(expr, x), "numpy")
            gy = sympy.lambdify((x, y), sympy.diff(expr, y), "numpy")
            ref_x = np.broadcast_to(gx(pts[:, 0], pts[:, 1]), pts.shape[0])
            ref_y = np.broadcast_to(gy(pts[:, 0], pts[:, 1]), pts.shape[0])
            assert np.abs(grads[:, i, 0] - ref_x).max() < 1.0e-11
            assert np.abs(grads[:, i, 1] - ref_y).max() < 1.0e-11

    def test_mode_zero_is_constant(self):
        pts = _interior_points(10, seed=4)
        vals = TriangleBasis(3).eval_values(pts)
        assert np.abs(vals[:, 0] - math.sqrt(2.0)).max() < 1.0e-14

    @pytest.mark.parametrize("degree", [1, 2, 4])
    def test_hierarchical_nesting(self, degree):
        pts = _interior_points(25, seed=degree)
        low = TriangleBasis(degree - 1).eval_values(pts)
        high = TriangleBasis(degree).eval_values(pts)
        assert np.abs(high[:, : low.shape[1]] - low).max() == 0.0

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_monomial_reproduction(self, degree):
        """Projecting any monomial of total degree <= p is exact."""
        basis = TriangleBasis(degree)
        rule = triangle_quadrature(2 * degree + 2)
        vals = basis.eval_values(rule.points)
        pts = _interior_points(30, seed=20 + degree)
        probe = basis.eval_values(pts)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                target = rule.points[:, 0]**a * rule.points[:, 1]**b
                coef = vals.T @ (rule.weights * target)
                recon = probe @ coef
                exact = pts[:, 0]**a * pts[:, 1]**b
                assert np.abs(recon - exact).max() < 1.0e-13

    def test_vertex_evaluation_is_finite(self):
        # the collapsed map degenerates at (0, 1); evaluation must still work
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        vals, grads = TriangleBasis(4).eval(corners)
        assert np.all(np.isfinite(vals))
        assert np.all(np.isfinite(grads))

    def test_points_outside_rejected(self):
        basis = TriangleBasis(1)
        with pytest.raises(ValueError, match="outside"):
            basis.eval_values(np.array([[0.7, 0.7]]))
        with pytest.raises(ValueError, match="outside"):
            basis.eval_values(np.array([[-0.1, 0.2]]))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="basis_degree must be >= 0"):
            TriangleBasis(-1)


@pytest.mark.parametrize("basis", [TriangleBasis, SegmentBasis])
@pytest.mark.parametrize("degree", [MAX_DEGREE + 2, 10**30])
def test_degree_above_the_postprocessed_field_rejected(basis, degree):
    with pytest.raises(ValueError, match=f"basis_degree must be <= "
                                         f"{MAX_DEGREE + 1}"):
        basis(degree)


class TestSegmentBasis:
    @pytest.mark.parametrize("degree", [0, 1, 2, 5])
    def test_orthonormal(self, degree):
        basis = SegmentBasis(degree)
        rule = segment_quadrature(2 * degree)
        vals = basis.eval(rule.points)
        gram = vals.T @ (rule.weights[:, None] * vals)
        assert np.abs(gram - np.eye(degree + 1)).max() < 1.0e-14

    @pytest.mark.parametrize("degree", [0, 1, 3, 6])
    def test_matches_legendre_oracle(self, degree):
        rng = np.random.default_rng(degree)
        s = rng.uniform(0.0, 1.0, 50)
        mine = SegmentBasis(degree).eval(s)
        ref = oracles.facet_basis_values(degree, s)
        assert np.abs(mine - ref).max() < 1.0e-13

    def test_points_outside_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            SegmentBasis(2).eval(np.array([1.5]))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="basis_degree must be >= 0"):
            SegmentBasis(-2)
