"""Orthonormal polynomial bases and quadrature on the reference simplices.

Reference triangle: T = {(x, y) : x >= 0, y >= 0, x + y <= 1}.
Reference segment: [0, 1].

The triangle basis is the Koornwinder-Dubiner family evaluated through
collapsed coordinates and Jacobi recurrences, rescaled so that it is
L2-orthonormal on T. Modes are ordered hierarchically by total degree, so
the first (q+1)(q+2)/2 functions of a degree-p basis span P^q for any
q <= p and mode 0 is the constant sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_jacobi, roots_jacobi, roots_legendre

from .parameters import check_parameter

# geometric tolerance for "point lies in the reference element"
_DOMAIN_TOL = 1.0e-12


def scalar_space_dim(degree: int) -> int:
    """Dimension of P^degree on a triangle."""
    return (degree + 1) * (degree + 2) // 2


def _jacobi_norm(n: int, alpha: int, beta: int) -> float:
    """L2 norm squared of the classical Jacobi polynomial P_n^(alpha,beta)."""
    num = math.gamma(n + alpha + 1) * math.gamma(n + beta + 1)
    den = math.gamma(n + alpha + beta + 1) * math.factorial(n)
    return 2.0 ** (alpha + beta + 1) / (2 * n + alpha + beta + 1) * num / den


def _jacobi(n: int, alpha: int, beta: int, x: np.ndarray) -> np.ndarray:
    """Jacobi polynomial normalized to unit weighted L2 norm on [-1, 1]."""
    return eval_jacobi(n, alpha, beta, x) / math.sqrt(_jacobi_norm(n, alpha, beta))


def _jacobi_deriv(n: int, alpha: int, beta: int, x: np.ndarray) -> np.ndarray:
    """Derivative of the normalized Jacobi polynomial."""
    if n == 0:
        return np.zeros_like(x)
    return math.sqrt(n * (n + alpha + beta + 1)) * _jacobi(n - 1, alpha + 1, beta + 1, x)


@dataclass(frozen=True)
class QuadratureRule:
    """Positive-weight quadrature rule on a reference simplex."""

    points: np.ndarray  # (n, dim) or (n,) for segments
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


def segment_quadrature(order: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1] exact for degree <= order."""
    check_parameter("quadrature_order", order, ValueError)
    n = order // 2 + 1
    x, w = roots_legendre(n)
    return QuadratureRule(points=(x + 1.0) / 2.0, weights=w / 2.0)


def triangle_quadrature(order: int) -> QuadratureRule:
    """Collapsed-coordinate product rule on the reference triangle.

    Tensorizes Gauss-Legendre (exact for the kept direction) with
    Gauss-Jacobi weighted by (1 - b) (absorbing the Duffy Jacobian), so the
    rule is exact for all polynomials of total degree <= order with strictly
    positive weights.
    """
    check_parameter("quadrature_order", order, ValueError)
    n = order // 2 + 1
    xa, wa = roots_legendre(n)
    xb, wb = roots_jacobi(n, 1.0, 0.0)
    a = np.repeat(xa, n)
    b = np.tile(xb, n)
    w = np.repeat(wa, n) * np.tile(wb, n)
    # biunit triangle {r, s >= -1, r + s <= 0} then down to the unit triangle
    r = 0.5 * (1.0 + a) * (1.0 - b) - 1.0
    s = b
    pts = np.column_stack([(r + 1.0) / 2.0, (s + 1.0) / 2.0])
    return QuadratureRule(points=pts, weights=w / 8.0)


def _collapsed_coords(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map unit-triangle points to collapsed (a, b) coordinates."""
    r = 2.0 * points[:, 0] - 1.0
    s = 2.0 * points[:, 1] - 1.0
    # clamp away from the top vertex where the map degenerates
    b = np.minimum(s, 1.0 - 1.0e-13)
    a = 2.0 * (1.0 + r) / (1.0 - b) - 1.0
    return a, b


def _check_domain(points: np.ndarray) -> None:
    x, y = points[:, 0], points[:, 1]
    bad = (x < -_DOMAIN_TOL) | (y < -_DOMAIN_TOL) | (x + y > 1.0 + _DOMAIN_TOL)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"point {tuple(points[i])} lies outside the reference triangle"
        )


class TriangleBasis:
    """L2-orthonormal hierarchical basis for P^degree on the reference triangle."""

    def __init__(self, degree: int):
        check_parameter("basis_degree", degree, ValueError)
        self.dim = scalar_space_dim(degree)
        # (m, n) Dubiner mode pairs grouped by total degree
        self.modes = [(m, d - m) for d in range(degree + 1) for m in range(d + 1)]

    def eval(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values (npts, dim) and gradients (npts, dim, 2) at reference points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        _check_domain(points)
        a, b = _collapsed_coords(points)
        npts = points.shape[0]
        vals = np.empty((npts, self.dim))
        grads = np.empty((npts, self.dim, 2))
        one_m_b = 0.5 * (1.0 - b)
        one_p_a = 0.5 * (1.0 + a)
        for idx, (m, n) in enumerate(self.modes):
            fa = _jacobi(m, 0, 0, a)
            dfa = _jacobi_deriv(m, 0, 0, a)
            gb = _jacobi(n, 2 * m + 1, 0, b)
            dgb = _jacobi_deriv(n, 2 * m + 1, 0, b)
            scale = 2.0 ** (m + 0.5)
            pow_m = one_m_b**m
            pow_m1 = one_m_b ** (m - 1) if m > 0 else np.ones_like(b)
            vals[:, idx] = 2.0 * math.sqrt(2.0) * fa * gb * (1.0 - b) ** m
            # d/dr and d/ds on the biunit triangle (Hesthaven-Warburton)
            dr = dfa * gb * pow_m1
            ds = (dfa * gb * one_p_a * pow_m1
                  + fa * (dgb * pow_m - 0.5 * m * gb * pow_m1))
            # unit-triangle gradient picks up d(r,s)/d(x,y) = 2 I and the
            # factor 2 that orthonormalizes on the smaller element
            grads[:, idx, 0] = 4.0 * scale * dr
            grads[:, idx, 1] = 4.0 * scale * ds
        return vals, grads

    def eval_values(self, points: np.ndarray) -> np.ndarray:
        return self.eval(points)[0]


class SegmentBasis:
    """Shifted-Legendre basis for P^degree on [0, 1], orthonormal in L2."""

    def __init__(self, degree: int):
        check_parameter("basis_degree", degree, ValueError)
        self.dim = degree + 1

    def eval(self, points: np.ndarray) -> np.ndarray:
        s = np.atleast_1d(np.asarray(points, dtype=float))
        if np.any((s < -_DOMAIN_TOL) | (s > 1.0 + _DOMAIN_TOL)):
            bad = s[(s < -_DOMAIN_TOL) | (s > 1.0 + _DOMAIN_TOL)][0]
            raise ValueError(f"point {bad} lies outside the reference segment")
        x = 2.0 * s - 1.0
        vals = np.empty((s.shape[0], self.dim))
        for k in range(self.dim):
            vals[:, k] = math.sqrt(2.0) * _jacobi(k, 0, 0, x)
        return vals
