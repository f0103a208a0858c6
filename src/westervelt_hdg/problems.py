"""Built-in problem families used by the experiment recipes and tests."""

from __future__ import annotations

import math

import numpy as np

from .newmark import ProblemDefinition


class SeparableForcing:
    """A forcing sum_i g_i(t) f_i(x, y), callable as f(x, y, t).

    terms holds the pairs (g_i, f_i) of a scalar time factor and a
    vectorized space factor. newmark.run assembles the load of every f_i
    once and forms each step's load as sum_i g_i(t) L_i.
    """

    def __init__(self, *terms):
        self.terms = tuple(terms)

    def __call__(self, x, y, t):
        return sum(g(t) * f(x, y) for g, f in self.terms)


def manufactured_problem(c: float = 100.0, k: float = 0.5,
                         delta: float = 6.0e-9, amplitude: float = 1.0e-2,
                         omega: float = 3.5 * math.pi, ell: float = math.pi,
                         final_time: float = 1.0) -> ProblemDefinition:
    """Separable standing-wave solution on the unit square with the forcing
    that makes it solve the nonlinear damped wave equation exactly."""
    a, w, l = amplitude, omega, ell

    def shape(x, y):
        return np.sin(l * x) * np.sin(l * y)

    def exact_psi(x, y, t):
        return a * math.sin(w * t) * shape(x, y)

    def exact_v(x, y, t):
        s = a * l * math.sin(w * t)
        return (s * np.cos(l * x) * np.sin(l * y),
                s * np.sin(l * x) * np.cos(l * y))

    # the forcing (1 + 2k psi_t) psi_tt - c^2 Lap psi - delta Lap psi_t of
    # psi = a sin(w t) shape is linear in shape, plus 2k psi_t psi_tt in
    # shape^2
    def linear_factor(t):
        return (-a * w * w * math.sin(w * t)
                + c * c * 2.0 * l * l * a * math.sin(w * t)
                + delta * 2.0 * l * l * a * w * math.cos(w * t))

    def quadratic_factor(t):
        return 2.0 * k * (a * w * math.cos(w * t)) * (-a * w * w
                                                      * math.sin(w * t))

    def shape_squared(x, y):
        return shape(x, y) ** 2

    # psi starts at 0 with the velocity a w shape, of this Laplacian
    def lap_psi1(x, y):
        return -2.0 * l * l * a * w * shape(x, y)

    return ProblemDefinition(
        c=c, k=k, delta=delta, final_time=final_time,
        lap_psi1=lap_psi1,
        forcing=SeparableForcing((linear_factor, shape),
                                 (quadratic_factor, shape_squared)),
        exact_psi=exact_psi, exact_v=exact_v,
    )


def delta_study_problem(delta: float, c: float = 1.0, k: float = 0.3,
                        final_time: float = 1.0,
                        amplitude0: float = 1.0e-2) -> ProblemDefinition:
    """Unforced oscillation whose solutions are compared across damping
    values; initial displacement amplitude0*sin(pi x)sin(pi y) and unit
    initial velocity profile."""
    pi2 = math.pi * math.pi

    def shape(x, y):
        return np.sin(math.pi * x) * np.sin(math.pi * y)

    def lap_psi0(x, y):
        return -2.0 * pi2 * amplitude0 * shape(x, y)

    def lap_psi1(x, y):
        return -2.0 * pi2 * shape(x, y)

    return ProblemDefinition(
        c=c, k=k, delta=delta, final_time=final_time,
        lap_psi0=lap_psi0, lap_psi1=lap_psi1,
    )


def wavefront_problem(k: float = -10.0, c: float = 1500.0,
                      delta: float = 6.0e-9, final_time: float = 2.0e-4,
                      strength: float = 400.0, decay: float = 5.0e4,
                      width: float = 3.0e-2,
                      center=(0.5, 0.5)) -> ProblemDefinition:
    """Zero initial data driven by a decaying Gaussian source at the domain
    center; strong self-steepening for negative k."""
    x0, y0 = center

    def decay_factor(t):
        return math.exp(-decay * t)

    def source(x, y):
        r2 = (x - x0) ** 2 + (y - y0) ** 2
        return strength / math.sqrt(width) * np.exp(-r2 / (2.0 * width * width))

    return ProblemDefinition(
        c=c, k=k, delta=delta, final_time=final_time,
        forcing=SeparableForcing((decay_factor, source)),
    )
