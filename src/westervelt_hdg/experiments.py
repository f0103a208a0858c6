"""Experiment recipes: mesh refinement, damping sweep, wavefront steepening.

All tabular output uses 17 significant digits so that re-parsing the files
reproduces the binary doubles exactly and repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import (
    DiscreteScalarField,
    History,
    convergence_rates,
    energy,
    l2_error,
    postprocess,
    scalar_field,
    vector_field,
)
from .basis import triangle_quadrature
from .condensation import reconstruct_velocity
from .config import RunConfig, level_dt
from .mesh import Mesh, generate_structured_mesh, mesh_size, quadrature_points
from .newmark import Discretization, NewmarkConfig, number_of_steps, run
from .operators import SolverError
from .problems import (
    delta_study_problem,
    manufactured_problem,
    wavefront_problem,
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _rate_cell(x: float) -> str:
    """A rate or slope; empty where it is undefined (not finite)."""
    return _fmt(x) if math.isfinite(x) else ""


def _newmark_config(cfg: RunConfig, dt: float) -> NewmarkConfig:
    return NewmarkConfig(dt=dt, gamma=cfg.gamma, beta=cfg.beta, tol=cfg.tol,
                         max_iterations=cfg.max_iterations)


def _discretization(cfg: RunConfig, mesh: Mesh) -> Discretization:
    return Discretization(mesh, cfg.degree, tau_bar=cfg.tau,
                          tau_mode=cfg.tau_mode)


@dataclass
class LevelResult:
    n: int
    h: float
    dt: float
    err_psi: float
    err_v: float
    err_star: float
    mean_iterations: float


@dataclass
class ConvergenceReport:
    levels: list[LevelResult] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def rates_psi(self) -> list[float]:
        return self._rates("err_psi")

    @property
    def rates_v(self) -> list[float]:
        return self._rates("err_v")

    @property
    def rates_star(self) -> list[float]:
        return self._rates("err_star")

    def _rates(self, attr: str) -> list[float]:
        if len(self.levels) < 2:
            return []
        return convergence_rates([getattr(lv, attr) for lv in self.levels],
                                 [lv.h for lv in self.levels])

    def to_csv(self) -> str:
        lines = ["h,dt,err_psi,rate_psi,err_v,rate_v,err_psistar,rate_psistar"]
        rp, rv, rs = self.rates_psi, self.rates_v, self.rates_star
        for i, lv in enumerate(self.levels):
            rates = ("", "", "") if i == 0 else (
                _rate_cell(rp[i - 1]), _rate_cell(rv[i - 1]),
                _rate_cell(rs[i - 1]))
            lines.append(",".join([
                _fmt(lv.h), _fmt(lv.dt), _fmt(lv.err_psi), rates[0],
                _fmt(lv.err_v), rates[1], _fmt(lv.err_star), rates[2]]))
        for msg in self.failures:
            lines.append(f"# {msg}")
        return "\n".join(lines) + "\n"


def h_convergence_study(cfg: RunConfig) -> ConvergenceReport:
    """Manufactured-solution refinement study at the configured degree."""
    prob = manufactured_problem(c=cfg.c, k=cfg.k, delta=cfg.delta,
                                final_time=cfg.final_time)
    report = ConvergenceReport()
    dts = level_dt(cfg, "h_convergence")
    for n in cfg.levels:
        mesh = generate_structured_mesh(n)
        h = mesh_size(mesh)
        dt = dts[n]
        try:
            result = run(prob, _discretization(cfg, mesh),
                         _newmark_config(cfg, dt))
        except SolverError as err:
            # keep whatever levels did finish; the table notes the rest
            report.failures.append(f"n={n}: {err}")
            continue
        state, ops = result.state, result.ops
        vel = reconstruct_velocity(ops, state.psi, state.lam)
        star = postprocess(state.psi, vel, ops)
        report.levels.append(LevelResult(
            n=n, h=h, dt=dt,
            err_psi=l2_error(scalar_field(ops, state.psi), prob.exact_psi,
                             state.t),
            err_v=l2_error(vector_field(ops, vel), prob.exact_v, state.t),
            err_star=l2_error(star, prob.exact_psi, state.t),
            mean_iterations=result.mean_iterations,
        ))
    return report


@dataclass
class DeltaLevel:
    delta: float
    err_psi: float
    err_v: float


# the deltas whose distances the slopes fit: where the distance is still
# linear in delta and far above the corrector tolerance
DELTA_FIT_RANGE = (1.0e-8, 1.0e-2)


@dataclass
class DeltaReport:
    levels: list[DeltaLevel] = field(default_factory=list)

    def _fit(self, attr: str) -> float:
        lo, hi = DELTA_FIT_RANGE
        pts = [(lv.delta, getattr(lv, attr)) for lv in self.levels
               if lo <= lv.delta <= hi and getattr(lv, attr) > 0.0]
        if len(pts) < 2:
            return float("nan")
        xs = np.log([p[0] for p in pts])
        ys = np.log([p[1] for p in pts])
        return float(np.polyfit(xs, ys, 1)[0])

    @property
    def slope_psi(self) -> float:
        return self._fit("err_psi")

    @property
    def slope_v(self) -> float:
        return self._fit("err_v")

    def to_csv(self) -> str:
        lines = ["delta,err_psi,rate_psi,err_v,rate_v"]
        deltas = [lv.delta for lv in self.levels]
        rates = [[""] + [_rate_cell(r) for r in convergence_rates(
                     [getattr(lv, attr) for lv in self.levels], deltas)]
                 for attr in ("err_psi", "err_v")]
        for lv, rp, rv in zip(self.levels, *rates):
            lines.append(",".join([
                _fmt(lv.delta), _fmt(lv.err_psi), rp, _fmt(lv.err_v), rv]))
        lines.append(f"# slope_psi,{_rate_cell(self.slope_psi)}")
        lines.append(f"# slope_v,{_rate_cell(self.slope_v)}")
        return "\n".join(lines) + "\n"


def delta_convergence_study(cfg: RunConfig,
                            deltas=(1.0e-2, 1.0e-4, 1.0e-6, 1.0e-8, 1.0e-10),
                            ) -> DeltaReport:
    """Distance of damped runs from the undamped run at the final time.

    All runs share one discretization of the first configured level, the
    initial data and the time step, so each run builds only its condensed
    operators and initial acceleration; differences are measured in the
    scalar and vector mass norms. The deltas must be positive and strictly
    decreasing, as the rates between consecutive runs need; others are
    refused with ValueError before the first run.
    """
    if not (all(d > 0.0 for d in deltas)
            and all(a > b for a, b in zip(deltas, deltas[1:]))):
        raise ValueError(f"deltas must be positive and strictly decreasing, "
                         f"got {tuple(deltas)}")
    disc = _discretization(cfg, generate_structured_mesh(cfg.levels[0]))
    dt = level_dt(cfg, "delta_convergence")[cfg.levels[0]]
    ncfg = _newmark_config(cfg, dt)
    undamped = delta_study_problem(0.0, c=cfg.c, k=cfg.k,
                                   final_time=cfg.final_time)
    # the final state of each run; its condensed operators are freed
    base = run(undamped, disc, ncfg).state
    ops = disc.ops
    detj = ops.tables.detj
    base_vel = reconstruct_velocity(ops, base.psi, base.lam)
    report = DeltaReport()
    for delta in deltas:
        res = run(replace(undamped, delta=delta), disc, ncfg).state
        dvel = reconstruct_velocity(ops, res.psi, res.lam) - base_vel
        # sqrt(x M x) in the mass norms: M and Mv are |det J| I
        err_psi, err_v = (
            float(np.sqrt(detj @ np.square(x.reshape(detj.size, -1)).sum(1)))
            for x in (res.psi - base.psi, dvel))
        report.levels.append(DeltaLevel(delta, err_psi, err_v))
    return report


@dataclass
class WavefrontResult:
    dt: float
    profile_x: np.ndarray
    profile_nonlinear: np.ndarray
    profile_linear: np.ndarray
    snapshots: dict  # (variant, time) -> DiscreteScalarField of d(psi)/dt
    mean_iterations: dict  # variant -> float


def wavefront_study(cfg: RunConfig) -> WavefrontResult:
    """Self-steepening run against its linear (k = 0) twin.

    Snapshots store the velocity field d(psi)/dt at the configured times,
    each at its own whole step of dt (see RunConfig.validate); the profile
    samples it along the horizontal midline at the final time.
    """
    mesh = generate_structured_mesh(cfg.levels[0])
    disc = _discretization(cfg, mesh)
    dt = level_dt(cfg, "wavefront")[cfg.levels[0]]
    ncfg = _newmark_config(cfg, dt)
    targets = {int(round(ts / dt)): ts for ts in cfg.snapshot_times}
    snapshots: dict = {}
    mean_iterations: dict = {}
    profiles: dict = {}
    for variant, k in (("nonlinear", cfg.k), ("linear", 0.0)):
        prob = wavefront_problem(k=k, c=cfg.c, delta=cfg.delta,
                                 final_time=cfg.final_time)

        def observer(state, variant=variant):
            step = int(round(state.t / dt))
            if step in targets:
                snapshots[(variant, targets[step])] = DiscreteScalarField(
                    mesh, cfg.degree, state.dpsi.copy())

        result = run(prob, disc, ncfg, observer)
        mean_iterations[variant] = result.mean_iterations
        profiles[variant] = DiscreteScalarField(mesh, cfg.degree,
                                                result.state.dpsi.copy())
    x = np.linspace(0.0, 1.0, cfg.profile_samples)
    pts = np.column_stack([x, np.full_like(x, 0.5)])
    return WavefrontResult(
        dt=dt, profile_x=x,
        profile_nonlinear=profiles["nonlinear"].eval_at(pts),
        profile_linear=profiles["linear"].eval_at(pts),
        snapshots=snapshots,
        mean_iterations=mean_iterations,
    )


def profile_csv(result: WavefrontResult) -> str:
    lines = ["x,dpsi_nonlinear,dpsi_linear"]
    for x, a, b in zip(result.profile_x, result.profile_nonlinear,
                       result.profile_linear):
        lines.append(f"{_fmt(x)},{_fmt(a)},{_fmt(b)}")
    return "\n".join(lines) + "\n"


@dataclass
class SingleRunSummary:
    kind: str
    n: int
    dt: float
    times: list[float]
    energies0: list[float]
    energies1: list[float]
    mean_iterations: float
    err_psi: float | None
    err_v: float | None

    def energy_csv(self) -> str:
        lines = ["t,e0,e1"]
        for t, e0, e1 in zip(self.times, self.energies0, self.energies1):
            lines.append(f"{_fmt(t)},{_fmt(e0)},{_fmt(e1)}")
        return "\n".join(lines) + "\n"


# the problem family of each kind
_PROBLEMS = {"h_convergence": manufactured_problem,
             "delta_convergence": delta_study_problem,
             "wavefront": wavefront_problem}


def single_run_study(cfg: RunConfig) -> SingleRunSummary:
    """One run of the configured problem family on its first mesh level,
    recording the energy pair over time: the run stores the accelerations
    of every state in a History, which replays the states for their
    energies after the time loop."""
    prob = _PROBLEMS[cfg.kind](c=cfg.c, k=cfg.k, delta=cfg.delta,
                               final_time=cfg.final_time)
    mesh = generate_structured_mesh(cfg.levels[0])
    dt = level_dt(cfg, "run")[cfg.levels[0]]
    ncfg = _newmark_config(cfg, dt)
    history = History(number_of_steps(cfg.final_time, dt) + 1, ncfg)
    result = run(prob, _discretization(cfg, mesh), ncfg, history)
    ops, state = result.ops, result.state
    mean_iterations = result.mean_iterations
    # the condensed operators are done with: free them for the energies
    del result
    energies0, energies1 = energy(history, ops, prob.k, prob.c)
    err_psi = err_v = None
    if prob.exact_psi is not None:
        err_psi = l2_error(scalar_field(ops, state.psi), prob.exact_psi,
                           state.t)
        vel = reconstruct_velocity(ops, state.psi, state.lam)
        err_v = l2_error(vector_field(ops, vel), prob.exact_v, state.t)
    return SingleRunSummary(
        kind=cfg.kind, n=cfg.levels[0], dt=dt,
        times=history.t.tolist(),
        energies0=energies0.tolist(),
        energies1=energies1.tolist(),
        mean_iterations=mean_iterations,
        err_psi=err_psi, err_v=err_v,
    )


def export_field(fld: DiscreteScalarField, path, fmt: str = "csv") -> None:
    """Write a scalar field as point samples (csv) or legacy VTK text.

    CSV rows are x,y,value at every element quadrature point, formatted so
    re-parsing reproduces the doubles exactly. VTK output carries
    vertex-averaged values on the triangulation.
    """
    mesh = fld.mesh
    if fmt == "csv":
        rule = triangle_quadrature(2 * fld.degree + 2)
        xq = quadrature_points(mesh, rule.points)
        rows = np.column_stack([xq.reshape(-1, 2),
                                fld.eval_reference(rule.points).reshape(-1)])
        with open(path, "w", encoding="utf-8") as fh:
            np.savetxt(fh, rows, fmt="%.17g", delimiter=",",
                       header="x,y,value", comments="")
        return
    if fmt == "vtk":
        ref_corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        corner_vals = fld.eval_reference(ref_corners)  # (ne, 3)
        # bincount adds the (element, corner) values in element order
        corners = mesh.triangles.ravel()
        acc = np.bincount(corners, weights=corner_vals.ravel(),
                          minlength=mesh.n_vertices)
        cnt = np.bincount(corners, minlength=mesh.n_vertices)
        vertex_vals = acc / np.maximum(cnt, 1.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# vtk DataFile Version 2.0\n")
            fh.write("scalar field\nASCII\nDATASET UNSTRUCTURED_GRID\n")
            fh.write(f"POINTS {mesh.n_vertices} double\n")
            np.savetxt(fh, mesh.vertices, fmt="%.17g %.17g 0")
            fh.write(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}\n")
            np.savetxt(fh, mesh.triangles, fmt="3 %d %d %d")
            fh.write(f"CELL_TYPES {mesh.n_triangles}\n")
            fh.write("5\n" * mesh.n_triangles)
            fh.write(f"POINT_DATA {mesh.n_vertices}\n")
            fh.write("SCALARS value double 1\nLOOKUP_TABLE default\n")
            np.savetxt(fh, vertex_vals, fmt="%.17g")
        return
    raise ValueError(f"unknown export format {fmt!r}, expected 'csv' or 'vtk'")

