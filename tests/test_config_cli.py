"""Configuration parsing, problem-family consistency, CSV/VTK export,
and the command line front end (exit codes, file outputs, determinism)."""

import configparser
import contextlib
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, given, settings, strategies as st

from westervelt_hdg import condensation, experiments
from westervelt_hdg.cli import StudyFailure, main
from westervelt_hdg.config import (
    _KEYS,
    DELTA_ANCHOR_LEVEL,
    ConfigError,
    RunConfig,
    default_config,
    h_rule_steps,
    level_dt,
    parse_config,
    serialize_config,
)
from westervelt_hdg.experiments import (
    ConvergenceReport,
    DeltaLevel,
    DeltaReport,
    LevelResult,
    export_field,
    h_convergence_study,
)
from westervelt_hdg.analysis import DiscreteScalarField
from westervelt_hdg.basis import (
    SegmentBasis,
    TriangleBasis,
    segment_quadrature,
    triangle_quadrature,
)
from westervelt_hdg.condensation import CondensationError, build_condensed
from westervelt_hdg.mesh import (
    MeshError,
    compute_facet_topology,
    generate_structured_mesh,
)
from westervelt_hdg.newmark import (
    NewmarkConfig,
    NonconvergenceError,
    ProblemDefinition,
)
from westervelt_hdg.operators import (
    AssemblyError,
    BlockPattern,
    NondegeneracyError,
    SolverError,
    assemble_operators,
    tau_pattern,
)
from westervelt_hdg.parameters import (
    MAX_DEGREE,
    MAX_LEVEL_BYTES,
    MAX_PROFILE_SAMPLES,
    MAX_STEPS,
    PARAMETERS,
    level_bytes,
)
from westervelt_hdg.problems import (
    delta_study_problem,
    manufactured_problem,
    wavefront_problem,
)

import oracles
from oracles import import_field_csv


def readme_config_block() -> str:
    """The config file example of the README, dedented."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    return textwrap.dedent(readme.split(
        "Config file structure (all keys optional):\n", 1)[1].split(
        "\nOutputs:", 1)[0])


class TestConfig:
    def test_defaults_per_kind(self):
        h = default_config("h_convergence")
        assert h.kind == "h_convergence"
        assert h.levels == (4, 8, 16, 32)
        assert h.c == 100.0 and h.dt is None
        d = default_config("delta_convergence")
        assert d.c == 1.0 and d.k == 0.3 and d.levels == (16,)
        assert d.tau == 4.0 and d.tau_mode == "uniform"
        w = default_config("wavefront")
        assert w.degree == 5 and w.dt == 1.0e-6
        assert w.gamma == 0.85 and w.beta == 0.45
        with pytest.raises(ConfigError, match="unknown problem kind"):
            default_config("spectral")

    @pytest.mark.parametrize("kind", ["h_convergence", "delta_convergence",
                                      "wavefront"])
    def test_serialize_parse_round_trip(self, kind):
        cfg = default_config(kind)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_preserves_overrides(self):
        cfg = RunConfig(kind="wavefront", c=1500.0, k=-10.0, delta=6.0e-9,
                        final_time=2.0e-4, degree=3, levels=(16,),
                        gamma=0.85, beta=0.45, dt=1.0e-6,
                        snapshot_times=(5.0e-5, 2.0e-4),
                        output_dir="results/front", profile_samples=129)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_sets_every_field(self):
        # every field differs from RunConfig() and, but for the kind, from
        # the kind's defaults, so the parse must set each one from the text
        cfg = RunConfig(kind="wavefront", c=2.5, k=-0.125, delta=1.0e-3,
                        final_time=0.5, degree=2, levels=(3, 6), tau=2.0,
                        tau_mode="uniform", gamma=0.6, beta=0.3, tol=1.0e-8,
                        max_iterations=7, coarse_steps=40, dt=1.0e-2,
                        output_dir="runs/a b", snapshot_times=(0.1, 0.25),
                        profile_samples=33)
        kind_defaults = default_config(cfg.kind)
        for f in dataclasses.fields(RunConfig):
            value = getattr(cfg, f.name)
            assert value != getattr(RunConfig(), f.name)
            assert f.name == "kind" or value != getattr(kind_defaults, f.name)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_keys_table_names_every_field_once(self):
        fields = [name for _, name, _ in _KEYS.values()]
        assert sorted(fields) == sorted(f.name for f in
                                        dataclasses.fields(RunConfig))

    def test_readme_config_block_names_every_key(self):
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read_string(readme_config_block())
        named = {(section, key) for section in parser.sections()
                 for key in parser[section]}
        assert named == {(section, key)
                         for key, (section, _, _) in _KEYS.items()}

    def test_overlay_on_base(self):
        base = default_config("wavefront")
        cfg = parse_config("[newmark]\ndt = 5e-7\n", base=base)
        assert cfg.dt == 5.0e-7
        assert cfg.kind == "wavefront" and cfg.c == base.c

    def test_unknown_section_and_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config("[spectral]\nmodes = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[problem]\nmach = 2\n")

    def test_number_parse_errors_name_the_location(self):
        with pytest.raises(ConfigError, match=r"\[problem\] c"):
            parse_config("[problem]\nc = fast\n")
        with pytest.raises(ConfigError, match=r"\[discretization\] degree"):
            parse_config("[discretization]\ndegree = 1.5\n")
        with pytest.raises(ConfigError, match="levels must be integers"):
            parse_config("[discretization]\nlevels = 4,eight\n")
        with pytest.raises(ConfigError, match="snapshot_times"):
            parse_config("[output]\nsnapshot_times = 0.1,later\n")

    def test_levels_accept_commas_and_spaces(self):
        a = parse_config("[discretization]\nlevels = 4,8,16\n")
        b = parse_config("[discretization]\nlevels = 4 8 16\n")
        assert a.levels == b.levels == (4, 8, 16)

    def test_kind_conflict_with_base(self):
        base = default_config("h_convergence")
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config("[problem]\nkind = wavefront\n", base=base)

    def test_dt_none_round_trip(self):
        cfg = default_config("h_convergence")
        assert cfg.dt is None
        assert parse_config(serialize_config(cfg)).dt is None

    @pytest.mark.parametrize("field,value,match", [
        ("kind", "unknown", "unknown problem kind"),
        ("c", -1.0, "c must be positive"),
        ("delta", -1.0e-9, "delta must be"),
        ("final_time", 0.0, "final_time"),
        ("degree", -1, "degree"),
        ("levels", (), "levels"),
        ("levels", (0,), "levels"),
        ("tau", 0.0, "tau must be positive"),
        ("tau_mode", "everywhere", "tau_mode"),
        ("gamma", 1.5, "gamma"),
        ("beta", 0.6, "beta"),
        ("tol", 0.0, "tol"),
        ("max_iterations", 0, "max_iterations"),
        ("coarse_steps", 0, "coarse_steps"),
        ("dt", -0.1, "dt must be positive"),
        ("snapshot_times", (-1.0,), "snapshot_times"),
        ("profile_samples", 1, "profile_samples"),
        ("profile_samples", MAX_PROFILE_SAMPLES + 1,
         "profile_samples must be <= 1000000"),
        ("degree", MAX_DEGREE + 1, "degree must be <="),
        ("c", math.nan, "c must be finite"),
        ("k", math.inf, "k must be finite"),
        ("delta", math.nan, "delta must be finite"),
        ("final_time", math.inf, "final_time must be finite"),
        ("tau", math.inf, "tau must be finite"),
        ("gamma", math.nan, "gamma must be finite"),
        ("beta", math.nan, "beta must be finite"),
        ("tol", math.inf, "tol must be finite"),
        ("dt", math.nan, "dt must be finite"),
        ("snapshot_times", (1.0, math.inf), "snapshot_times must be finite"),
        ("c", 1.0e-300, r"c\^2 must be a positive finite number"),
        ("c", 1.0e200, r"c\^2 must be a positive finite number"),
        ("dt", 1.0e-320, "final_time / dt overflows"),
        ("snapshot_times", (0.5, 2.0), r"must lie in \[0, final_time\]"),
        ("dt", 1.0e-300, r"final_time / dt must be <= 10000000 steps"),
        ("dt", 9.0e-8, r"final_time / dt must be <= 10000000 steps"),
        ("coarse_steps", MAX_STEPS + 1, "coarse_steps must be <= 10000000"),
        ("levels", (1, 2000), r"level 2000 needs 1\.79e\+07 time steps under "
                              r"the h-rule"),
        ("levels", (4, 10**400), "needs inf time steps under the h-rule"),
        ("degree", MAX_DEGREE, "level 16 needs .* under the h-rule"),
    ])
    def test_validate_rejects_bad_fields(self, field, value, match):
        import dataclasses
        cfg = dataclasses.replace(default_config("h_convergence"),
                                  **{field: value})
        with pytest.raises(ConfigError, match=match):
            cfg.validate()

    def test_dt_must_divide_final_time(self):
        import dataclasses
        base = default_config("h_convergence")
        for final_time, dt in ((0.01, 3.0e-3), (0.01, 1.0e150),
                               (1.0, 0.03)):
            cfg = dataclasses.replace(base, final_time=final_time, dt=dt)
            with pytest.raises(ConfigError,
                               match="not a whole number of steps of dt"):
                cfg.validate()
        # ratios off by roundoff only: the delta-sweep and energy-run
        # benchmark workloads and the default wavefront study
        for final_time, dt in ((0.3, 1.0e-2), (1.0, 5.0e-3), (2.0e-4, 1.0e-6)):
            dataclasses.replace(base, final_time=final_time, dt=dt).validate()
        default_config("wavefront").validate()
        # the h-rule step of a denormal final time does not divide it either
        tiny = dataclasses.replace(base, final_time=1.0e-320, levels=(1,),
                                   coarse_steps=10)
        with pytest.raises(ConfigError, match="not a whole number of steps"):
            tiny.validate()

    def test_step_cap_is_inclusive(self):
        import dataclasses
        base = default_config("h_convergence")  # final_time = 1
        dataclasses.replace(base, dt=1.0 / MAX_STEPS).validate()
        # one level: the h-rule asks for coarse_steps steps on it
        dataclasses.replace(base, coarse_steps=MAX_STEPS,
                            levels=(4,)).validate()
        # at p = 0 the h-rule doubles the steps per level:
        # 1250 * 2^13 = 10240000 is refused, 1220 * 2^13 = 9994240 is not
        levels = tuple(2 ** i for i in range(14))
        h_rule = dataclasses.replace(base, degree=0, levels=levels,
                                     coarse_steps=1220)
        h_rule.validate()
        with pytest.raises(ConfigError, match="level 8192 needs"):
            dataclasses.replace(h_rule, coarse_steps=1250).validate()

    def test_h_rule_cap_counts_the_study_steps(self):
        # validate counts the steps level_dt gives each level of the study
        import dataclasses
        cfg = dataclasses.replace(default_config("h_convergence"), degree=2,
                                  levels=(4, 8, 16), coarse_steps=200)
        dts = level_dt(cfg, "h_convergence")
        for n in cfg.levels:
            assert round(cfg.final_time / dts[n]) == \
                h_rule_steps(cfg.coarse_steps, cfg.degree, n / 4)
        # the delta study anchors its single level at DELTA_ANCHOR_LEVEL
        delta = dataclasses.replace(default_config("delta_convergence"),
                                    degree=20, levels=(64,))
        with pytest.raises(ConfigError, match="level 64 needs"):
            delta.validate()
        dataclasses.replace(delta, levels=(DELTA_ANCHOR_LEVEL,)).validate()

    def test_run_is_checked_against_its_own_step_rule(self):
        # a single run takes coarse_steps steps on its level: the delta
        # study's anchor at n = 4 does not apply to it
        import dataclasses
        cfg = dataclasses.replace(default_config("delta_convergence"),
                                  degree=20, levels=(20,), coarse_steps=1,
                                  final_time=1.0e-3)
        with pytest.raises(ConfigError, match="level 20 needs 4.88e"):
            cfg.validate()
        assert cfg.validate("run") is cfg
        assert level_dt(cfg, "run") == {20: 1.0e-3}
        text = serialize_config(cfg)
        assert parse_config(text).validate("run") == cfg
        with pytest.raises(ConfigError, match="level 20 needs"):
            parse_config(text).validate()

    def test_readme_config_block_parses(self):
        cfg = parse_config(readme_config_block())
        assert cfg.kind == "h_convergence" and cfg.c == 100.0
        assert cfg.levels == (4, 8, 16, 32)
        assert cfg.tau_mode == "single_facet"
        assert cfg.max_iterations == 100
        assert cfg.dt is None
        assert cfg.snapshot_times == (5.0e-5, 2.0e-4)

    def test_hash_inline_comments(self):
        cfg = parse_config("[problem]\nc = 3.0  # wave speed\n")
        assert cfg.c == 3.0

    def test_config_file_missing(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read ")
        assert err.count("\n") == 1

    def test_config_file_is_read(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[problem]\nk = 0.25\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--p", "0", "--levels",
                     "1", "--out", str(out)]) == 0
        written = parse_config((out / "config.ini").read_text(
            encoding="utf-8")).validate("run")
        assert written.k == 0.25

    @pytest.mark.parametrize("tau_mode", ["single_facet", "uniform"])
    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_level_bytes_counts_the_stored_arrays(self, degree, n, tau_mode):
        # every array the mesh, its topology, the assembled and condensed
        # operators, the facet patterns and the L and U of both facet
        # factors hold, CSR index arrays included; an array that a matrix
        # shares with a pattern counts once
        msh = generate_structured_mesh(n)
        topo = compute_facet_topology(msh)
        ops = assemble_operators(msh, topo, degree, tau_mode=tau_mode)
        cond = build_condensed(ops, 1.0, 0.0, 0.01, 0.5, 0.25)
        seen = []

        def nbytes(value):
            if isinstance(value, scipy.sparse.linalg.SuperLU):
                return nbytes(value.L) + nbytes(value.U)
            if scipy.sparse.issparse(value):
                return nbytes((value.data, value.indices, value.indptr))
            if isinstance(value, BlockPattern):
                return nbytes(tuple(vars(value).values()))
            if isinstance(value, tuple):
                return sum(nbytes(a) for a in value)
            if not isinstance(value, np.ndarray) or any(
                    np.shares_memory(value, a) for a in seen):
                return 0
            seen.append(value)
            return value.nbytes

        held = sum(nbytes(value) for obj in (msh, topo, ops, ops.tables, cond)
                   for value in vars(obj).values())
        assert held <= level_bytes(n, degree, tau_mode=tau_mode) <= 1.15 * held

    def test_level_cap(self):
        base = default_config("h_convergence")
        assert level_bytes(10**5, 0) > MAX_LEVEL_BYTES
        for n in (10**5, 10**400):
            cfg = dataclasses.replace(base, levels=(4, n), dt=1.0e-3)
            with pytest.raises(ConfigError,
                               match=f"level {n} needs an estimated"):
                cfg.validate()
        # the delta study runs its first level only
        delta = dataclasses.replace(default_config("delta_convergence"),
                                    levels=(16, 10**5))
        assert delta.validate() is delta


# every entry point that takes parameters of parameters.PARAMETERS: the
# parameters it takes and the exception class of its refusal
ENTRY_POINTS = {
    "RunConfig.validate": (tuple(key for key in _KEYS if key in PARAMETERS),
                           ConfigError),
    "NewmarkConfig": (("dt", "gamma", "beta", "tol", "max_iterations"),
                      ValueError),
    "ProblemDefinition": (("c", "k", "delta", "final_time"), ValueError),
    "build_condensed": (("c", "delta", "dt", "gamma", "beta"),
                        CondensationError),
    "tau_pattern": (("tau", "tau_mode"), AssemblyError),
    "assemble_operators": (("degree",), AssemblyError),
    "generate_structured_mesh": (("levels",), MeshError),
    "TriangleBasis": (("basis_degree",), ValueError),
    "SegmentBasis": (("basis_degree",), ValueError),
    "triangle_quadrature": (("quadrature_order",), ValueError),
    "segment_quadrature": (("quadrature_order",), ValueError),
}

# the entry points that take their one parameter as their one argument
ONE_ARGUMENT = {"generate_structured_mesh": generate_structured_mesh,
                "TriangleBasis": TriangleBasis, "SegmentBasis": SegmentBasis,
                "triangle_quadrature": triangle_quadrature,
                "segment_quadrature": segment_quadrature}


def call_entry_point(entry, name, value):
    """Call entry with valid defaults and value for parameter name."""
    if entry == "RunConfig.validate":
        # one level of n = 2 passes the cross-field checks at every bound
        base = dataclasses.replace(default_config("h_convergence"),
                                   levels=(2,))
        form = _KEYS[name][2]
        value = (value,) if form in ("integers", "numbers") else value
        return dataclasses.replace(base, **{name: value}).validate()
    if entry == "NewmarkConfig":
        return NewmarkConfig(**{"dt": 0.1, name: value})
    if entry == "ProblemDefinition":
        return ProblemDefinition(**{"c": 1.0, name: value})
    if entry in ONE_ARGUMENT:
        return ONE_ARGUMENT[entry](value)
    msh = generate_structured_mesh(1)
    topo = compute_facet_topology(msh)
    if entry == "tau_pattern":
        args = {"tau": 1.0, "tau_mode": "uniform", name: value}
        return tau_pattern(topo, args["tau"], args["tau_mode"])
    if entry == "assemble_operators":
        return assemble_operators(msh, topo, value)
    args = {"c": 1.0, "delta": 0.0, "dt": 0.1, "gamma": 0.5, "beta": 0.25,
            name: value}
    ops = assemble_operators(msh, topo, 0)
    return build_condensed(ops, **args)


# values that are not real numbers, refused for every interval parameter
NOT_REAL = [True, np.True_, "0.1", 1 + 0j, np.array([1.0])]


def numpy_scalar(bound):
    """bound as a numpy scalar, which is no Python int or float."""
    return np.int64(bound) if isinstance(bound, int) else np.float32(bound)


def range_cases():
    """(refused values, accepted bounds) of every parameter: for a choice,
    an unknown string and arrays of the choices, and each choice; for an
    interval, NaN, +-inf, the values of NOT_REAL, the nearest value outside
    each finite bound and, for an integer, 2.5 and 2.0, and each closed
    finite bound; c is also refused where c^2 underflows or overflows."""
    cases = {}
    for name, (_, allowed, *_) in PARAMETERS.items():
        if isinstance(allowed, tuple):
            cases[name] = (["unknown", np.array(allowed[:1]),
                            np.array(allowed)], list(allowed))
            continue
        integer = allowed.startswith("integer in ")
        allowed = allowed.removeprefix("integer in ")
        low, high = (float(b) for b in allowed[1:-1].split(", "))
        refused, accepted = [math.nan, math.inf, -math.inf, *NOT_REAL], []
        if integer:
            refused += [2.5, 2.0]
        if math.isfinite(low):
            if allowed[0] == "[":
                accepted.append(int(low) if integer else low)
                refused.append(int(low) - 1 if integer
                               else math.nextafter(low, -math.inf))
            else:
                refused.append(low)
        if math.isfinite(high):
            accepted.append(int(high) if integer else high)
            refused.append(int(high) + 1 if integer
                           else math.nextafter(high, math.inf))
        cases[name] = (refused, accepted)
    cases["c"][0].extend([1.0e-300, 1.0e200])
    return cases


RANGE_CASES = range_cases()


class TestParameterRanges:
    @pytest.mark.parametrize("entry,name,value", [
        (entry, name, value) for entry, (names, _) in ENTRY_POINTS.items()
        for name in names for value in RANGE_CASES[name][0]])
    def test_every_entry_point_refuses_the_same_values(self, entry, name,
                                                       value):
        error = ENTRY_POINTS[entry][1]
        with pytest.raises(error) as info:
            call_entry_point(entry, name, value)
        # the refusal comes from parameters.check_parameter
        assert str(info.value).startswith((f"{name} must be ",
                                           f"{name}^2 must be "))

    @pytest.mark.parametrize("entry,name,value", [
        (entry, name, value) for entry, (names, _) in ENTRY_POINTS.items()
        for name in names for bound in RANGE_CASES[name][1]
        for value in ([bound] if isinstance(bound, str)
                      else [bound, numpy_scalar(bound)])])
    def test_every_entry_point_accepts_the_closed_bounds(self, entry, name,
                                                         value):
        call_entry_point(entry, name, value)

    def test_closed_bounds_include_the_documented_ones(self):
        accepted = {name: cases[1] for name, cases in RANGE_CASES.items()}
        assert accepted["delta"] == [0.0]
        assert accepted["gamma"] == [0.0, 1.0]
        assert accepted["beta"] == [0.0, 0.5]
        assert accepted["max_iterations"] == [1]
        assert accepted["degree"] == [0, MAX_DEGREE]

    def test_every_value_key_has_a_range(self):
        # a later number, integer or step key cannot skip its range check
        assert {key for key, (_, _, form) in _KEYS.items()
                if form in ("number", "integer", "step", "integers",
                            "numbers")} <= set(PARAMETERS)
        # and the integer keys are the integer parameters of the file
        assert {key for key, (_, _, form) in _KEYS.items()
                if form in ("integer", "integers")} == {
            name for name, (_, allowed, *_) in PARAMETERS.items()
            if str(allowed).startswith("integer in ") and name in _KEYS}
        # the rows that no key sets: c^2 and mu, which the file's keys
        # determine, and the ranges of the bases and quadrature rules
        assert set(PARAMETERS) - set(_KEYS) == {"c^2", "mu", "basis_degree",
                                                "quadrature_order"}


def fd_t(f, x, y, t, h=1.0e-5):
    return (f(x, y, t + h) - f(x, y, t - h)) / (2.0 * h)


def fd_tt(f, x, y, t, h=1.0e-5):
    return (f(x, y, t + h) - 2.0 * f(x, y, t) + f(x, y, t - h)) / (h * h)


def fd_lap(f, x, y, t, h=1.0e-4):
    return (f(x + h, y, t) + f(x - h, y, t) + f(x, y + h, t)
            + f(x, y - h, t) - 4.0 * f(x, y, t)) / (h * h)


class TestProblemFamilies:
    def test_manufactured_forcing_solves_the_equation(self):
        # forcing must equal (1 + 2k dpsi) ddpsi - c^2 lap(psi)
        # - delta lap(dpsi) with all derivatives taken by finite differences
        prob = manufactured_problem(c=100.0, k=0.5, delta=6.0e-9)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.1, 0.9, size=(20, 2))
        times = rng.uniform(0.05, 0.95, size=20)
        worst = 0.0
        scale = 0.0
        for (x, y), t in zip(pts, times):
            psi = prob.exact_psi
            dpsi = fd_t(psi, x, y, t)
            ddpsi = fd_tt(psi, x, y, t)
            lap = fd_lap(psi, x, y, t)
            lap_dpsi = (fd_lap(psi, x, y, t + 1.0e-5)
                        - fd_lap(psi, x, y, t - 1.0e-5)) / 2.0e-5
            want = ((1.0 + 2.0 * prob.k * dpsi) * ddpsi
                    - prob.c ** 2 * lap - prob.delta * lap_dpsi)
            got = prob.forcing(x, y, t)
            worst = max(worst, abs(got - want))
            scale = max(scale, abs(got))
        assert worst <= 1.0e-6 * scale

    @pytest.mark.parametrize("family,params", [
        ("manufactured", {}),
        ("manufactured", {"c": 1.0, "k": 0.3, "delta": 0.5, "omega": 7.0}),
        ("manufactured", {"c": 3.0, "k": -2.0, "delta": 1.0e-3,
                          "amplitude": 0.2, "ell": 2.0 * math.pi}),
        ("wavefront", {}),
        ("wavefront", {"strength": 7.0, "decay": 3.0, "width": 0.2,
                       "center": (0.3, 0.6)}),
    ])
    def test_separable_terms_reproduce_the_forcing(self, family, params):
        # sum_i g_i(t) f_i(x, y) over the terms equals the forcing callable
        # and the closed form the forcing had before it was split
        rng = np.random.default_rng(6)
        x, y = rng.uniform(0.0, 1.0, size=(2, 50))
        if family == "manufactured":
            p = {"c": 100.0, "k": 0.5, "delta": 6.0e-9, "amplitude": 1.0e-2,
                 "omega": 3.5 * math.pi, "ell": math.pi, **params}
            prob = manufactured_problem(**params)
            times = rng.uniform(0.0, 1.0, size=8)
            a, w, l = p["amplitude"], p["omega"], p["ell"]

            def closed(x, y, t):
                sh = np.sin(l * x) * np.sin(l * y)
                dpsi = a * w * math.cos(w * t) * sh
                ddpsi = -a * w * w * math.sin(w * t) * sh
                lap = -2.0 * l * l * a * math.sin(w * t) * sh
                lap_dpsi = -2.0 * l * l * a * w * math.cos(w * t) * sh
                return ((1.0 + 2.0 * p["k"] * dpsi) * ddpsi
                        - p["c"] ** 2 * lap - p["delta"] * lap_dpsi)
        else:
            p = {"strength": 400.0, "decay": 5.0e4, "width": 3.0e-2,
                 "center": (0.5, 0.5), **params}
            prob = wavefront_problem(**params)
            times = rng.uniform(0.0, 5.0 / p["decay"], size=8)
            (x0, y0), width = p["center"], p["width"]

            def closed(x, y, t):
                r2 = (x - x0) ** 2 + (y - y0) ** 2
                return (p["strength"] / math.sqrt(width)
                        * math.exp(-p["decay"] * t)
                        * np.exp(-r2 / (2.0 * width * width)))
        assert len(prob.forcing.terms) == (2 if family == "manufactured"
                                           else 1)
        for t in times:
            summed = sum(g(t) * f(x, y) for g, f in prob.forcing.terms)
            want = closed(x, y, t)
            scale = np.max(np.abs(want))
            assert scale > 0.0
            assert np.max(np.abs(summed - want)) <= 1e-13 * scale
            assert np.max(np.abs(prob.forcing(x, y, t) - want)) <= 1e-13 * scale

    def test_manufactured_exact_fields_are_consistent(self):
        prob = manufactured_problem()
        rng = np.random.default_rng(3)
        for x, y, t in rng.uniform(0.1, 0.9, size=(10, 3)):
            h = 1.0e-6
            gx = (prob.exact_psi(x + h, y, t)
                  - prob.exact_psi(x - h, y, t)) / (2.0 * h)
            gy = (prob.exact_psi(x, y + h, t)
                  - prob.exact_psi(x, y - h, t)) / (2.0 * h)
            vx, vy = prob.exact_v(x, y, t)
            assert abs(vx - gx) <= 1e-6 * max(1.0, abs(gx))
            assert abs(vy - gy) <= 1e-6 * max(1.0, abs(gy))

    def test_manufactured_initial_data_consistency(self):
        prob = manufactured_problem()
        rng = np.random.default_rng(4)
        assert prob.lap_psi0 is None  # the standing wave starts at zero

        # the initial velocity of the default standing wave
        def psi1(x, y):
            return (1.0e-2 * 3.5 * math.pi * np.sin(math.pi * x)
                    * np.sin(math.pi * y))

        for x, y in rng.uniform(0.1, 0.9, size=(8, 2)):
            assert prob.exact_psi(x, y, 0.0) == 0.0
            dpsi_fd = fd_t(prob.exact_psi, x, y, 0.0)
            assert abs(psi1(x, y) - dpsi_fd) <= 1e-6 * max(
                1.0, abs(dpsi_fd))

            def f(xx, yy, tt):
                return psi1(xx, yy)

            lap_fd = fd_lap(f, x, y, 0.0)
            assert abs(prob.lap_psi1(x, y) - lap_fd) <= 1e-5 * max(
                1.0, abs(lap_fd))

    def test_delta_study_laplacians(self):
        prob = delta_study_problem(1.0e-4)
        rng = np.random.default_rng(5)

        def shape(x, y):
            return np.sin(math.pi * x) * np.sin(math.pi * y)

        # the default data: 1e-2 shape and shape
        for x, y in rng.uniform(0.1, 0.9, size=(8, 2)):
            for scale, lap in ((1.0e-2, prob.lap_psi0),
                               (1.0, prob.lap_psi1)):
                def g(xx, yy, tt):
                    return scale * shape(xx, yy)

                lap_fd = fd_lap(g, x, y, 0.0)
                assert abs(lap(x, y) - lap_fd) <= 1e-5 * max(1.0, abs(lap_fd))

    def test_wavefront_forcing_shape(self):
        strength, decay, width = 400.0, 5.0e4, 3.0e-2
        prob = wavefront_problem(strength=strength, decay=decay, width=width)
        peak = strength / math.sqrt(width)
        assert abs(prob.forcing(0.5, 0.5, 0.0) - peak) <= 1e-10 * peak
        # radial Gaussian: one width off-center scales by exp(-1/2)
        got = prob.forcing(0.5 + width, 0.5, 0.0)
        assert abs(got - peak * math.exp(-0.5)) <= 1e-10 * peak
        # exponential time decay with the configured rate
        got_t = prob.forcing(0.5, 0.5, 1.0 / decay)
        assert abs(got_t - peak * math.exp(-1.0)) <= 1e-10 * peak
        # vectorized evaluation over arrays
        x = np.array([0.5, 0.6])
        vals = prob.forcing(x, np.array([0.5, 0.5]), 0.0)
        assert vals.shape == (2,)
        assert abs(vals[0] - peak) <= 1e-10 * peak
        assert prob.lap_psi0 is None and prob.lap_psi1 is None


class TestStudyHelpers:
    def test_time_step_rule(self):
        cfg = default_config("h_convergence")  # coarse_steps=200, T=1
        dts = level_dt(cfg, "h_convergence")  # levels 4, 8, 16, 32
        assert dts[4] == 1.0 / 200
        # halving h at p=1 multiplies the step count by 2^(3/2)
        n = math.ceil(200 * 2.0 ** 1.5 - 1.0e-9)
        assert dts[8] == 1.0 / n
        import dataclasses
        cfg2 = dataclasses.replace(cfg, dt=1.0e-3)
        assert level_dt(cfg2, "h_convergence")[8] == 1.0e-3
        # the single-level studies run their first level only
        for study in ("delta_convergence", "wavefront", "run"):
            assert list(level_dt(cfg, study)) == [4]
        assert level_dt(cfg, "run")[4] == level_dt(cfg, "wavefront")[4] \
            == 1.0 / 200

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_denormal_tau_is_filed_as_singular_stiffness(self, degree):
        # tau = 1e-320 leaves Ks with eigenvalue ratios below 1e-34 (or, at
        # p = 0, subnormal blocks); every level is filed as that, not as a
        # loss of positivity further down the run
        cfg = dataclasses.replace(parse_config(TINY_H), degree=degree,
                                  levels=(1, 2, 4), tau=1.0e-320)
        report = h_convergence_study(cfg)
        assert report.levels == []
        assert len(report.failures) == 3
        for n, msg in zip((1, 2, 4), report.failures):
            assert msg.startswith(f"n={n}: condensed stiffness block "
                                  f"singular on elements [0, 1")

    def test_convergence_report_csv(self):
        rep = ConvergenceReport()
        rep.levels.append(LevelResult(n=4, h=0.5, dt=0.1, err_psi=1.0,
                                      err_v=2.0, err_star=4.0,
                                      mean_iterations=3.0))
        rep.levels.append(LevelResult(n=8, h=0.25, dt=0.05, err_psi=0.25,
                                      err_v=0.5, err_star=0.5,
                                      mean_iterations=3.0))
        rep.failures.append("n=16: corrector stalled")
        text = rep.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == ("h,dt,err_psi,rate_psi,err_v,rate_v,"
                            "err_psistar,rate_psistar")
        first = lines[1].split(",")
        assert first[3] == "" and first[5] == "" and first[7] == ""
        second = lines[2].split(",")
        assert float(second[3]) == pytest.approx(2.0)
        assert float(second[5]) == pytest.approx(2.0)
        assert float(second[7]) == pytest.approx(3.0)
        assert lines[3] == "# n=16: corrector stalled"

    def test_delta_report_slope_fit(self):
        rep = DeltaReport()
        for d in (1.0e-2, 1.0e-4, 1.0e-6, 1.0e-8):
            rep.levels.append(DeltaLevel(delta=d, err_psi=3.0 * d,
                                         err_v=0.5 * d))
        # a level outside the fit window must not affect the slopes
        rep.levels.append(DeltaLevel(delta=1.0e-10, err_psi=1.0,
                                     err_v=1.0))
        assert rep.slope_psi == pytest.approx(1.0, abs=1e-12)
        assert rep.slope_v == pytest.approx(1.0, abs=1e-12)
        text = rep.to_csv()
        assert text.startswith("delta,err_psi,rate_psi,err_v,rate_v\n")
        tail = [ln for ln in text.splitlines() if ln.startswith("# slope")]
        assert len(tail) == 2
        for line in tail:
            assert float(line.split(",")[1]) == pytest.approx(1.0)

    def test_delta_report_too_few_points_is_nan(self):
        rep = DeltaReport()
        rep.levels.append(DeltaLevel(delta=1.0e-4, err_psi=1.0, err_v=1.0))
        assert math.isnan(rep.slope_psi)


class TestFieldExport:
    def make_field(self):
        msh = generate_structured_mesh(2)
        coeffs = oracles.l2_project_scalar(msh, 1,
                                           lambda x, y: x * x + 0.5 * y)
        return DiscreteScalarField(msh, 1, coeffs), msh

    def test_csv_round_trip_is_exact(self, tmp_path):
        fld, msh = self.make_field()
        path = tmp_path / "field.csv"
        export_field(fld, path, fmt="csv")
        pts, vals = import_field_csv(path)
        assert pts.shape[0] == vals.shape[0] > 0
        want = fld.eval_at(pts)
        assert np.array_equal(vals, want) or np.max(
            np.abs(vals - want)) <= 1e-15

    def test_vtk_structure(self, tmp_path):
        fld, msh = self.make_field()
        path = tmp_path / "field.vtk"
        export_field(fld, path, fmt="vtk")
        text = path.read_text(encoding="utf-8")
        assert text.startswith("# vtk DataFile Version 2.0\n")
        assert f"POINTS {msh.n_vertices} double" in text
        assert f"CELLS {msh.n_triangles} {4 * msh.n_triangles}" in text
        assert f"POINT_DATA {msh.n_vertices}" in text
        assert text.count("\n5\n") >= 1  # triangle cell type markers

    @pytest.mark.parametrize("fmt", ["csv", "vtk"])
    @pytest.mark.parametrize("degree", [0, 2])
    def test_bytes_match_loop_writer(self, tmp_path, fmt, degree):
        msh = oracles.perturbed_mesh(3, seed=4)
        rng = np.random.default_rng(degree)
        d = (degree + 1) * (degree + 2) // 2
        coeffs = rng.standard_normal(msh.n_triangles * d) * 10.0 ** rng.integers(
            -200, 200, msh.n_triangles * d)
        coeffs[:3] = (0.0, -0.0, 1.0)
        fld = DiscreteScalarField(msh, degree, coeffs)
        export_field(fld, tmp_path / f"got.{fmt}", fmt=fmt)
        oracles.loop_export_field(fld, tmp_path / f"want.{fmt}", fmt)
        assert (tmp_path / f"got.{fmt}").read_bytes() == \
            (tmp_path / f"want.{fmt}").read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        fld, msh = self.make_field()
        with pytest.raises(ValueError, match="unknown export format"):
            export_field(fld, tmp_path / "field.xyz", fmt="xyz")

    def test_import_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            import_field_csv(path)


TINY_H = """
[problem]
c = 1.0
k = 0.3
delta = 1e-3
final_time = 0.04

[discretization]
degree = 0
levels = 2

[newmark]
coarse_steps = 4
"""

TINY_DELTA = """
[problem]
kind = delta_convergence
k = 0.05
final_time = 0.02

[discretization]
degree = 0
levels = 2

[newmark]
coarse_steps = 2
"""

TINY_WAVEFRONT = """
[problem]
kind = wavefront
final_time = 4e-6

[discretization]
degree = 1
levels = 4

[newmark]
dt = 2e-6

[output]
snapshot_times = 4e-6
profile_samples = 16
"""


# config keys whose edge values the CLI must survive
EDGE_KEYS = ("c", "k", "delta", "final_time", "tau", "gamma", "beta", "tol",
             "dt")
EDGE_VALUES = (0.0, -1.0, math.nan, math.inf, 1.0e-320, 1.0e-300, 1.0e150,
               1.0e200, 1.0e300)
# text keys, and texts that the INI syntax or a path may treat specially
EDGE_TEXT_KEYS = ("kind", "tau_mode", "directory")
EDGE_TEXTS = ("a%b", "%(c)s", "a;b", "a ;b", "a#b", "a #b", "[a", "a]b",
              "a\nb", "", "\u00fcn\u00efc\u00f8d\u00e9", "\u03c8\u2202t")
CLI_COMMANDS = ("h-convergence", "delta-convergence", "wavefront", "run")


def edge_config(key, value):
    """Config text with final_time = 0.01 and at most 10 steps per run
    (coarse_steps = 10 under the dt rule), overridden by key = value; each
    key in its section of the config key table."""
    values = {"final_time": repr(0.01), "coarse_steps": "10", "dt": ""}
    values[key] = value if key in EDGE_TEXT_KEYS else repr(value)
    sections = {}
    for name, text in values.items():
        sections.setdefault(_KEYS[name][0], []).append(f"{name} = {text}")
    return "".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                   for section, lines in sections.items())


class TestCli:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_h_convergence_writes_expected_files(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "tiny.ini", TINY_H)
        out = tmp_path / "out"
        code = main(["h-convergence", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        csv = out / "h_convergence_p0.csv"
        assert csv.exists() and (out / "config.ini").exists()
        header = csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == ("h,dt,err_psi,rate_psi,err_v,rate_v,"
                          "err_psistar,rate_psistar")
        assert f"wrote {csv}" in capsys.readouterr().out

    def test_outputs_are_deterministic(self, tmp_path):
        cfg = self.write(tmp_path, "tiny.ini", TINY_H)
        outs = []
        for name in ("out1", "out2"):
            out = tmp_path / name
            assert main(["h-convergence", "--config", str(cfg),
                         "--out", str(out)]) == 0
            outs.append((out / "h_convergence_p0.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_delta_convergence_subcommand(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "tiny.ini", TINY_DELTA)
        out = tmp_path / "out"
        assert main(["delta-convergence", "--config", str(cfg),
                     "--out", str(out)]) == 0
        text = (out / "delta_convergence_p0.csv").read_text(encoding="utf-8")
        assert text.startswith("delta,err_psi,rate_psi,err_v,rate_v\n")
        assert "# slope_psi," in text
        assert "fitted slopes" in capsys.readouterr().out

    def test_wavefront_subcommand(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "tiny.ini", TINY_WAVEFRONT)
        out = tmp_path / "out"
        assert main(["wavefront", "--config", str(cfg),
                     "--out", str(out)]) == 0
        prof = out / "wavefront_profile.csv"
        assert prof.exists()
        lines = prof.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,dpsi_nonlinear,dpsi_linear"
        assert len(lines) == 1 + 16
        for variant in ("nonlinear", "linear"):
            assert (out / f"wavefront_{variant}_t4e-06.csv").exists()
            assert (out / f"wavefront_{variant}_t4e-06.vtk").exists()

    def test_run_subcommand_records_energy(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "tiny.ini", TINY_H)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "energy.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0] == "t,e0,e1"
        assert len(lines) == 1 + 4 + 1  # header + (steps + 1) samples
        stdout = capsys.readouterr().out
        assert "energy drift" in stdout
        assert "err_psi=" in stdout  # manufactured problem reports errors

    def test_run_accepts_other_kinds_from_config(self, tmp_path):
        cfg = self.write(tmp_path, "tiny.ini", TINY_DELTA)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "energy.csv").exists()

    def test_cli_overrides(self, tmp_path):
        cfg = self.write(tmp_path, "tiny.ini", TINY_H)
        out = tmp_path / "elsewhere"
        assert main(["h-convergence", "--config", str(cfg), "--p", "1",
                     "--levels", "2", "--out", str(out)]) == 0
        assert (out / "h_convergence_p1.csv").exists()

    @pytest.mark.parametrize("text,flags,field,value", [
        ("[discretization]\nlevels = 100000\n", ["--levels", "2", "--p", "0"],
         "levels", (2,)),
        ("[discretization]\ndegree = 25\nlevels = 2\n", ["--p", "1"],
         "degree", 1),
    ])
    def test_flags_replace_file_values_out_of_range(self, tmp_path, text,
                                                    flags, field, value):
        # the resolved config is checked once, after the flags
        cfg = self.write(tmp_path, "c.ini", text)
        out = tmp_path / "out"
        assert main(["h-convergence", "--config", str(cfg), *flags,
                     "--out", str(out)]) == 0
        written = parse_config((out / "config.ini").read_text(
            encoding="utf-8"))
        assert getattr(written, field) == value

    @pytest.mark.parametrize("times,match", [
        ("5e-5, 5.0000001e-5", "snapshot time 5.0000001e-05 is not a whole "
                               "number of steps of dt = 1e-06"),
        ("1.4e-6", "snapshot time 1.4e-06 is not a whole number"),
        ("5e-5, 5.00000000001e-5", "snapshot times 5e-05 and "
                                   "5.00000000001e-05 are the same step 50"),
        ("0, 0", "are the same step 0"),
    ])
    def test_wavefront_snapshots_take_their_own_steps(
            self, tmp_path, capsys, monkeypatch, times, match):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(experiments, "run", no_solve)
        cfg = self.write(tmp_path, "wf.ini",
                         f"[output]\nsnapshot_times = {times}\n")
        assert main(["wavefront", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and match in err
        assert err.count("\n") == 1
        # the default times, and t = 0, are whole steps of dt = 1e-6
        default_config("wavefront").validate()
        dataclasses.replace(default_config("wavefront"),
                            snapshot_times=(0.0, 1.0e-6)).validate()

    def test_exit_2_on_usage_and_config_errors(self, tmp_path, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()
        bad = self.write(tmp_path, "bad.ini", "[problem]\nmach = 2\n")
        assert main(["h-convergence", "--config", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err
        missing = tmp_path / "absent.ini"
        assert main(["h-convergence", "--config", str(missing)]) == 2
        capsys.readouterr()
        wf = self.write(tmp_path, "wf.ini", "[problem]\nkind = wavefront\n")
        assert main(["h-convergence", "--config", str(wf)]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_levels_flag_accepts_spaces_like_the_file(self, tmp_path):
        cfg = self.write(tmp_path, "tiny.ini", TINY_H)
        out = tmp_path / "out"
        assert main(["h-convergence", "--config", str(cfg), "--levels", "2 4",
                     "--out", str(out)]) == 0
        text = (out / "config.ini").read_text(encoding="utf-8")
        assert parse_config(text).levels == (2, 4)

    def test_solver_failures_share_one_base(self):
        for cls in (NondegeneracyError, CondensationError,
                    NonconvergenceError, StudyFailure):
            assert issubclass(cls, SolverError)
        for cls in (MeshError, AssemblyError, ConfigError):
            assert not issubclass(cls, SolverError)

    def test_exit_2_on_bad_levels_override(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "tiny.ini", TINY_H)
        assert main(["h-convergence", "--config", str(cfg),
                     "--levels", "2,elephants"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("line", ["[problem]\nc = nan\n",
                                      "[problem]\nfinal_time = inf\n"])
    def test_exit_2_on_non_finite_values(self, tmp_path, capsys, line):
        cfg = self.write(tmp_path, "nonfinite.ini", line)
        assert main(["h-convergence", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err and "Traceback" not in err

    def test_exit_2_on_unsupported_degree(self, tmp_path, capsys):
        assert main(["h-convergence", "--p", "40", "--levels", "1",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: degree must be <=")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_profile_samples_are_refused_before_any_run(
            self, tmp_path, capsys, monkeypatch):
        # np.linspace would fail on this count only after both runs
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(experiments, "run", no_solve)
        cfg = self.write(tmp_path, "wf.ini",
                         f"[output]\nprofile_samples = {10**20}\n")
        assert main(["wavefront", "--config", str(cfg), "--p", "0",
                     "--levels", "1", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: profile_samples must be <= "
            f"{MAX_PROFILE_SAMPLES} (profile samples), got {10**20}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,key,value,degree,code", [
        ("h-convergence", "c", 1.0e200, 0, 2),
        ("h-convergence", "c", 1.0e-300, 0, 2),
        ("h-convergence", "dt", 1.0e300, 0, 2),
        ("h-convergence", "tau", 1.0e-320, 0, 3),
        # the facet penalty swamps the rest of A_K
        ("h-convergence", "tau", 1.0e200, 2, 2),
        ("h-convergence", "tau", 1.0e150, 1, 2),
        # the boundary penalty overflows the condensed stiffness
        ("h-convergence", "tau", 1.0e308, 1, 2),
        ("wavefront", "final_time", 1.0e-320, 0, 2),
        ("run", "dt", 1.0e-320, 0, 2),
        ("h-convergence", "dt", 1.0e-300, 0, 2),
        ("run", "coarse_steps", MAX_STEPS + 1, 0, 2),
        ("run", "delta", 1.0e300, 0, 3),
        ("h-convergence", "levels", "1,64", 20, 2),
        # every run stays at its zero initial data: no rate or slope is
        # defined
        ("delta-convergence", "final_time", 1.0e-300, 0, 0),
        ("h-convergence", "final_time", (1.0e-300, "1,2"), 0, 0),
    ])
    def test_edge_values_exit_with_one_line(self, tmp_path, capsys, command,
                                            key, value, degree, code):
        # key "levels" passes its value to --levels instead of the file,
        # and its refusal names the level; a pair (value, levels) sets both
        named = "level" if key == "levels" else key
        if key == "levels":
            key, value, levels = "final_time", 0.01, value
        elif isinstance(value, tuple):
            value, levels = value
        else:
            levels = "1"
        cfg = self.write(tmp_path, "edge.ini", edge_config(key, value))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--p", str(degree),
                     "--levels", levels, "--out", str(out)]) == code
        captured = capsys.readouterr()
        err = captured.err
        if code == 0:
            # an undefined rate or slope is an empty cell, never nan
            assert err == "" and "nan" not in captured.out
            for path in out.glob("*.csv"):
                text = path.read_text(encoding="utf-8")
                assert "nan" not in text and ",," in text
            return
        prefix = "configuration error: " if code == 2 else "solver failure: "
        assert err.startswith(prefix) and err.count("\n") == 1
        if code == 2:
            # a refusal names its key, so a row refused for another key, or
            # as an unknown key, fails
            assert re.search(rf"(^|\W){re.escape(named)}(\W|$)",
                             err[len(prefix):]), err
            assert not err.startswith(prefix + "unknown"), err

    def test_exit_3_on_non_finite_corrector_change(self, tmp_path, capsys):
        # delta = 1e300 turns the first corrector pass into NaN; the run
        # stops there with one line naming the step, the pass and elements
        text = ("[problem]\nk = 0.0\ndelta = 1e300\nfinal_time = 0.01\n"
                "[newmark]\ndt = 1e-3\n")
        cfg = self.write(tmp_path, "nan.ini", text)
        assert main(["run", "--config", str(cfg), "--p", "0", "--levels", "2",
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: corrector change nan is not "
                              "finite at step 0, corrector iteration 1;")
        assert "elements [" in err and err.count("\n") == 1

    def test_exit_2_when_the_step_weight_overflows(self, tmp_path, capsys):
        # 10 steps of dt = 1e299 are valid, but mu = c^2 dt^2 beta + delta
        # gamma dt is not finite: the facet Schur complement would be
        # singular
        text = ("[problem]\nkind = h_convergence\nfinal_time = 1e300\n"
                "[newmark]\ndt = 1e299\n")
        cfg = self.write(tmp_path, "mu.ini", text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--levels", "2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: mu must be finite (step weight c^2 dt^2 "
            "beta + delta gamma dt), got inf\n")
        assert not out.exists()
        with pytest.raises(ConfigError, match=r"^mu must be finite"):
            dataclasses.replace(default_config("h_convergence"),
                                final_time=1.0e300, dt=1.0e299,
                                levels=(2,)).validate()

    SINGLE_FACET_DELTA = ("[discretization]\ntau = 1.0\n"
                          "tau_mode = single_facet\nlevels = 16\n"
                          "[newmark]\ndt = 5e-3\n")

    def test_single_facet_delta_study_completes(self, tmp_path):
        # at p = 1 the unmixed corrector contracted by only 0.93 per pass
        # at step 116 and ran out of its 100 passes
        cfg = self.write(tmp_path, "sf.ini", self.SINGLE_FACET_DELTA)
        out = tmp_path / "out"
        assert main(["delta-convergence", "--config", str(cfg), "--p", "1",
                     "--out", str(out)]) == 0
        lines = (out / "delta_convergence_p1.csv").read_text(
            encoding="utf-8").splitlines()
        assert len(lines) == 1 + 5 + 2

    def test_exit_3_when_the_corrector_stops_contracting(self, tmp_path,
                                                          capsys):
        # at p = 0 the change grows from pass to pass at step 120; the run
        # used to go on until 1 + 2k dpsi/dt lost positivity at pass 13
        cfg = self.write(tmp_path, "sf.ini", self.SINGLE_FACET_DELTA)
        assert main(["delta-convergence", "--config", str(cfg), "--p", "0",
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: corrector stops contracting "
                              "at step 120, corrector iteration ")
        assert err.count("\n") == 1

    def test_exit_2_on_a_level_beyond_the_memory_cap(self, tmp_path, capsys,
                                                     monkeypatch):
        def no_mesh(n):
            raise AssertionError(f"mesh of level {n} built")

        monkeypatch.setattr(experiments, "generate_structured_mesh", no_mesh)
        assert main(["h-convergence", "--levels", "100000",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: level 100000 needs an "
                              "estimated ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_exit_3_on_nonconvergence(self, tmp_path, capsys):
        text = TINY_H + "max_iterations = 1\ntol = 1e-16\n"
        cfg = self.write(tmp_path, "stall.ini", text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", [1.0e16, 1.0e60, 1.0e300])
    def test_tau_whose_penalty_swamps_the_facet_block_exits_2(
            self, tmp_path, capsys, tau):
        # on this study the facet penalty is 0.177 tau times the rest of
        # A_K; above MAX_PENALTY_RATIO its error drifts on rounding
        # (2.88e-3 at 1e16, 2.13e-3 at 1e60 and 1e300, where tau <= 1e12
        # gives 1.3109e-3) or its facet factor is singular
        text = TINY_H.replace("levels = 2", f"levels = 2\ntau = {tau!r}")
        out = tmp_path / "out"
        assert main(["h-convergence", "--config",
                     str(self.write(tmp_path, "tau.ini", text)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: tau = {tau} makes the "
                              f"facet penalty ")
        assert err.endswith(" above 1e+12\n") and err.count("\n") == 1
        assert not (out / "h_convergence_p0.csv").exists()

    def test_tau_below_the_penalty_ratio_runs(self, tmp_path):
        # tau = 1e12 keeps the penalty 1.8e11 times the rest of A_K, and
        # the error of tau = 1e8 to 1e-6
        errors = []
        for tau in (1.0e8, 1.0e12):
            text = TINY_H.replace("levels = 2", f"levels = 2\ntau = {tau!r}")
            out = tmp_path / f"out{tau:g}"
            assert main(["h-convergence", "--config",
                         str(self.write(tmp_path, "tau.ini", text)),
                         "--out", str(out)]) == 0
            row = (out / "h_convergence_p0.csv").read_text(
                encoding="utf-8").splitlines()[1]
            errors.append(float(row.split(",")[2]))
        assert errors[1] == pytest.approx(errors[0], rel=1e-6)
        assert errors[1] == pytest.approx(1.3109e-3, rel=1e-4)

    def test_failing_level_yields_annotated_partial_table(self, tmp_path,
                                                          monkeypatch):
        # refinement studies keep going past a failed level and record it;
        # the corrector's facet system of n = 2 (8 facet dofs, against 1 at
        # n = 1) is zeroed, so that its factorization fails
        factorize = condensation._factorize

        def singular_at_n2(name, matrix):
            if name == "facet Schur complement" and matrix.shape[0] == 8:
                matrix = 0.0 * matrix
            return factorize(name, matrix)

        monkeypatch.setattr(condensation, "_factorize", singular_at_n2)
        cfg = self.write(tmp_path, "singular.ini", TINY_H)
        out = tmp_path / "out"
        assert main(["h-convergence", "--config", str(cfg), "--levels", "1,2",
                     "--out", str(out)]) == 0
        lines = (out / "h_convergence_p0.csv").read_text(
            encoding="utf-8").splitlines()
        assert len(lines) == 3 and lines[1].startswith("1.4142135623730951,")
        assert lines[2].startswith("# n=2: cannot factorize the facet Schur")

    def test_every_level_failing_exits_3_with_annotated_table(self, tmp_path,
                                                              capsys):
        text = TINY_H + "max_iterations = 1\ntol = 1e-16\n"
        cfg = self.write(tmp_path, "stall.ini", text)
        out = tmp_path / "out"
        assert main(["h-convergence", "--config", str(cfg), "--levels", "2,4",
                     "--out", str(out)]) == 3
        csv = out / "h_convergence_p0.csv"
        lines = csv.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("# n=2:") and "did not converge" in lines[1]
        assert lines[2].startswith("# n=4:") and "did not converge" in lines[2]
        err = capsys.readouterr().err
        assert err.startswith(f"solver failure: all 2 levels failed (listed "
                              f"in {csv}); n=2: corrector did not converge")
        assert err.count("\n") == 1

    def test_solver_failure_is_one_line_of_stderr(self, tmp_path):
        # the non-finite corrector change of delta = 1e300 overflows on the
        # way; no floating-point warning reaches stderr
        text = ("[problem]\nk = 0.0\ndelta = 1e300\nfinal_time = 0.01\n"
                "[newmark]\ndt = 1e-3\n")
        cfg = self.write(tmp_path, "nan.ini", text)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from westervelt_hdg.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "run", "--config", str(cfg), "--p", "0", "--levels", "2",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 3
        assert proc.stderr.startswith("solver failure: corrector change nan")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("level", [1, 2, 4])
    def test_unused_stationary_system_is_not_built(self, tmp_path, capsys,
                                                   level):
        # the wavefront starts from zero data, so a denormal tau, whose
        # stationary facet system is singular, leaves the run untouched
        cfg = self.write(tmp_path, "tiny_tau.ini",
                         "[discretization]\ntau = 1e-320\n")
        out = tmp_path / "out"
        assert main(["wavefront", "--config", str(cfg), "--p", "0",
                     "--levels", str(level), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        tables = sorted(out.glob("*.csv"))
        assert len(tables) == 5
        for path in tables:
            values = np.loadtxt(path, delimiter=",", skiprows=1)
            assert values.size > 0 and np.all(np.isfinite(values))
        for path in out.glob("*.vtk"):
            text = path.read_text(encoding="utf-8")
            assert "nan" not in text and "inf" not in text

    def test_singular_stationary_system_names_the_elements(self, tmp_path,
                                                           capsys):
        # the manufactured problem has an initial velocity, so its
        # stationary solve needs Ks^-1, which a denormal tau destroys
        text = TINY_H.replace("[newmark]", "tau = 1e-320\n\n[newmark]")
        cfg = self.write(tmp_path, "tiny_tau.ini", text)
        assert main(["h-convergence", "--config", str(cfg), "--p", "1",
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: all 1 levels failed")
        assert ("n=2: condensed stiffness block singular on elements "
                "[0, 1, 2, 3, 4, 5, 6, 7]") in err
        assert err.count("\n") == 1

    def test_percent_in_out_is_a_literal_directory(self, tmp_path):
        cfg = self.write(tmp_path, "tiny.ini", TINY_H)
        out = tmp_path / "x%y"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "energy.csv").is_file()
        written = parse_config((out / "config.ini").read_text(
            encoding="utf-8")).validate("run")
        want = parse_config(TINY_H).validate("run")
        assert written == dataclasses.replace(want, output_dir=str(out))

    def test_percent_in_config_directory_is_literal(self, tmp_path,
                                                    monkeypatch):
        text = TINY_H + "\n[output]\ndirectory = a%b\n"
        cfg = self.write(tmp_path, "tiny.ini", text)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "a%b"
        assert (out / "energy.csv").is_file()
        written = parse_config((out / "config.ini").read_text(
            encoding="utf-8")).validate("run")
        assert written.output_dir == "a%b"
        assert written == parse_config(text).validate("run")

    @pytest.mark.parametrize("name", ["a ;b", "a #b", " lead", "tr "])
    def test_out_that_config_ini_cannot_hold_is_refused(
            self, tmp_path, capsys, monkeypatch, name):
        # config.ini would read the name back without its comment or its
        # surrounding spaces, so the run is refused before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(experiments, "run", no_solve)
        cfg = self.write(tmp_path, "tiny.ini", TINY_H)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", name]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: directory = {name!r} "
                              f"cannot be written to a config file")
        assert err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command", CLI_COMMANDS)
    def test_exit_4_comes_before_the_solve(self, tmp_path, capsys,
                                           monkeypatch, command):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        # the studies call newmark.run by this name
        monkeypatch.setattr(experiments, "run", no_solve)
        text = {"delta-convergence": TINY_DELTA,
                "wavefront": TINY_WAVEFRONT}.get(command, TINY_H)
        cfg = self.write(tmp_path, "tiny.ini", text)
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory", encoding="utf-8")
        assert main([command, "--config", str(cfg),
                     "--out", str(blocker / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("levels", ["2, 2", "4, 2"])
    def test_h_convergence_levels_must_increase(self, tmp_path, capsys,
                                                monkeypatch, levels):
        def no_mesh(n):
            raise AssertionError(f"mesh of level {n} built")

        monkeypatch.setattr(experiments, "generate_structured_mesh", no_mesh)
        cfg = self.write(tmp_path, "tiny.ini", TINY_H.replace(
            "levels = 2", f"levels = {levels}"))
        assert main(["h-convergence", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == ("configuration error: levels must strictly increase "
                       f"for the h-convergence study, got {levels}\n")
        assert not (tmp_path / "out").exists()

    def test_run_memory_cap_counts_the_stored_states(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_mesh(n):
            raise AssertionError(f"mesh of level {n} built")

        monkeypatch.setattr(experiments, "generate_structured_mesh", no_mesh)
        text = ("[discretization]\ndegree = 2\nlevels = 24\n\n"
                "[newmark]\ndt = 1e-7\n")
        # the mesh and its blocks alone fit: the refinement study may run it
        assert parse_config(text).validate("h_convergence").dt == 1.0e-7
        cfg = self.write(tmp_path, "long.ini", text)
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: level 24 needs an "
                              "estimated ")
        assert "and 10000001 stored states" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_exit_4_on_output_collision(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "tiny.ini", TINY_H)
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory", encoding="utf-8")
        assert main(["h-convergence", "--config", str(cfg),
                     "--out", str(blocker)]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "westervelt-hdg" in capsys.readouterr().out


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(command=st.sampled_from(CLI_COMMANDS),
       edge=st.one_of(
           st.tuples(st.sampled_from(sorted(EDGE_KEYS)),
                     st.sampled_from(EDGE_VALUES)),
           st.tuples(st.sampled_from(sorted(EDGE_TEXT_KEYS)),
                     st.sampled_from(EDGE_TEXTS))),
       level=st.integers(1, 2), degree=st.integers(0, 2))
def test_cli_survives_edge_values(command, edge, level, degree):
    key, value = edge
    # a dt this small asks for more than 1e4 steps: valid, merely long
    assume(not (key == "dt" and value > 0.0 and 0.01 / value > 1.0e4))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # a relative directory from the file lands in tmp
        os.chdir(tmp)
        try:
            cfg = Path(tmp) / "edge.ini"
            cfg.write_text(edge_config(key, value), encoding="utf-8")
            argv = [command, "--config", str(cfg), "--levels", str(level),
                    "--p", str(degree)]
            if key == "directory":
                out = Path(tmp) / value
            else:
                out = Path(tmp) / "out"
                argv += ["--out", str(out)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 2, 3, 4)
        assert err.getvalue().count("\n") <= 1, err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            # every number of every table, comment lines included
            for path in out.glob("*.csv"):
                for line in path.read_text(encoding="utf-8").splitlines()[1:]:
                    for tok in line.lstrip("# ").split(","):
                        try:
                            number = float(tok)
                        except ValueError:
                            continue
                        assert math.isfinite(number), (path.name, line)


@pytest.mark.parametrize("deltas", [(1.0e-4, 1.0e-2), (1.0e-2, 1.0e-2),
                                    (1.0e-2, 0.0), (1.0e-2, math.nan)])
def test_delta_study_refuses_deltas_before_the_first_run(monkeypatch,
                                                         deltas):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(experiments, "run", no_run)
    cfg = parse_config(TINY_DELTA).validate()
    with pytest.raises(ValueError, match=r"deltas must be positive and "
                       r"strictly decreasing, got \(0\.01|\(0\.0001"):
        experiments.delta_convergence_study(cfg, deltas)
