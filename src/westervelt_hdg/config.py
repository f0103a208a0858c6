"""Run configuration: defaults per experiment, INI-style parsing, round trip."""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace

from .condensation import step_mu
from .newmark import number_of_steps
from .parameters import MAX_STEPS, PARAMETERS, check_level, check_parameter

# the mesh level at which the delta study anchors the h-rule
DELTA_ANCHOR_LEVEL = 4


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


def h_rule_steps(coarse_steps: int, degree: int, h_ratio: float) -> int:
    """Time steps of the h-rule, dt proportional to h^((p+2)/2) with
    coarse_steps steps on the anchor level, on a level whose mesh size is
    h_ratio times smaller than the anchor's."""
    return math.ceil(coarse_steps * h_ratio ** (0.5 * (degree + 2)) - 1.0e-9)


def level_steps(cfg: "RunConfig", study: str) -> dict[int, float]:
    """Time steps of every level a study runs under the h-rule.

    study is a kind or "run", the single monitored run of the config's
    kind. The refinement study runs each level and anchors the rule at its
    first; the delta study runs its first level against DELTA_ANCHOR_LEVEL;
    the wavefront study and a single run take coarse_steps steps on their
    first level. On the structured meshes the ratio of mesh sizes is the
    ratio of levels. A count too large for a float is inf.
    """
    levels = cfg.levels if study == "h_convergence" else cfg.levels[:1]
    anchor = (DELTA_ANCHOR_LEVEL if study == "delta_convergence"
              else cfg.levels[0])
    steps = {}
    for n in levels:
        try:
            steps[n] = h_rule_steps(cfg.coarse_steps, cfg.degree, n / anchor)
        except OverflowError:
            steps[n] = math.inf
    return steps


def level_dt(cfg: "RunConfig", study: str) -> dict[int, float]:
    """Time step of every level a study runs: cfg.dt when set, otherwise
    final_time over the level's h-rule step count."""
    return {n: cfg.final_time / steps if cfg.dt is None else cfg.dt
            for n, steps in level_steps(cfg, study).items()}


# every key of the config file, in file order: key -> (section, RunConfig
# field, value form); a key sets the field of its own name unless a field
# name follows its form
_KEYS = {key: (section, field[0] if field else key, form)
         for section, key, form, *field in (
             ("problem", "kind", "text"),
             ("problem", "c", "number"),
             ("problem", "k", "number"),
             ("problem", "delta", "number"),
             ("problem", "final_time", "number"),
             ("discretization", "degree", "integer"),
             ("discretization", "levels", "integers"),
             ("discretization", "tau", "number"),
             ("discretization", "tau_mode", "text"),
             ("newmark", "gamma", "number"),
             ("newmark", "beta", "number"),
             ("newmark", "tol", "number"),
             ("newmark", "max_iterations", "integer"),
             ("newmark", "coarse_steps", "integer"),
             ("newmark", "dt", "step"),
             ("output", "directory", "text", "output_dir"),
             ("output", "snapshot_times", "numbers"),
             ("output", "profile_samples", "integer"))}


@dataclass(frozen=True)
class RunConfig:
    kind: str = "h_convergence"
    c: float = 100.0
    k: float = 0.5
    delta: float = 6.0e-9
    final_time: float = 1.0
    degree: int = 1
    levels: tuple[int, ...] = (4, 8, 16, 32)
    tau: float = 1.0
    tau_mode: str = "single_facet"
    gamma: float = 0.5
    beta: float = 0.25
    tol: float = 1.0e-10
    max_iterations: int = 100
    coarse_steps: int = 200
    dt: float | None = None
    output_dir: str = "out"
    snapshot_times: tuple[float, ...] = ()
    profile_samples: int = 257

    def validate(self, study: str | None = None) -> "RunConfig":
        """Refuse a field outside its parameters.PARAMETERS range, levels
        that do not strictly increase for the h-convergence study, a step
        that does not divide final_time into at most MAX_STEPS steps and,
        without dt, a level on which the h-rule of study (default: the study
        of kind; see level_steps) asks for more than MAX_STEPS steps; a step
        whose weight mu (condensation.step_mu) is not finite; then a level
        of study that check_level refuses, with every state of the run
        for study "run"; and for the wavefront study a snapshot time that is
        not a whole number of steps of its level's dt (see number_of_steps)
        or is the same step as another."""
        for key, (_, name, form) in _KEYS.items():
            value = getattr(self, name)
            for item in value if form in ("integers", "numbers") else [value]:
                if key in PARAMETERS and item is not None:
                    check_parameter(key, item, ConfigError)
        check_parameter("c^2", self.c * self.c, ConfigError)
        if not self.levels:
            raise ConfigError("levels must not be empty")
        # the study takes its rates between consecutive levels
        if (study or self.kind) == "h_convergence" and any(
                a >= b for a, b in zip(self.levels, self.levels[1:])):
            raise ConfigError(
                f"levels must strictly increase for the h-convergence "
                f"study, got {', '.join(map(str, self.levels))}")
        if self.dt is None:
            for n, steps in level_steps(self, study or self.kind).items():
                if steps > MAX_STEPS:
                    raise ConfigError(
                        f"level {n} needs {float(steps):.3g} time steps under "
                        f"the h-rule (coarse_steps = {self.coarse_steps}, "
                        f"degree = {self.degree}), more than {MAX_STEPS}; set "
                        f"dt or use coarser levels")
        for n, dt in level_dt(self, study or self.kind).items():
            try:
                steps = number_of_steps(self.final_time, dt)
            except ValueError as err:
                raise ConfigError(str(err)) from err
            check_parameter("mu", step_mu(self.c, self.delta, dt, self.gamma,
                                          self.beta), ConfigError)
            # the run study stores every state for its energies
            check_level(n, self.degree, self.tau_mode,
                        steps + 1 if study == "run" else 0, ConfigError)
        if any(not 0.0 <= t <= self.final_time for t in self.snapshot_times):
            raise ConfigError("snapshot_times must lie in [0, final_time]")
        if (study or self.kind) == "wavefront":
            # the study takes each snapshot at its own step of its level
            (dt,) = level_dt(self, "wavefront").values()
            taken = {}
            for t in self.snapshot_times:
                try:
                    step = number_of_steps(t, dt) if t > 0.0 else 0
                except ValueError as err:
                    raise ConfigError(f"snapshot time {t} is not a whole "
                                      f"number of steps of dt = {dt}") from err
                if step in taken:
                    raise ConfigError(f"snapshot times {taken[step]} and {t} "
                                      f"are the same step {step} of dt = {dt}")
                taken[step] = t
        return self


def default_config(kind: str) -> RunConfig:
    """Experiment defaults mirroring the reference studies."""
    check_parameter("kind", kind, ConfigError)
    if kind == "h_convergence":
        return RunConfig(kind=kind)
    if kind == "delta_convergence":
        # the unit-amplitude velocity data sits close to the degeneracy
        # barrier 1/(2k): the piecewise-constant initial projection with
        # single-facet stabilization overshoots past it and the lagged-mass
        # corrector stops contracting, while uniform stabilization at
        # tau = 4 keeps max|dpsi| near 1.06 (contraction ratio 0.64) and
        # the run completes at every polynomial degree
        return RunConfig(kind=kind, c=1.0, k=0.3, delta=0.0, levels=(16,),
                         tau=4.0, tau_mode="uniform")
    return RunConfig(
        kind=kind, c=1500.0, k=-10.0, delta=6.0e-9, final_time=2.0e-4,
        degree=5, levels=(16,), gamma=0.85, beta=0.45, dt=1.0e-6,
        snapshot_times=(5.0e-5, 2.0e-4),
    )


def parse_value(section: str, key: str, raw: str):
    """The value of a config key from its text, by the key's form in _KEYS.

    A step is None when its text is empty or "none"; integers and numbers
    are separated by commas or spaces.
    """
    form = _KEYS[key][2]
    if form == "text":
        return raw
    if form == "step" and raw in ("", "none"):
        return None
    if form in ("integers", "numbers"):
        parse = int if form == "integers" else float
        try:
            return tuple(parse(tok) for tok in raw.replace(",", " ").split())
        except ValueError as err:
            raise ConfigError(f"{key} must be {form}, got {raw!r}") from err
    parse, what = (int, "an integer") if form == "integer" else (float, "a number")
    try:
        return parse(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not {what}") from err


def _parser() -> configparser.ConfigParser:
    """The config file syntax: ';' and '#' start comments, also after
    whitespace inside a line, and '%' is literal."""
    return configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                     interpolation=None)


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Overlay a config file onto defaults; rejects unknown sections/keys.
    Checks no ranges: RunConfig.validate does, once the config is final."""
    parser = _parser()
    try:
        parser.read_string(text)
    except configparser.Error as err:
        # configparser's messages span lines; the quoted text is a repr
        raise ConfigError(f"malformed config: {' '.join(str(err).split())}"
                          ) from err
    sections = {section for section, _, _ in _KEYS.values()}
    values: dict[str, tuple[str, str]] = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if _KEYS.get(key, ("",))[0] != section:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[key] = (section, raw.strip())
    if base is None:
        base = default_config(values.get("kind", ("", "h_convergence"))[1])
    cfg = base
    for key, (section, raw) in values.items():
        cfg = replace(cfg, **{_KEYS[key][1]: parse_value(section, key, raw)})
        # the kind chose the defaults, so the file may only restate it
        if cfg.kind != base.kind:
            check_parameter("kind", cfg.kind, ConfigError)
            raise ConfigError(f"config kind {cfg.kind!r} conflicts with "
                              f"requested {base.kind!r}")
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Config text that parses back to an equal RunConfig.

    Refuses a text value that the file cannot hold: one that parse_config
    would read back differently, such as one with surrounding whitespace or
    a ';' or '#' after whitespace, which starts a comment.
    """
    sections: dict[str, dict[str, str]] = {}
    for key, (section, name, form) in _KEYS.items():
        value = getattr(cfg, name)
        if form in ("integers", "numbers"):
            value = " ".join(map(str, value))
        # str of a float is its shortest repr, which parses back exactly
        sections.setdefault(section, {})[key] = ("none" if value is None
                                                 else str(value))
    parser = _parser()
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    text = buf.getvalue()
    back = _parser()
    back.read_string(text)
    for key, (section, _, form) in _KEYS.items():
        value = sections[section][key]
        if form == "text" and back.get(section, key).strip() != value:
            raise ConfigError(f"{key} = {value!r} cannot be written to a "
                              f"config file: it would parse back as "
                              f"{back.get(section, key).strip()!r}")
    return text
