"""Command line front end for the study recipes.

Exit codes: 0 on success, 2 for configuration problems (including argparse
usage errors and a tau whose penalty overflows or swamps the facet
system), 3 when the solver fails
with an operators.SolverError (the corrector does not converge,
1 + 2k d(psi)/dt loses positivity, a facet system cannot be factored; for
the refinement study: on every level), 4 for filesystem problems. Exit
codes 2 (except argparse usage errors), 3 and 4 come with one line on
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    default_config,
    parse_config,
    parse_value,
    serialize_config,
)
from .experiments import (
    delta_convergence_study,
    export_field,
    h_convergence_study,
    profile_csv,
    single_run_study,
    wavefront_study,
)
from .operators import AssemblyError, SolverError


class StudyFailure(SolverError):
    """No level of a refinement study finished."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="westervelt-hdg",
        description="HDG studies for the Westervelt equation on the unit "
                    "square: mesh refinement, damping sweep, wavefront "
                    "steepening, or a single monitored run.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="INI-style configuration file; omitted keys fall "
                            "back to the recipe defaults")
        p.add_argument("--p", type=int, default=None, dest="degree",
                       help="polynomial degree override")
        p.add_argument("--levels", type=str, default=None,
                       help="comma- or space-separated mesh subdivisions, "
                            "e.g. 4,8,16")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory override")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    kind = _COMMANDS[args.command][0]
    cfg = default_config(kind or "h_convergence")
    if args.config is not None:
        try:
            # a byte-order mark is not part of the text
            text = Path(args.config).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        # the run command takes its kind (and defaults) from the file itself;
        # parse_config refuses a kind other than its base's
        cfg = parse_config(text, base=cfg if kind else None)
    updates = {}
    if args.degree is not None:
        updates["degree"] = args.degree
    if args.levels is not None:
        updates["levels"] = parse_value("discretization", "levels",
                                        args.levels)
    if args.out is not None:
        updates["output_dir"] = str(args.out)
    # checked once, after the flags, which may replace a value out of range
    return dataclasses.replace(cfg, **updates).validate(kind or "run")


def _prepare_output(cfg: RunConfig) -> Path:
    text = serialize_config(cfg)  # refuses a directory it cannot record
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(text, encoding="utf-8")
    return out


def _rate(x: float) -> str:
    """A rate or slope to three decimals; empty where it is undefined."""
    return f"{x:.3f}" if math.isfinite(x) else ""


def _run_h_convergence(cfg: RunConfig, out: Path) -> None:
    report = h_convergence_study(cfg)
    path = out / f"h_convergence_p{cfg.degree}.csv"
    path.write_text(report.to_csv(), encoding="utf-8")
    print(f"wrote {path}")
    for i, lv in enumerate(report.levels):
        tail = ""
        if i > 0:
            tail = (f"  rate_psi={_rate(report.rates_psi[i-1])}"
                    f"  rate_v={_rate(report.rates_v[i-1])}"
                    f"  rate_psistar={_rate(report.rates_star[i-1])}")
        print(f"n={lv.n:<4d} h={lv.h:.4e} dt={lv.dt:.4e} "
              f"err_psi={lv.err_psi:.6e} err_v={lv.err_v:.6e} "
              f"err_psistar={lv.err_star:.6e}{tail}")
    if not report.levels:
        raise StudyFailure(f"all {len(report.failures)} levels failed "
                           f"(listed in {path}); {report.failures[0]}")


def _run_delta_convergence(cfg: RunConfig, out: Path) -> None:
    report = delta_convergence_study(cfg)
    path = out / f"delta_convergence_p{cfg.degree}.csv"
    path.write_text(report.to_csv(), encoding="utf-8")
    print(f"wrote {path}")
    for lv in report.levels:
        print(f"delta={lv.delta:.1e} err_psi={lv.err_psi:.6e} "
              f"err_v={lv.err_v:.6e}")
    print(f"fitted slopes: psi={_rate(report.slope_psi)} "
          f"v={_rate(report.slope_v)}")


def _run_wavefront(cfg: RunConfig, out: Path) -> None:
    result = wavefront_study(cfg)
    path = out / "wavefront_profile.csv"
    path.write_text(profile_csv(result), encoding="utf-8")
    print(f"wrote {path}")
    for (variant, t), fld in sorted(result.snapshots.items()):
        snap = out / f"wavefront_{variant}_t{t:g}.csv"
        export_field(fld, snap, fmt="csv")
        vtk = out / f"wavefront_{variant}_t{t:g}.vtk"
        export_field(fld, vtk, fmt="vtk")
        print(f"wrote {snap}")
        print(f"wrote {vtk}")
    for variant, mean in sorted(result.mean_iterations.items()):
        print(f"{variant}: mean corrector iterations {mean:.2f}")


def _run_single(cfg: RunConfig, out: Path) -> None:
    summary = single_run_study(cfg)
    path = out / "energy.csv"
    path.write_text(summary.energy_csv(), encoding="utf-8")
    print(f"wrote {path}")
    print(f"kind={summary.kind} n={summary.n} dt={summary.dt:.4e} "
          f"steps={len(summary.times) - 1} "
          f"mean_iterations={summary.mean_iterations:.2f}")
    if summary.err_psi is not None:
        print(f"err_psi={summary.err_psi:.6e} err_v={summary.err_v:.6e}")
    drift = abs(summary.energies0[-1] - summary.energies0[0])
    print(f"energy drift |e0(T) - e0(0)| = {drift:.6e}")


# subcommand -> (kind, or None for run, which takes the kind from the config
# file, default h_convergence; help; runner)
_COMMANDS = {
    "h-convergence": ("h_convergence",
                      "manufactured-solution refinement study",
                      _run_h_convergence),
    "delta-convergence": ("delta_convergence",
                          "sweep of the damping parameter against the "
                          "undamped solution", _run_delta_convergence),
    "wavefront": ("wavefront",
                  "nonlinear steepening run compared with its linear twin",
                  _run_wavefront),
    "run": (None, "single run with energy monitoring (kind set by the "
                  "config)", _run_single),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        # an unusable output directory fails before the solve
        out = _prepare_output(cfg)
        # the corrector and the factorizations report breakdowns
        # themselves, so numpy's floating-point warnings stay silent
        with np.errstate(all="ignore"):
            _COMMANDS[args.command][2](cfg, out)
    except (ConfigError, AssemblyError) as exc:
        # an AssemblyError here is a tau whose penalty overflows or swamps
        # the facet system
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
