"""The benchmark's workloads and the checks on the outputs they write.

Each workload is one call of the `westervelt-hdg` command line with a fixed
config file. Every input is deterministic: structured meshes and analytic
initial data, forcing and exact solutions, so no random seed is drawn.

The checks recompute rates, slopes and energy drift from the error and
energy columns of the CSV files; they never read the program's own rate or
slope columns. This module imports nothing from the program, so the checks
can be tested on synthetic tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

# delta values that delta_convergence_study sweeps, after its undamped run
DELTAS = (1.0e-2, 1.0e-4, 1.0e-6, 1.0e-8, 1.0e-10)
# slopes are fitted where the distance is still linear in delta and far above
# the corrector tolerance, as in DeltaReport.fit_range
DELTA_FIT_RANGE = (1.0e-8, 1.0e-2)


class CheckError(Exception):
    """An output of the program is missing or violates a property of the
    method."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    params: dict  # full size
    smoke_params: dict  # reduced size, same checks

    def size(self, smoke: bool) -> dict:
        return self.smoke_params if smoke else self.params

    def config_text(self, smoke: bool = False) -> str:
        return CONFIG_TEMPLATES[self.command].format(**self.size(smoke))

    def planned_runs(self, smoke: bool = False) -> int:
        """Solver runs (newmark.run calls) one round attempts."""
        if self.command == "h-convergence":
            return len(self.size(smoke)["levels"])
        if self.command == "delta-convergence":
            return 1 + len(DELTAS)
        return 1

    def check(self, out: Path, runs: list[dict], smoke: bool = False) -> dict:
        """Raise CheckError unless the round's outputs are correct; return
        the figures checked."""
        p = self.size(smoke)
        if self.command == "h-convergence":
            path = out / f"h_convergence_p{p['degree']}.csv"
            return check_h_convergence(_read(path), p["levels"])
        if self.command == "delta-convergence":
            path = out / f"delta_convergence_p{p['degree']}.csv"
            return check_delta_sweep(_read(path))
        steps = round(p["final_time"] / p["dt"])
        figures = check_energy(_read(out / "energy.csv"), steps, p["dt"])
        figures.update(check_linear_passes(runs))
        return figures


CONFIG_TEMPLATES = {
    "h-convergence": """\
[problem]
kind = h_convergence
final_time = {final_time!r}

[discretization]
degree = {degree}
levels = {levels_text}

[newmark]
coarse_steps = {coarse_steps}
""",
    "delta-convergence": """\
[problem]
kind = delta_convergence
final_time = {final_time!r}

[discretization]
degree = {degree}
levels = {levels_text}

[newmark]
dt = {dt!r}
""",
    "run": """\
[problem]
kind = delta_convergence
k = 0.0
final_time = {final_time!r}

[discretization]
degree = {degree}
levels = {levels_text}

[newmark]
dt = {dt!r}
""",
}


def _params(**kw) -> dict:
    kw["levels_text"] = ", ".join(str(n) for n in kw["levels"])
    return kw


WORKLOADS = {w.name: w for w in (
    Workload(
        name="hconv-p2-n16",
        command="h-convergence",
        params=_params(degree=2, levels=(4, 8, 16), final_time=1.0,
                       coarse_steps=200),
        smoke_params=_params(degree=2, levels=(4, 8), final_time=0.25,
                             coarse_steps=50),
    ),
    Workload(
        name="delta-sweep-n24",
        command="delta-convergence",
        params=_params(degree=1, levels=(24,), final_time=0.3, dt=1.0e-2),
        smoke_params=_params(degree=1, levels=(8,), final_time=0.1,
                             dt=1.0e-2),
    ),
    Workload(
        name="energy-run-n24",
        command="run",
        params=_params(degree=2, levels=(24,), final_time=1.0, dt=5.0e-3),
        smoke_params=_params(degree=2, levels=(8,), final_time=0.25,
                             dt=5.0e-3),
    ),
)}


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as err:
        raise CheckError(f"missing output {path.name}: {err}") from err


def _table(text: str, header: str) -> tuple[list[dict], list[str]]:
    """Rows of a CSV table as dicts of floats (empty cells dropped), and the
    trailing '# ...' comment lines."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"unexpected header {lines[:1]!r}, want {header!r}")
    names = header.split(",")
    rows, comments = [], []
    for line in lines[1:]:
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise CheckError(f"malformed row {line!r}")
        try:
            rows.append({k: float(v) for k, v in zip(names, cells) if v})
        except ValueError as err:
            raise CheckError(f"malformed row {line!r}") from err
    return rows, comments


def _within(label: str, value: float, target: float, tol: float) -> None:
    if not abs(value - target) <= tol:  # also rejects nan
        raise CheckError(f"{label} = {value:.4f}, want {target} +- {tol}")


def _rate(e0: float, e1: float, h0: float, h1: float) -> float:
    if e0 <= 0.0 or e1 <= 0.0:
        return float("nan")
    return math.log(e0 / e1) / math.log(h0 / h1)


def check_h_convergence(text: str, levels) -> dict:
    """Every level present, and on the final pair of levels the observed
    rates are p+1 for psi and v and p+2 for the postprocessed psi*, at p=2."""
    header = "h,dt,err_psi,rate_psi,err_v,rate_v,err_psistar,rate_psistar"
    rows, failures = _table(text, header)
    if failures:
        raise CheckError("levels failed: " + "; ".join(failures))
    hs = [row["h"] for row in rows]
    want = [math.sqrt(2.0) / n for n in levels]
    if len(hs) != len(want) or any(abs(a - b) > 1e-12 * b
                                   for a, b in zip(hs, want)):
        raise CheckError(f"levels with h = {hs}, want h = {want}")
    a, b = rows[-2], rows[-1]
    rates = {f"rate_{key}": _rate(a[f"err_{key}"], b[f"err_{key}"],
                                  a["h"], b["h"])
             for key in ("psi", "v", "psistar")}
    _within("rate_psi", rates["rate_psi"], 3.0, 0.2)
    _within("rate_v", rates["rate_v"], 3.0, 0.2)
    _within("rate_psistar", rates["rate_psistar"], 4.0, 0.25)
    return rates


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx


def check_delta_sweep(text: str) -> dict:
    """Every delta present, and the distances from the undamped run fall
    linearly in delta: fitted log-log slopes 1 +- 0.15."""
    rows, _ = _table(text, "delta,err_psi,rate_psi,err_v,rate_v")
    deltas = [row["delta"] for row in rows]
    if len(deltas) != len(DELTAS) or any(
            abs(a - b) > 1e-12 * b for a, b in zip(deltas, DELTAS)):
        raise CheckError(f"deltas {deltas}, want {list(DELTAS)}")
    lo, hi = DELTA_FIT_RANGE
    fit = [row for row in rows if lo <= row["delta"] <= hi]
    slopes = {}
    for key in ("psi", "v"):
        errs = [row[f"err_{key}"] for row in fit]
        if min(errs) <= 0.0:
            raise CheckError(f"err_{key} not positive: {errs}")
        slopes[f"slope_{key}"] = _slope([row["delta"] for row in fit], errs)
        _within(f"slope_{key}", slopes[f"slope_{key}"], 1.0, 0.15)
    return slopes


def check_energy(text: str, steps: int, dt: float) -> dict:
    """Every step present, and both discrete energies keep their t = 0
    value to a relative 1e-8, as average-acceleration Newmark must for a
    linear undamped system."""
    rows, _ = _table(text, "t,e0,e1")
    if len(rows) != steps + 1:
        raise CheckError(f"{len(rows)} energy rows, want {steps + 1}")
    if rows[0]["t"] != 0.0 or abs(rows[-1]["t"] - steps * dt) > 1e-9:
        raise CheckError(f"times run from {rows[0]['t']} to {rows[-1]['t']}, "
                         f"want 0 to {steps * dt}")
    drifts = {}
    for key in ("e0", "e1"):
        ref = rows[0][key]
        if not ref > 0.0:
            raise CheckError(f"{key}(0) = {ref}, want > 0")
        drift = max(abs(row[key] - ref) for row in rows) / ref
        if not drift <= 1e-8:
            raise CheckError(f"relative drift of {key} = {drift:.3e}, "
                             f"want <= 1e-8")
        drifts[f"drift_{key}"] = drift
    return drifts


def check_linear_passes(runs: list[dict]) -> dict:
    """With k = 0 the first corrector pass solves the step exactly and the
    second confirms it: exactly two passes on every step."""
    for run in runs:
        if run["min_passes"] != 2 or run["max_passes"] != 2:
            raise CheckError(
                f"corrector passes per step range over "
                f"[{run['min_passes']}, {run['max_passes']}], want exactly 2")
    return {"passes_per_step": 2}
