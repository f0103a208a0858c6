"""Tests of the benchmark itself: the output checks reject corrupted
outputs, and every workload runs at reduced size through the same checks.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, PER_LAYER_UNITS, SELF_TIMES  # noqa: E402
from workloads import (  # noqa: E402
    DELTAS,
    WORKLOADS,
    CheckError,
    check_delta_sweep,
    check_energy,
    check_h_convergence,
    check_linear_passes,
)

LEVELS = (4, 8, 16)


def hconv_csv(scale=None, drop=None, comment=None) -> str:
    """h-convergence table with exact rates 3, 3 and 4; scale multiplies
    one error column on the finest level."""
    lines = ["h,dt,err_psi,rate_psi,err_v,rate_v,err_psistar,rate_psistar"]
    for i, n in enumerate(LEVELS):
        if i == drop:
            continue
        h = math.sqrt(2.0) / n
        err = {"psi": 0.1 * h**3, "v": 0.2 * h**3, "psistar": 0.3 * h**4}
        if scale and i == len(LEVELS) - 1:
            err[scale[0]] *= scale[1]
        lines.append(f"{h!r},0.01,{err['psi']!r},,{err['v']!r},,"
                     f"{err['psistar']!r},")
    if comment:
        lines.append(f"# {comment}")
    return "\n".join(lines) + "\n"


def delta_csv(power=1.0, drop=None) -> str:
    lines = ["delta,err_psi,rate_psi,err_v,rate_v"]
    for i, d in enumerate(DELTAS):
        if i != drop:
            lines.append(f"{d!r},{0.3 * d**power!r},,{1.2 * d!r},")
    lines.append("# slope_psi,1")
    lines.append("# slope_v,1")
    return "\n".join(lines) + "\n"


def energy_csv(steps=10, dt=0.1, drift=None, drop=None) -> str:
    lines = ["t,e0,e1"]
    for i in range(steps + 1):
        if i == drop:
            continue
        e0, e1 = 2.5, 7.0
        if drift and i == steps // 2:
            if drift[0] == "e0":
                e0 *= 1.0 + drift[1]
            else:
                e1 *= 1.0 + drift[1]
        lines.append(f"{i * dt!r},{e0!r},{e1!r}")
    return "\n".join(lines) + "\n"


def test_checks_accept_exact_outputs():
    rates = check_h_convergence(hconv_csv(), LEVELS)
    assert rates["rate_psi"] == pytest.approx(3.0)
    assert rates["rate_psistar"] == pytest.approx(4.0)
    assert check_delta_sweep(delta_csv())["slope_psi"] == pytest.approx(1.0)
    assert check_energy(energy_csv(), 10, 0.1)["drift_e0"] == 0.0
    check_linear_passes([{"min_passes": 2, "max_passes": 2}])


@pytest.mark.parametrize("key", ["psi", "v", "psistar"])
@pytest.mark.parametrize("off", [0.3, -0.3])
def test_hconv_rejects_rate_off_by_03(key, off):
    # the finest pair has h ratio 2, so scaling its error by 2**-off shifts
    # the observed rate by off
    with pytest.raises(CheckError, match=f"rate_{key} "):
        check_h_convergence(hconv_csv(scale=(key, 2.0 ** -off)), LEVELS)


@pytest.mark.parametrize("drop", [0, 1, 2])
def test_hconv_rejects_missing_level(drop):
    with pytest.raises(CheckError, match="levels"):
        check_h_convergence(hconv_csv(drop=drop), LEVELS)


def test_hconv_rejects_failed_level():
    with pytest.raises(CheckError, match="n=16: corrector"):
        check_h_convergence(hconv_csv(comment="n=16: corrector failed"),
                            LEVELS)


@pytest.mark.parametrize("power", [1.2, 0.8])
def test_delta_rejects_slope_off_by_02(power):
    with pytest.raises(CheckError, match="slope_psi"):
        check_delta_sweep(delta_csv(power=power))


@pytest.mark.parametrize("drop", [0, 2, 4])
def test_delta_rejects_missing_delta(drop):
    with pytest.raises(CheckError, match="deltas"):
        check_delta_sweep(delta_csv(drop=drop))


@pytest.mark.parametrize("key", ["e0", "e1"])
def test_energy_rejects_drift_1e6(key):
    with pytest.raises(CheckError, match=f"drift of {key}"):
        check_energy(energy_csv(drift=(key, 1e-6)), 10, 0.1)


@pytest.mark.parametrize("drop", [0, 10])
def test_energy_rejects_missing_step(drop):
    with pytest.raises(CheckError, match="energy rows"):
        check_energy(energy_csv(drop=drop), 10, 0.1)


@pytest.mark.parametrize("passes", [(1, 2), (2, 3)])
def test_linear_run_rejects_other_pass_counts(passes):
    with pytest.raises(CheckError, match="want exactly 2"):
        check_linear_passes([{"min_passes": passes[0],
                              "max_passes": passes[1]}])


def test_smoke_runs_every_workload_within_a_minute():
    started = time.monotonic()
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--smoke", "--seconds", "0", "--trace", "1"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"], proc.stderr
        assert result["failed"] == 0
        # --trace 1 runs the workload untraced and traced
        assert result["attempted"] == 2 * WORKLOADS[name].planned_runs(True)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert set(metrics) == set(PER_LAYER_UNITS)
        self_sum = sum(metrics[k] for k in SELF_TIMES) + metrics["trace.other_s"]
        assert self_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert time.monotonic() - started < 60.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        PER_LAYER_UNITS
