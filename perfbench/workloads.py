"""The benchmark's workloads and the correctness checks on their reports.

A workload is a fixed list of scenario executions, each run through the
public entry point ``memnet_sim.cli.main`` with the ``paper`` preset.  One
round runs every scenario of the workload once, in order.  The checks look
only at the report bundle an execution leaves on disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

HERALDED_EVENTS = 1_000_000
PAIR_TOMOGRAPHY_TRIALS = 2_000_000
RAMAN_TRIALS = 200_000
LIFETIME_TRIALS = 2_000_000
# threads of the untimed thread-pool check; never more threads than cores
CHECK_WORKERS = min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Scenario:
    """One scenario execution: its CLI arguments, work count and checks.

    ``work`` reads the amount of work an execution did from its report body
    (heralded events, raw pair trials or swap-fidelity integrals), and
    ``check`` returns the acceptance bands the body breaks.  Timed
    executions run at ``--workers 1``, the CLI default.  A scenario with
    ``check_workers`` above 1 also gets one untimed execution on that many
    threads, whose bundle the timed ones must reproduce.
    """

    scenario: str
    samples: int | None
    work: Callable[[dict], int]
    check: Callable[[dict], list[str]]
    check_workers: int = 1

    def argv(self, seed: int, out_dir: str, workers: int = 1) -> list[str]:
        argv = ["--preset", "paper", "--scenario", self.scenario, "--seed", str(seed)]
        if self.samples is not None:
            argv += ["--samples", str(self.samples)]
        argv += ["--workers", str(workers), "--out", out_dir]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    scenarios: tuple[Scenario, ...]


def _band(problems: list[str], label: str, value, lo: float, hi: float) -> None:
    if value is None or not (lo <= value <= hi):
        problems.append(f"{label} = {value} outside [{lo}, {hi}]")


def _ghz_check(exact_ref: float) -> Callable[[dict], list[str]]:
    def check(body: dict) -> list[str]:
        problems: list[str] = []
        fid = body["fidelity"]
        est, sigma, exact = fid["estimate"], fid["sigma"], fid["exact"]
        _band(problems, "fidelity.estimate", est, exact - 5 * sigma, exact + 5 * sigma)
        _band(problems, "fidelity.exact", exact, exact_ref - 0.05, exact_ref + 0.05)
        return problems

    return check


def _pair_tomography_check(body: dict) -> list[str]:
    problems: list[str] = []
    for basis, table in body["tables"].items():
        if table["N"] != body["trials_per_basis"]:
            problems.append(f"{basis} table holds {table['N']} trials, not {body['trials_per_basis']}")
    return problems


def _raman_check(body: dict) -> list[str]:
    problems: list[str] = []
    _band(problems, "fit.period_us", body["fit"]["period_us"], 5.28 * 0.99, 5.28 * 1.01)
    return problems


def _lifetime_check(body: dict) -> list[str]:
    problems: list[str] = []
    fit = body["fit"]
    _band(problems, "fit.lifetime_us", fit["lifetime_us"], 75.0 * 0.98, 75.0 * 1.02)
    _band(problems, "fit.visibility_crossing_us", fit["visibility_crossing_us"], 39.0, 43.0)
    return problems


def _swap_check(body: dict) -> list[str]:
    problems: list[str] = []
    _band(problems, "flip_min", body["flip_min"], 1.0 - 1e-9, 1.0 + 1e-9)
    _band(problems, "flip_max", body["flip_max"], 1.0 - 1e-9, 1.0 + 1e-9)
    if body["ordering_holds"] is not True:
        problems.append("ordering_holds is not true")
    return problems


def _heralded(scenario: str, exact_ref: float) -> Scenario:
    return Scenario(
        scenario,
        HERALDED_EVENTS,
        work=lambda body: body["heralded_samples"],
        check=_ghz_check(exact_ref),
        check_workers=CHECK_WORKERS,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "heralded_ghz",
            "only workload that builds event tables, draws two-stage samples and "
            "estimates witnesses (ghz6, ghz3 at 1M events; workers=2 checked, not timed)",
            "heralded events/s",
            (_heralded("ghz6", 0.686), _heralded("ghz3", 0.709)),
        ),
        Workload(
            "pair_sweeps",
            "81 small pair tables and curve fits at workers=1: Philox stream "
            "set-up, node and detection layers, no event tables",
            "raw pair trials/s",
            (
                Scenario(
                    "pair_tomography",
                    PAIR_TOMOGRAPHY_TRIALS,
                    work=lambda body: 2 * body["trials_per_basis"],
                    check=_pair_tomography_check,
                ),
                Scenario(
                    "raman_delay_sweep",
                    RAMAN_TRIALS,
                    work=lambda body: len(body["points"]) * body["samples_per_point"],
                    check=_raman_check,
                ),
                Scenario(
                    "lifetime_sweep",
                    LIFETIME_TRIALS,
                    # an eigen-basis and a superposition-basis table per point
                    work=lambda body: 2 * len(body["points"]) * body["samples_per_point"],
                    check=_lifetime_check,
                ),
            ),
        ),
        Workload(
            "swap_grid",
            "control: 52 temporal-mode swap integrals, no RNG and no event "
            "tables, so sampling changes must leave it unmoved",
            "swap-fidelity integrals/s",
            (
                Scenario(
                    "two_node_swap",
                    None,
                    # grid rows and the single point each hold a flip and a no-flip integral
                    work=lambda body: 2 * (len(body["grid"]) + 1),
                    check=_swap_check,
                ),
            ),
        ),
    )
}
