"""Amortization-aware execution planning for campaigns.

The 0.75x lesson (BENCH_campaign.json before decision #13): parallel
workers are only a win when the campaign's divisible work exceeds the
fixed cost of standing the workers up.  On a 1-CPU host there is no
divisible win at all, and on any host a four-run smoke campaign can
finish in-process before the first spawned interpreter has imported
numpy.  So execution is *planned*: the coordinator estimates total run
cost from the specs, weighs it against the pool's standing cost, and
degrades to plain in-process execution whenever the pool cannot pay for
itself.

The cost model is deliberately a two-constant affine estimate measured
on the study targets, not a profile: planning must cost microseconds
and be deterministic, and the decision only needs to be right in order
of magnitude (the penalty for a wrong "pool" call is seconds of spawn
overhead, the penalty for a wrong "inprocess" call is forgoing a
speedup on a host with idle cores).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

from repro.campaign.spec import CampaignSpec, RunSpec

#: Measured cost of spawning one worker interpreter (spawn + imports).
SPAWN_SECONDS = 0.45
#: Per-run fixed cost (kernel construction, trace digesting).
BASE_RUN_SECONDS = 0.04
#: Marginal cost per unit of problem scale on the study targets.
PER_SCALE_SECONDS = 0.11

EXECUTION_MODES = ("auto", "pool", "inprocess")


@dataclass(frozen=True)
class ExecutionPlan:
    """How one campaign will be executed."""

    mode: str  #: "pool" | "inprocess"
    workers: int  #: pool width (1 for in-process)
    reason: str
    est_run_seconds: float  #: mean per-run estimate
    est_total_seconds: float

    def to_dict(self) -> dict:
        return asdict(self)


def estimate_run_seconds(spec: RunSpec) -> float:
    """Affine per-run cost estimate from the spec alone."""
    cost = BASE_RUN_SECONDS + PER_SCALE_SECONDS * spec.scale
    if spec.tracing:
        cost *= 1.1  # flight recorder enabled-mode overhead bound
    return cost


def plan_execution(
    campaign: CampaignSpec,
    workers: int | None = None,
    mode: str = "auto",
    cpu_count: int | None = None,
) -> ExecutionPlan:
    """Decide pool-vs-in-process and the pool width."""
    if mode not in EXECUTION_MODES:
        raise ValueError(
            f"unknown execution mode {mode!r}; choose from {EXECUTION_MODES}")
    n = len(campaign.runs)
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    requested = workers if workers is not None else cpus
    eff = max(1, min(requested, n)) if n else 1
    est_total = sum(estimate_run_seconds(r) for r in campaign.runs)
    est_run = est_total / n if n else 0.0

    def plan(m: str, w: int, reason: str) -> ExecutionPlan:
        return ExecutionPlan(
            mode=m,
            workers=w,
            reason=reason,
            est_run_seconds=round(est_run, 6),
            est_total_seconds=round(est_total, 6),
        )

    if mode == "pool":
        return plan("pool", eff, "forced by caller")
    if mode == "inprocess":
        return plan("inprocess", 1, "forced by caller")
    if n == 0:
        return plan("inprocess", 1, "empty campaign")
    if eff <= 1:
        return plan("inprocess", 1, "single worker requested")
    if cpus < 2:
        return plan("inprocess", 1, f"host has {cpus} cpu")
    # The divisible win is bounded by real cores, not requested workers.
    speedup_width = min(eff, cpus)
    parallel_win = est_total * (1.0 - 1.0 / speedup_width)
    standing_cost = eff * SPAWN_SECONDS
    if parallel_win <= standing_cost:
        return plan(
            "inprocess", 1,
            f"estimated parallel win {parallel_win:.2f}s cannot amortize "
            f"{standing_cost:.2f}s pool standing cost")
    return plan("pool", eff, f"parallel win {parallel_win:.2f}s clears "
                             f"standing cost {standing_cost:.2f}s")
