"""The four benchmark workloads and the child process that runs one pass.

Every pass runs in a fresh interpreter (``python -m bench.workloads
JOB_JSON``), so import time, the process-global softfloat memo and the
executor intern tables start cold each time, as they do for a user.  The
child prints one JSON object as its last line of standard output.

Only the package's public API is used: ``run_campaign`` and
``generate_figures`` for the campaign workloads, and
``make_targets()[name].launch`` plus ``Kernel.run`` for the direct
ones.  ``repro`` is imported inside functions so that ``setup_s`` times
the cold import.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass

#: Figure 6's highest-rate sampled configuration, in virtual-timer units.
POISSON_50 = "50000:100000"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  #: "campaign" (spec -> campaign -> figures) or "direct"
    scale: float
    why: str
    #: campaign workloads: "inprocess" or "pool", each on one worker
    execution: str = "inprocess"
    tracing: bool = False  #: campaign workloads: flight recorder on
    groups: tuple[str, ...] = ()  #: campaign workloads: figure groups
    poisson: str | None = None  #: direct workloads: FPE_POISSON


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "study", "campaign", 0.3, groups=("paper",),
            why="builtin figures campaign (9 targets x 4 passes = 36 runs, "
                "scale 0.3) in-process, then the paper figures: the "
                "paper's whole method, spec to Figures 7-19"),
        Workload(
            "trapstorm", "direct", 0.3,
            why="9 targets in individual mode, every Inexact traps, "
                "scale 0.3: the trap lifecycle at full rate on real "
                "operand streams, where storm batching engages"),
        Workload(
            "sampled50", "direct", 0.6, poisson=POISSON_50,
            why="9 targets in individual mode, Poisson 50000:100000 on "
                "the virtual timer, scale 0.6: armed timers make storm "
                "bail out, so per-event traps carry the load"),
        # One pool worker, forced: the coordinator waits while the worker
        # runs, so one CPU is busy at a time.  Two workers on a shared
        # 2-CPU host time the host's scheduler more than the campaign.
        Workload(
            "fleet", "campaign", 0.15, execution="pool",
            tracing=True, groups=("paper", "fleet"),
            why="figures campaign at scale 0.15 with tracing on a forced "
                "1-worker pool, then paper and fleet figures: spawn, "
                "dispatch, merge and span writes do material work"),
    )
}


#: Iterations of the host-speed probe run before and after every pass,
#: and the probe time that defines a normalized second (about the quiet
#: speed of a 2-CPU cloud VM).
CALIB_LOOPS = 500_000
CALIB_NOMINAL_S = 0.05


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed probe."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def _vfs_digest(kernel) -> list[list]:
    """Sorted ``[path, size, sha256]`` of the run's non-/proc files."""
    from repro.telemetry.procfs import PROC_ROOT

    out = []
    for path in kernel.vfs.listdir(""):
        if path.startswith(PROC_ROOT):
            continue
        data = kernel.vfs.read(path)
        out.append([path, len(data), hashlib.sha256(data).hexdigest()])
    return sorted(out)


class CampaignPass:
    """Spec -> ``run_campaign`` -> ``generate_figures``."""

    def __init__(self, wl: Workload, scale: float, seed: int) -> None:
        from repro.analytics import generate  # noqa: F401 - timed import
        from repro.campaign import figures_campaign

        self.wl = wl
        self.spec = figures_campaign(scale=scale, seed=seed).with_overrides(
            tracing=wl.tracing)

    def run(self, workdir: str) -> dict:
        from repro.analytics.generate import build_context, generate_figures
        from repro.campaign import run_campaign

        camp = os.path.join(workdir, "campaign")
        result = run_campaign(self.spec, workers=1,
                              execution=self.wl.execution, out_dir=camp)
        ctx = build_context([camp])
        for group in self.wl.groups:
            generate_figures(os.path.join(workdir, group), ctx, group=group)
        return {"runs": [
            {"label": o.label, "status": o.status, "host_s": o.host_seconds,
             "cycles": o.cycles, "files": [list(t) for t in o.trace_digest]}
            for o in result.outcomes
        ]}

    def figure_digests(self, workdir: str) -> dict:
        """sha256 of every generated diffable figure CSV."""
        out = {}
        for group in self.wl.groups:
            gdir = os.path.join(workdir, group)
            with open(os.path.join(gdir, "figures_manifest.json")) as fh:
                manifest = json.load(fh)
            for name, fig in sorted(manifest["figures"].items()):
                if fig["status"] != "generated" or not fig["diffable"]:
                    continue
                with open(os.path.join(gdir, fig["csv"]), "rb") as fh:
                    out[f"{group}/{fig['csv']}"] = hashlib.sha256(
                        fh.read()).hexdigest()
        return out


class DirectPass:
    """Each target launched on a fresh ``Kernel`` in individual mode."""

    def __init__(self, wl: Workload, scale: float, seed: int) -> None:
        from repro.fpspy import fpspy_env
        from repro.kernel.kernel import Kernel
        from repro.study.passes import pass_variant
        from repro.study.targets import TARGET_NAMES, make_targets
        from repro.telemetry import procfs  # noqa: F401 - timed import

        self.kernel_cls = Kernel
        self.scale = scale
        self.seed = seed
        self.targets = make_targets()
        self.plan = [(name, pass_variant("aggregate", name))
                     for name in TARGET_NAMES]
        if wl.poisson:
            self.env = fpspy_env("individual", poisson=wl.poisson,
                                 timer="virtual", seed=seed)
            self.mode = "poisson"
        else:
            self.env = fpspy_env("individual")
            self.mode = "individual"

    def run(self, workdir: str) -> dict:
        runs = []
        for name, variant in self.plan:
            kernel = self.kernel_cls()
            t0 = time.perf_counter()
            self.targets[name].launch(
                kernel, self.env, self.scale, variant, self.seed)
            kernel.run()
            host_s = time.perf_counter() - t0
            runs.append({
                "label": f"{name}/{self.mode}@{self.scale:g}#{self.seed}",
                "status": "ok", "host_s": host_s, "cycles": kernel.cycles,
                "files": _vfs_digest(kernel)})
        return {"runs": runs}

    def figure_digests(self, workdir: str) -> dict:
        return {}


def run_pass(job: dict) -> dict:
    """One timed pass of ``job["workload"]``; the child's whole job."""
    wl = WORKLOADS[job["workload"]]
    if job.get("cpu") is not None:
        # Pool workers inherit the mask, so the probe, the pass and its
        # workers all run on the one CPU every pass uses.
        os.sched_setaffinity(0, {job["cpu"]})
    workdir = job["workdir"]
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    calib_before = calibrate()

    t0 = time.perf_counter()
    cls = CampaignPass if wl.kind == "campaign" else DirectPass
    pass_ = cls(wl, job["scale"], job["seed"])
    setup_s = time.perf_counter() - t0

    ledger = None
    if job["trace"]:
        from bench.ledger import Ledger

        ledger = Ledger()
    with ledger or contextlib.nullcontext():
        t1 = time.perf_counter()
        out = pass_.run(workdir)
        wall_s = time.perf_counter() - t1

    calib_s = [calib_before, calibrate()]
    out["figures"] = pass_.figure_digests(workdir)
    kb = max(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out.update(setup_s=setup_s, wall_s=wall_s, calib_s=calib_s,
               peak_rss_mb=kb / 1024.0)
    if ledger is not None:
        out["layers"] = ledger.metrics(wall_s)
        if job.get("spans"):
            ledger.write_spans(job["spans"])
    shutil.rmtree(workdir, ignore_errors=True)
    return out


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
