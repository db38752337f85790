"""Campaign run execution: one spec, one fresh simulated kernel.

:func:`execute_run` is the single execution path shared by every
campaign strategy -- the task each pool worker runs (submitted by
:class:`~repro.campaign.runner.CampaignRunner`), the adaptive
in-process fallback in the coordinator, and direct use from tests and
notebooks.  Each run gets a **fresh**
:class:`~repro.kernel.kernel.Kernel` (no simulated state crosses runs
-- only the host-side softfloat memo, which is architecturally
invisible), and returns a compact, picklable :class:`RunOutcome`.

Exceptions escaping a run are deliberately left to propagate: the pool
and in-process paths both treat them as a retryable structured failure
(the pool ships the exception back from the worker), and a direct
caller sees a test failure.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import asdict, dataclass, field

from repro.campaign.spec import PASS_NAMES, RunSpec


@dataclass
class RunOutcome:
    """Everything one run contributes to the merged campaign report.

    Every field except ``host_seconds``, ``attempts``, and ``telemetry``
    is a pure function of the spec: the report builder keeps those three
    out of the deterministic section.
    """

    index: int
    label: str
    status: str  #: "ok" | "failed"
    attempts: int = 1
    error: str | None = None
    cycles: int = 0
    wall_seconds: float = 0.0  #: simulated
    user_seconds: float = 0.0
    system_seconds: float = 0.0
    host_seconds: float = 0.0  #: host wall-clock cost of the run
    killed: bool = False  #: any guest process died to a fatal signal
    events: tuple[str, ...] = ()  #: event inventory, table order
    aggregate_records: int = 0
    individual_records: int = 0
    #: ``(path, size_bytes, sha256 hex)`` per trace file, path-sorted.
    trace_digest: tuple[tuple[str, int, str], ...] = ()
    #: Individual-record count per event name (:data:`EVENT_ORDER`
    #: order, zero-count events omitted) -- Figure 15's raw material.
    event_counts: dict = field(default_factory=dict)
    #: Per-code rank-popularity inputs for Figures 17-19
    #: (:func:`repro.analysis.extract.code_rankpop_inputs`).
    rankpop: tuple = ()
    #: Typed telemetry snapshot (``snapshot_typed``) when enabled.
    telemetry: dict | None = field(default=None, repr=False)
    #: Flight-recorder tallies (``RunSpec.tracing`` runs only).
    spans_recorded: int = 0
    span_trees: int = 0
    spans_dropped: int = 0
    #: Full retention/ring/sampler stats (``TraceRecorder.stats``).
    trace_stats: dict = field(default_factory=dict)
    #: Provenance rollup rows (``ProvenanceTracker.rollup_rows``).
    provenance: tuple[tuple, ...] = ()
    #: ``(filename, size_bytes, sha256 hex)`` of the packed-span artifact
    #: the executing process wrote into the campaign's trace directory.
    #: Workers write ``spans.bin`` files directly (never shipping span
    #: bytes through the result queue -- a tracing campaign's runs carry
    #: megabytes of packed records, and large pickles stall the queue);
    #: the coordinator only ever sees this small digest triple.
    trace_artifact: tuple = ()

    def to_dict(self) -> dict:
        return asdict(self)


def execute_run(
    index: int, spec: RunSpec, trace_dir: str | None = None,
) -> RunOutcome:
    """Execute one run spec in a fresh simulated kernel (in-process).

    Raises on an invalid spec or a simulator bug; the caller decides
    whether that is a test failure (direct use) or a worker crash
    (campaign use).  For ``tracing`` specs, ``trace_dir`` names the
    campaign directory where this process writes the packed-span
    artifact (``runNNNN.spans.bin``) directly; without it the span
    bytes are discarded after the tallies are taken.
    """
    from repro.analysis.extract import code_rankpop_inputs, per_event_counts
    from repro.fp.flags import flags_to_events
    from repro.kernel.kernel import Kernel, KernelConfig
    from repro.study.passes import pass_env
    from repro.study.targets import make_targets
    from repro.telemetry.procfs import PROC_ROOT
    from repro.telemetry.tracing import to_binary
    from repro.trace.reader import TraceSet

    targets = make_targets()
    if spec.app not in targets:
        raise ValueError(
            f"unknown campaign target {spec.app!r}; "
            f"choose from {sorted(targets)}")
    if spec.mode not in PASS_NAMES:
        raise ValueError(
            f"unknown campaign pass {spec.mode!r}; choose from {PASS_NAMES}")

    env = pass_env(spec.mode)
    kernel = Kernel(KernelConfig(
        telemetry=spec.telemetry,
        tracing=spec.tracing,
    ))
    t0 = time.perf_counter()
    targets[spec.app].launch(kernel, env, spec.scale, spec.variant, spec.seed)
    kernel.run()
    host_seconds = time.perf_counter() - t0

    procs = list(kernel.processes.values())
    freq = kernel.config.freq_hz
    user = sum(t.utime_cycles for p in procs for t in p.tasks.values()) / freq
    system = sum(t.stime_cycles for p in procs for t in p.tasks.values()) / freq

    traces = TraceSet.from_vfs(kernel.vfs)
    # Figure-grade distillation (repro.analytics): each run ships the
    # per-event record counts and per-code rank-popularity inputs, so
    # the paper's evaluation figures regenerate from campaign.json
    # without the raw trace bytes ever leaving the worker.
    event_counts = per_event_counts(traces.all_records())
    rankpop = code_rankpop_inputs(traces.records_by_app())
    digest = []
    for path in kernel.vfs.listdir(""):
        if path.startswith(PROC_ROOT):
            continue  # synthetic introspection files are not run output
        data = kernel.vfs.read(path)
        digest.append((path, len(data), hashlib.sha256(data).hexdigest()))

    trace_artifact: tuple = ()
    if spec.tracing and trace_dir is not None:
        from repro.campaign.artifacts import write_bytes_atomic

        blob = to_binary(kernel.tracer.spans())
        name = f"run{index:04d}.spans.bin"
        write_bytes_atomic(os.path.join(trace_dir, name), blob)
        trace_artifact = (name, len(blob), hashlib.sha256(blob).hexdigest())

    return RunOutcome(
        index=index,
        label=spec.label,
        status="ok",
        cycles=kernel.cycles,
        wall_seconds=kernel.now_seconds,
        user_seconds=user,
        system_seconds=system,
        host_seconds=host_seconds,
        killed=any(p.killed_by is not None for p in procs),
        events=tuple(flags_to_events(traces.event_union())),
        aggregate_records=len(traces.aggregate),
        individual_records=traces.count(),
        trace_digest=tuple(sorted(digest)),
        event_counts=event_counts,
        rankpop=rankpop,
        telemetry=(
            kernel.telemetry.snapshot_typed() if spec.telemetry else None),
        spans_recorded=kernel.tracer.recorded if spec.tracing else 0,
        span_trees=kernel.tracer.trees_completed if spec.tracing else 0,
        spans_dropped=kernel.tracer.dropped if spec.tracing else 0,
        trace_stats=kernel.tracer.stats() if spec.tracing else {},
        provenance=(
            kernel.provenance.rollup_rows() if spec.tracing else ()),
        trace_artifact=trace_artifact,
    )
