"""The campaign coordinator: planned execution over a worker pool.

Design (DESIGN.md decisions #9 and #13):

* **Planned execution.**  Every campaign is first planned
  (:mod:`repro.campaign.planner`): the coordinator weighs estimated
  total run cost against the pool's standing cost and either executes
  **in-process** (1-CPU hosts, tiny campaigns -- no spawn tax at all)
  or dispatches **batches** of run indices over a persistent
  :class:`~repro.campaign.pool.WorkerPool`.
* **Pools, borrowed or owned.**  A caller-supplied pool (the daemon's)
  is borrowed and left running -- the second campaign pays zero spawn.
  Without one, the runner owns a private pool for the campaign and
  closes it at the end.
* **Deterministic merge.**  Results stream back in completion order and
  are merged **in spec order** (:class:`ResultAccumulator`), so the
  merged report is byte-identical for any ``--workers``, any batch
  size, and either execution mode.
* **Failure isolation at batch granularity.**  A run that poisons its
  worker crashes the whole worker; the batch's unfinished runs are
  retried on a fresh pool member and a run that demonstrably crashed
  ``MAX_ATTEMPTS`` times becomes a structured failure.  Attempts are
  charged only on evidence of execution, so an innocent run that never
  started cannot exhaust its attempts.
"""

from __future__ import annotations

import os
import queue
import time
from collections import deque
from dataclasses import dataclass, field

from repro.campaign.artifacts import write_json_atomic, write_text_atomic
from repro.campaign.planner import ExecutionPlan, plan_batches, plan_execution
from repro.campaign.pool import WorkerPool
from repro.campaign.report import CampaignResult, ResultAccumulator
from repro.campaign.spec import CampaignSpec
from repro.campaign.worker import RunOutcome, execute_run

#: First try plus one retry on a fresh worker.
MAX_ATTEMPTS = 2

STATUS_FILE = "status.json"
REPORT_FILE = "campaign_report.txt"
RESULT_FILE = "campaign.json"
TRACE_DIR = "traces"


@dataclass
class _BatchState:
    """One in-flight batch: which of its runs have reported back."""

    id: int
    indices: tuple[int, ...]
    worker: int
    done: set = field(default_factory=set)


class CampaignRunner:
    """Run a :class:`CampaignSpec` under a planned execution strategy.

    ``pool`` borrows an existing started :class:`WorkerPool` (daemon
    jobs, consecutive campaigns); otherwise the runner owns a private
    pool when the plan calls for one.  ``execution`` forces the mode
    (``"pool"``/``"inprocess"``) or leaves it to the planner
    (``"auto"``).
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        workers: int | None = None,
        out_dir: str | os.PathLike | None = None,
        poll_seconds: float = 0.2,
        batch_size: int | None = None,
        execution: str = "auto",
        pool: WorkerPool | None = None,
    ) -> None:
        self.campaign = campaign
        self.workers = workers
        self.out_dir = os.fspath(out_dir) if out_dir else None
        self.poll_seconds = poll_seconds
        self.batch_size = batch_size
        self.execution = execution
        self.pool = pool
        self._last_status: tuple | None = None
        # Coordinator-side telemetry: dispatch/batch counters ride the
        # same bus/snapshot machinery as the simulated layers, so
        # `repro.study telemetry` tooling can attribute coordinator
        # overhead next to guest costs.
        from repro.telemetry.bus import TelemetryBus

        self.bus = TelemetryBus()
        self._tel = self.bus.scope("campaign.pool")

    # ------------------------------------------------------------ plan

    def plan(self) -> ExecutionPlan:
        borrowed = self.pool is not None and self.pool.started
        workers = self.workers
        if workers is None and self.pool is not None:
            workers = self.pool.workers
        return plan_execution(
            self.campaign,
            workers=workers,
            batch_size=self.batch_size,
            mode=self.execution,
            pool_warm=borrowed,
        )

    # ------------------------------------------------------------- run

    def run(self) -> CampaignResult:
        t_start = time.perf_counter()
        campaign = self.campaign
        n = len(campaign.runs)
        acc = ResultAccumulator(campaign)
        plan = self.plan()
        self._tel.counter("campaigns").inc()
        trace_dir = self._trace_dir()

        if n == 0:
            result = acc.merge(host=self._host_stats(plan, 0, 0, t_start))
            self._write_artifacts(result)
            return result

        if plan.mode == "inprocess":
            retries, spawned = self._run_inprocess(plan, acc, trace_dir), 0
        else:
            retries, spawned = self._run_pool(plan, acc, trace_dir)
        host = self._host_stats(plan, spawned, retries, t_start)

        result = acc.merge(host=host)
        self._write_status("done", acc, plan, retries, spawned=spawned)
        self._write_artifacts(result)
        return result

    # ----------------------------------------------------- in-process

    def _run_inprocess(
        self, plan: ExecutionPlan, acc: ResultAccumulator,
        trace_dir: str | None,
    ) -> int:
        """Execute every run in this process (no spawn, no queues).

        The retry contract survives without process isolation: a run
        that raises is retried once in a fresh simulated kernel, then
        recorded as a structured failure.  (What is traded away is
        interpreter isolation -- the planner only picks this mode when
        the pool cannot pay for itself.)
        """
        runs_c = self._tel.counter("inprocess_runs")
        retries = 0
        for index, spec in enumerate(self.campaign.runs):
            error = None
            for attempt in range(1, MAX_ATTEMPTS + 1):
                try:
                    outcome = execute_run(index, spec, trace_dir=trace_dir)
                    outcome.attempts = attempt
                    acc.add(outcome)
                    error = None
                    break
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    if attempt < MAX_ATTEMPTS:
                        retries += 1
                        self._tel.counter("run_retries").inc()
            if error is not None:
                acc.add(RunOutcome(
                    index=index, label=spec.label, status="failed",
                    attempts=MAX_ATTEMPTS, error=error))
            runs_c.inc()
            self._write_status("running", acc, plan, retries, spawned=0)
        return retries

    # ------------------------------------------------------------ pool

    def _run_pool(
        self, plan: ExecutionPlan, acc: ResultAccumulator,
        trace_dir: str | None,
    ) -> tuple[int, int]:
        campaign = self.campaign
        n = len(campaign.runs)
        pool = self.pool
        owned = pool is None
        if owned:
            pool = WorkerPool(plan.workers)
        borrowed_warm = pool.started
        pool.start()
        spawned_before = pool.stats["spawned_total"]

        key = campaign.spec_hash
        campaign_json = campaign.to_json()
        batches: deque = deque(
            (bid, indices)
            for bid, indices in enumerate(plan_batches(n, plan.batch_size)))
        next_batch_id = len(batches)
        inflight: dict[int, _BatchState] = {}
        attempts = [0] * n
        retries = 0
        width = min(plan.workers, pool.workers)

        batches_c = self._tel.counter("batches_dispatched")
        runs_c = self._tel.counter("runs_dispatched")
        retry_c = self._tel.counter("batch_retries")
        crash_c = self._tel.counter("workers_crashed")

        def resolve_death(w, crashed_index: int | None, error: str) -> None:
            """A worker died mid-batch: retry its unfinished runs."""
            nonlocal retries, next_batch_id
            state = inflight.pop(w.assigned[1], None) if w.assigned else None
            pool.mark_crashed(w)
            crash_c.inc()
            if state is None:
                return
            unfinished = [
                i for i in state.indices
                if i not in state.done and i not in acc]
            if crashed_index is None:
                # Silent death: no crash report attributes the kill, so
                # every unfinished run in the batch is charged.
                for i in unfinished:
                    attempts[i] += 1
            requeue = []
            for i in unfinished:
                if attempts[i] >= MAX_ATTEMPTS:
                    acc.add(RunOutcome(
                        index=i, label=campaign.runs[i].label,
                        status="failed", attempts=attempts[i], error=error))
                else:
                    requeue.append(i)
                    retries += 1
            if requeue:
                batches.append((next_batch_id, tuple(requeue)))
                next_batch_id += 1
                retry_c.inc()
            # Keep enough fresh members to drain the remaining work.
            deficit = min(width, len(batches) + len(inflight)) - len(
                pool.live_workers())
            for _ in range(max(0, deficit)):
                pool.spawn_worker()

        def dispatch() -> None:
            for w in pool.idle_workers():
                if not batches:
                    return
                bid, indices = batches.popleft()
                pool.send_campaign(w, key, campaign_json, trace_dir)
                pool.send_batch(w, key, bid, indices)
                inflight[bid] = _BatchState(
                    id=bid, indices=indices, worker=w.id)
                batches_c.inc()
                runs_c.inc(len(indices))

        # A borrowed pool may carry dead members from earlier work.
        deficit = min(width, len(batches)) - len(pool.live_workers())
        for _ in range(max(0, deficit)):
            pool.spawn_worker()

        while not acc.complete:
            dispatch()
            self._write_status(
                "running", acc, plan, retries,
                spawned=pool.stats["spawned_total"])
            try:
                msg = pool.result_q.get(timeout=self.poll_seconds)
            except queue.Empty:
                # No message in flight: any dead worker with an
                # unresolved assignment died silently.
                for w in pool.all_workers():
                    if not w.dead and not w.proc.is_alive():
                        resolve_death(
                            w, None, "worker process died without a report")
                continue
            kind, wid = msg[0], msg[1]
            w = pool.worker(wid)
            if kind in ("run", "batch_done", "crash") and msg[2] != key:
                # Stale message from a previous campaign, buffered on a
                # borrowed pool (e.g. the silent-death duplicate race
                # below): another campaign's outcome must never land in
                # this accumulator, and its crash index may not even
                # exist in this spec.  Worker-level state is still
                # real, though -- a finished old batch frees the
                # worker, and a crashed worker is dead whichever
                # campaign poisoned it.
                if kind == "batch_done":
                    w.assigned = None
                elif kind == "crash" and not w.dead:
                    pool.mark_crashed(w)
                    crash_c.inc()
                    deficit = min(width, len(batches) + len(inflight)) - len(
                        pool.live_workers())
                    for _ in range(max(0, deficit)):
                        pool.spawn_worker()
                continue
            if kind == "run":
                outcome = msg[4]
                if outcome.index in acc:  # pragma: no cover - late twin
                    # A silently-dying worker's buffered outcome can race
                    # its own death resolution; the retry's result (bit
                    # -identical by construction) already landed.
                    continue
                attempts[outcome.index] += 1
                outcome.attempts = attempts[outcome.index]
                acc.add(outcome)
                state = inflight.get(msg[3])
                if state is not None:
                    state.done.add(outcome.index)
            elif kind == "batch_done":
                inflight.pop(msg[3], None)
                w.assigned = None
            elif kind == "crash":
                _, _, _, batch_id, index, error = msg
                attempts[index] += 1
                resolve_death(w, index, error)

        pool.stats["campaigns_served"] += 1
        spawned = pool.stats["spawned_total"] - (
            spawned_before if borrowed_warm else 0)
        if owned:
            pool.close()
        self._pool_stats = dict(pool.stats)
        self._pool_stats["reused"] = borrowed_warm
        return retries, spawned

    # ------------------------------------------------------- artifacts

    def _trace_dir(self) -> str | None:
        if self.out_dir is None:
            return None
        if not any(r.tracing for r in self.campaign.runs):
            return None
        trace_dir = os.path.join(self.out_dir, TRACE_DIR)
        os.makedirs(trace_dir, exist_ok=True)
        return trace_dir

    def _write_artifacts(self, result: CampaignResult) -> None:
        if self.out_dir is None:
            return
        write_text_atomic(
            os.path.join(self.out_dir, REPORT_FILE), result.report_text)
        write_json_atomic(
            os.path.join(self.out_dir, RESULT_FILE), result.to_dict())
        self._export_chrome_traces(result)

    def _export_chrome_traces(self, result: CampaignResult) -> None:
        """Chrome trace-event exports next to the workers' ``spans.bin``.

        Workers write the packed spans directly into the campaign
        directory (never through the result queue); the coordinator
        derives the Perfetto-loadable JSON from those files at the end.
        """
        traced = [o for o in result.outcomes if o.trace_artifact]
        if not traced:
            return
        from repro.telemetry.tracing import spans_from_binary, to_chrome_json

        trace_dir = os.path.join(self.out_dir, TRACE_DIR)
        for o in traced:
            name = o.trace_artifact[0]
            path = os.path.join(trace_dir, name)
            try:
                with open(path, "rb") as fh:
                    blob = fh.read()
            except OSError:  # pragma: no cover - artifact vanished
                continue
            write_text_atomic(
                os.path.join(
                    trace_dir, name.replace(".spans.bin", ".trace.json")),
                to_chrome_json(spans_from_binary(blob)))

    def _write_status(
        self, state: str, acc: ResultAccumulator, plan: ExecutionPlan,
        retries: int, spawned: int,
    ) -> None:
        if self.out_dir is None:
            return
        failed = acc.failed_so_far()
        key = (state, acc.done, retries, tuple(failed))
        if key == self._last_status:
            return
        self._last_status = key
        write_json_atomic(os.path.join(self.out_dir, STATUS_FILE), {
            "campaign": self.campaign.name,
            "spec_hash": self.campaign.spec_hash,
            "state": state,
            "mode": plan.mode,
            "batch_size": plan.batch_size,
            "total": len(self.campaign.runs),
            "done": acc.done,
            "failed": failed,
            "retries": retries,
            "workers": plan.workers,
            "spawned_workers": spawned,
            "updated_unix": round(time.time(), 3),
        })

    # ------------------------------------------------------- internals

    def _host_stats(
        self,
        plan: ExecutionPlan,
        spawned: int,
        retries: int,
        t_start: float,
    ) -> dict:
        host = {
            "workers": plan.workers,
            "spawned_workers": spawned,
            "retries": retries,
            "host_wall_seconds": round(time.perf_counter() - t_start, 6),
            "plan": plan.to_dict(),
            "coordinator_telemetry": self.bus.snapshot_typed(),
        }
        pool_stats = getattr(self, "_pool_stats", None)
        if pool_stats is not None:
            host["pool"] = pool_stats
        return host


def run_campaign(
    campaign: CampaignSpec,
    workers: int | None = None,
    out_dir: str | os.PathLike | None = None,
    batch_size: int | None = None,
    execution: str = "auto",
    pool: WorkerPool | None = None,
) -> CampaignResult:
    """Convenience one-shot wrapper around :class:`CampaignRunner`."""
    return CampaignRunner(
        campaign, workers=workers, out_dir=out_dir,
        batch_size=batch_size, execution=execution, pool=pool,
    ).run()
