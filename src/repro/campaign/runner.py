"""The campaign coordinator: planned execution over a process pool.

Design (DESIGN.md decisions #9, #13 and #17):

* **Planned execution.**  Every campaign is first planned
  (:mod:`repro.campaign.planner`): the coordinator weighs estimated
  total run cost against the pool's standing cost and either executes
  **in-process** (1-CPU hosts, tiny campaigns -- no spawn tax at all)
  or submits each run to a spawn-context
  :class:`~concurrent.futures.ProcessPoolExecutor` that lives for the
  campaign.
* **Deterministic merge.**  Results come back in completion order and
  are merged **in spec order** (:class:`ResultAccumulator`), so the
  merged report is byte-identical for any ``--workers`` and either
  execution mode.
* **Failure isolation.**  A run that raises is charged one attempt and
  resubmitted; a run that failed ``MAX_ATTEMPTS`` times becomes a
  structured failure.  A worker that dies without a report breaks the
  executor: every run in flight is charged (nothing attributes the
  death to one of them), and the still-eligible runs are requeued on a
  fresh executor.
"""

from __future__ import annotations

import os
import time
from collections import deque

from repro.campaign.artifacts import write_json_atomic, write_text_atomic
from repro.campaign.planner import ExecutionPlan, plan_execution
from repro.campaign.report import CampaignResult, ResultAccumulator
from repro.campaign.spec import CampaignSpec
from repro.campaign.worker import RunOutcome, execute_run

#: First try plus one retry.
MAX_ATTEMPTS = 2

STATUS_FILE = "status.json"
REPORT_FILE = "campaign_report.txt"
RESULT_FILE = "campaign.json"
TRACE_DIR = "traces"


class CampaignRunner:
    """Run a :class:`CampaignSpec` under a planned execution strategy.

    ``execution`` forces the mode (``"pool"``/``"inprocess"``) or leaves
    it to the planner (``"auto"``).  A pool-mode campaign owns its
    executor and shuts it down before :meth:`run` returns.
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        workers: int | None = None,
        out_dir: str | os.PathLike | None = None,
        execution: str = "auto",
    ) -> None:
        self.campaign = campaign
        self.workers = workers
        self.out_dir = os.fspath(out_dir) if out_dir else None
        self.execution = execution
        self._last_status: tuple | None = None
        # Coordinator-side telemetry: dispatch/retry counters ride the
        # same bus/snapshot machinery as the simulated layers, so
        # `repro.study telemetry` tooling can attribute coordinator
        # overhead next to guest costs.
        from repro.telemetry.bus import TelemetryBus

        self.bus = TelemetryBus()
        self._tel = self.bus.scope("campaign.pool")

    # ------------------------------------------------------------ plan

    def plan(self) -> ExecutionPlan:
        return plan_execution(
            self.campaign, workers=self.workers, mode=self.execution)

    # ------------------------------------------------------------- run

    def run(self) -> CampaignResult:
        t_start = time.perf_counter()
        n = len(self.campaign.runs)
        acc = ResultAccumulator(self.campaign)
        plan = self.plan()
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
        """Submit every run to a spawn-context process pool.

        At most ``plan.workers + 1`` runs are in flight, so one run
        waits queued behind each busy worker and a requeued run never
        lands behind the whole campaign.
        """
        # Imported here so in-process campaigns never load them (they
        # add about 1 MB to the in-process peak RSS).
        import multiprocessing
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )
        from concurrent.futures.process import BrokenProcessPool

        runs = self.campaign.runs
        attempts = [0] * len(runs)
        pending = deque(range(len(runs)))
        retries = spawned = 0
        dispatched_c = self._tel.counter("runs_dispatched")
        retry_c = self._tel.counter("run_retries")
        rebuild_c = self._tel.counter("pool_rebuilds")
        ctx = multiprocessing.get_context("spawn")

        def charge(index: int, error: str) -> None:
            """One failed attempt: requeue the run, or record it failed."""
            nonlocal retries
            attempts[index] += 1
            if attempts[index] >= MAX_ATTEMPTS:
                acc.add(RunOutcome(
                    index=index, label=runs[index].label, status="failed",
                    attempts=attempts[index], error=error))
            else:
                pending.append(index)
                retries += 1
                retry_c.inc()

        while pending:
            executor = ProcessPoolExecutor(plan.workers, mp_context=ctx)
            inflight: dict = {}
            submitted = 0
            broken = False
            try:
                while inflight or (pending and not broken):
                    while (pending and not broken
                           and len(inflight) <= plan.workers):
                        index = pending[0]
                        try:
                            future = executor.submit(
                                execute_run, index, runs[index], trace_dir)
                        except BrokenProcessPool:
                            broken = True
                            break
                        inflight[future] = pending.popleft()
                        submitted += 1
                        dispatched_c.inc()
                    # Once broken, nothing more is submitted and every
                    # in-flight future fails promptly; the loop drains
                    # them before the executor is rebuilt.
                    done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                    for future in sorted(done, key=inflight.get):
                        index = inflight.pop(future)
                        error = future.exception()
                        if error is None:
                            outcome = future.result()
                            attempts[index] += 1
                            outcome.attempts = attempts[index]
                            acc.add(outcome)
                        elif isinstance(error, BrokenProcessPool):
                            # A worker died without a report: nothing
                            # says which run killed it, so every run in
                            # flight is charged.
                            broken = True
                            charge(index,
                                   "worker process died without a report")
                        else:
                            charge(index, f"{type(error).__name__}: {error}")
                    self._write_status(
                        "running", acc, plan, retries,
                        spawned=spawned + min(plan.workers, submitted))
            finally:
                executor.shutdown(cancel_futures=True)
                spawned += min(plan.workers, submitted)
            if broken:
                rebuild_c.inc()
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
        return {
            "workers": plan.workers,
            "spawned_workers": spawned,
            "retries": retries,
            "host_wall_seconds": round(time.perf_counter() - t_start, 6),
            "plan": plan.to_dict(),
            "coordinator_telemetry": self.bus.snapshot_typed(),
        }


def run_campaign(
    campaign: CampaignSpec,
    workers: int | None = None,
    out_dir: str | os.PathLike | None = None,
    execution: str = "auto",
) -> CampaignResult:
    """Convenience one-shot wrapper around :class:`CampaignRunner`."""
    return CampaignRunner(
        campaign, workers=workers, out_dir=out_dir, execution=execution,
    ).run()
