"""The persistent worker pool (DESIGN.md decision #13).

The first campaign runner paid its fixed costs per *campaign*: every
``run()`` spawned fresh interpreters and every run index crossed a
queue on its own.  At 27 runs x ~0.13 s that overhead was the whole
budget -- BENCH_campaign.json recorded **0.75x** at 4 workers.  This
module moves every fixed cost to the widest amortization scope
available:

* **Spawn once per pool.**  A :class:`WorkerPool` owns its worker
  processes for its whole lifetime; campaigns (and daemon jobs) borrow
  the pool, so the second campaign pays zero spawn cost.
* **Batched dispatch.**  Workers receive batches of run indices sized
  by the planner (:mod:`repro.campaign.planner`), not one index per
  ``Queue.put``; queue round-trips drop from O(runs) to O(batches).

Workers keep no state between runs beyond the process-global softfloat
caches, which are bit-transparent.

Failure isolation keeps the old contract at batch granularity: a run
that poisons its worker produces a ``crash`` message (or a silent
death, detected by liveness polling); the coordinator retries the
batch's unfinished runs on a fresh pool member, and any run that
*demonstrably* crashed twice becomes a structured failure.  Attempts
are charged on evidence of execution -- a run that never started
because a predecessor in its batch crashed is re-dispatched without
being charged, so an innocent run can never exhaust its attempts
without executing.

The pool is transport and lifecycle only; scheduling policy lives in
:class:`repro.campaign.runner.CampaignRunner` and execution semantics
in :func:`repro.campaign.worker.execute_run`.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field

from repro.campaign.spec import CampaignSpec


def pool_worker_main(worker_id: int, task_q, result_q) -> None:
    """Spawn entry point for one pool worker.

    Messages on ``task_q`` (coordinator -> worker):

    * ``("campaign", key, campaign_json, trace_dir)`` -- cache a parsed
      campaign under ``key`` for later batches.
    * ``("batch", key, batch_id, indices)`` -- execute each index of the
      cached campaign in order, streaming one ``run`` message per run
      and a ``batch_done`` at the end.
    * ``("quit",)`` -- exit cleanly.

    Messages on ``result_q`` (worker -> coordinator, all picklable):

    * ``("run", wid, key, batch_id, RunOutcome)``
    * ``("batch_done", wid, key, batch_id)``
    * ``("crash", wid, key, batch_id, index, error)`` -- then the
      process exits (a poisoned interpreter never serves another run)
    """
    from repro.campaign.worker import execute_run

    campaigns: dict[str, tuple[CampaignSpec, str | None]] = {}
    while True:
        msg = task_q.get()
        kind = msg[0]
        if kind == "quit":
            break
        if kind == "campaign":
            _, key, campaign_json, trace_dir = msg
            campaigns[key] = (CampaignSpec.from_json(campaign_json), trace_dir)
            continue
        _, key, batch_id, indices = msg
        campaign, trace_dir = campaigns[key]
        for index in indices:
            try:
                outcome = execute_run(
                    index, campaign.runs[index], trace_dir=trace_dir)
            except BaseException as exc:  # poisoned spec: isolate by dying
                result_q.put(
                    ("crash", worker_id, key, batch_id, index,
                     f"{type(exc).__name__}: {exc}"))
                return
            result_q.put(("run", worker_id, key, batch_id, outcome))
        result_q.put(("batch_done", worker_id, key, batch_id))


@dataclass
class PoolWorker:
    """Coordinator-side handle for one worker process."""

    id: int
    proc: object
    task_q: object
    #: Campaign keys this worker has been sent (lazily, before its
    #: first batch of each campaign).
    campaigns: set = field(default_factory=set)
    #: ``(key, batch_id)`` currently executing, or None when idle.
    assigned: tuple | None = None
    dead: bool = False

    @property
    def alive(self) -> bool:
        return not self.dead and self.proc.is_alive()

    @property
    def idle(self) -> bool:
        return self.alive and self.assigned is None


class WorkerPool:
    """A persistent set of worker processes serving campaigns.

    Lifecycle: construct, :meth:`start` (idempotent; spawns workers),
    serve any number of campaigns through
    :class:`~repro.campaign.runner.CampaignRunner`, then :meth:`close`.
    A pool is single-campaign-at-a-time by design: jobs borrow it
    serially, which is exactly the daemon's queue discipline.
    """

    def __init__(self, workers: int, mp_context=None) -> None:
        self.workers = max(1, workers)
        self.ctx = mp_context or multiprocessing.get_context("spawn")
        self.result_q = None
        self._workers: dict[int, PoolWorker] = {}
        self._next_id = 0
        self._started = False
        self._closed = False
        self.stats = {
            "workers": self.workers,
            "spawned_total": 0,
            "crashed_total": 0,
            "campaigns_served": 0,
        }

    # -------------------------------------------------------- lifecycle

    @property
    def started(self) -> bool:
        return self._started and not self._closed

    def start(self) -> "WorkerPool":
        """Spawn the workers (idempotent)."""
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._started:
            return self
        self.result_q = self.ctx.Queue()
        for _ in range(self.workers):
            self.spawn_worker()
        self._started = True
        return self

    def spawn_worker(self) -> PoolWorker:
        """Spawn one fresh worker (initial fill or crash replacement)."""
        wid = self._next_id
        self._next_id += 1
        task_q = self.ctx.Queue()
        proc = self.ctx.Process(
            target=pool_worker_main,
            args=(wid, task_q, self.result_q),
            daemon=True,
        )
        proc.start()
        w = PoolWorker(id=wid, proc=proc, task_q=task_q)
        self._workers[wid] = w
        self.stats["spawned_total"] += 1
        return w

    def worker(self, wid: int) -> PoolWorker:
        return self._workers[wid]

    def all_workers(self) -> list[PoolWorker]:
        return list(self._workers.values())

    def live_workers(self) -> list[PoolWorker]:
        return [w for w in self._workers.values() if w.alive]

    def idle_workers(self) -> list[PoolWorker]:
        return [w for w in self._workers.values() if w.idle]

    def mark_crashed(self, w: PoolWorker) -> None:
        w.dead = True
        w.assigned = None
        self.stats["crashed_total"] += 1

    # --------------------------------------------------------- dispatch

    def send_campaign(
        self, w: PoolWorker, key: str, campaign_json: str,
        trace_dir: str | None,
    ) -> None:
        """Ensure ``w`` holds the campaign before its first batch of it."""
        if key not in w.campaigns:
            w.task_q.put(("campaign", key, campaign_json, trace_dir))
            w.campaigns.add(key)

    def send_batch(
        self, w: PoolWorker, key: str, batch_id: int,
        indices: tuple[int, ...],
    ) -> None:
        w.assigned = (key, batch_id)
        w.task_q.put(("batch", key, batch_id, indices))

    # ------------------------------------------------------------ close

    def close(self, timeout: float = 5.0) -> dict:
        """Ask every worker to quit, give them ``timeout`` seconds in
        total to exit, then terminate stragglers.

        Returns the pool stats dict.  Safe to call twice.
        """
        if self._closed or not self._started:
            self._closed = True
            return self.stats
        for w in self._workers.values():
            if w.proc.is_alive():
                w.task_q.put(("quit",))
        deadline = time.monotonic() + timeout
        for w in self._workers.values():
            w.proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for w in self._workers.values():
            if w.proc.is_alive():  # stuck worker (e.g. mid-batch)
                w.proc.terminate()
                w.proc.join(timeout=timeout)
        self._closed = True
        return self.stats

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
