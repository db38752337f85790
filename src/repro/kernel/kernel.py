"""The kernel proper: process lifecycle, scheduling, timers, wall clock.

The simulated machine is modeled as a single core running a deterministic
round-robin schedule over all runnable tasks.  Wall-clock time is the
global cycle counter divided by the core frequency (defaulting to the
2.1 GHz of the paper's Opteron 6272 testbed); per-task user/system cycle
counters provide the Figure 6 breakdown.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from repro.kernel.process import Process
from repro.kernel.signals import SigInfo, Signal
from repro.kernel.task import Task, TaskState
from repro.kernel.vfs import VFS
from repro.machine.costs import DEFAULT_COSTS, CostModel


@dataclass(frozen=True)
class KernelConfig:
    """Tunables for the simulated machine."""

    freq_hz: float = 2.1e9  #: core clock (AMD Opteron 6272, paper section 4)
    quantum: int = 128  #: guest ops per scheduling slice
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    #: Enable the vectorized masked-mode block engine (DESIGN.md #6).
    #: Off, FPBlocks still execute -- one precise sub-step per CPU step --
    #: which is the bit-equivalence oracle the ablation benchmark uses.
    blockexec: bool = True
    #: Enable the trap-storm fast path (DESIGN.md #7): fused FPE->TRAP
    #: delivery plus the per-RIP memoized-executor cache.  Off, every
    #: SIGTRAP takes the precise posted-signal path and every instruction
    #: re-executes through the uncached softfloat -- the bit-equivalence
    #: oracle for benchmarks/test_ablation_trapfast.py.
    trapfast: bool = True
    #: Enable the storm batch driver (DESIGN.md #11): consecutive
    #: same-RIP groups of an FPBlock are computed as one array-kernel
    #: batch; faulting groups have their whole trap lifecycles --
    #: SIGFPE, handler, masked re-execution, fused SIGTRAP, re-arm --
    #: replicated event-by-event and quiet groups retire in place,
    #: without stepping the machine.  Batches stop short of the
    #: scheduler quantum's end, the virtual timer's expiry and
    #: ``maxcount``; an armed real timer rejects them.  Only admissible
    #: when the replay is provably byte-identical (the admission checks
    #: in :mod:`repro.machine.storm`); off, every group takes the
    #: per-event path, which is the byte-identity oracle for
    #: benchmarks/test_ablation_trapfast.py.
    stormbatch: bool = True
    #: Enable the cross-layer telemetry bus (DESIGN.md #8) and mount the
    #: guest-visible ``/proc/fpspy/`` tree.  Every layer keeps its
    #: counts either way; this switch only decides whether a bus exists
    #: to read them (``kernel.telemetry`` is ``None`` when off).
    #: Telemetry never perturbs architectural state -- traces and cycle
    #: counts are byte-identical either way
    #: (tests/property/test_telemetry_props.py).  The bus counts events,
    #: never host time: ``repro.study telemetry run --profile`` measures
    #: that from outside, with ``cProfile``.
    telemetry: bool = False
    #: Enable the trap-lifecycle flight recorder and the NaN/Inf/denorm
    #: provenance tracker (DESIGN.md #10).  Spans and coils are
    #: host-side observations only: guest-visible traces, cycles, and
    #: campaign reports are byte-identical either way
    #: (tests/property/test_tracing_props.py).  Off, ``kernel.tracer``
    #: and ``kernel.provenance`` are ``None`` and every hook site skips
    #: itself with one prefetched ``is not None`` test.
    tracing: bool = False
    #: Flight-recorder ring capacity in spans; overflow drops the oldest
    #: span and counts it (never silent).
    trace_capacity: int = 65536
    #: Tail-based sampling of *boring* trap trees (DESIGN.md #12): a
    #: completed tree that touched no provenance origin/sink, fusion
    #: bail-out, or disposition change is retained 1-in-``trace_sample``
    #: (deterministic, seeded by ``trace_seed``).  Interesting trees are
    #: always retained.  ``trace_sample=1`` keeps every tree (the CLI
    #: default for ``repro.study trace``).
    trace_sample: int = 64
    trace_seed: int = 0


@dataclass
class RealTimer:
    """An ITIMER_REAL analogue counted in wall-clock cycles.

    Timers live in a min-heap keyed by expiry; re-arming a task replaces
    its timer by *cancelling* the old object (lazy deletion -- stale heap
    entries are skipped when popped, identified by a cancelled flag or an
    expiry that no longer matches the timer's current one)."""

    expiry_cycles: int
    interval_cycles: int
    task: Task
    signal: Signal = Signal.SIGALRM
    cancelled: bool = False


class Kernel:
    """The simulated OS kernel and machine."""

    def __init__(self, config: KernelConfig | None = None) -> None:
        self.config = config or KernelConfig()
        self.vfs = VFS()
        self.cycles = 0
        #: The task currently executing on the (single) simulated core.
        #: Signal handlers use this the way native code uses TLS.
        self.current_task: Task | None = None
        self.processes: dict[int, Process] = {}
        self._next_pid = 1000
        self._runq: deque[Task] = deque()
        #: Min-heap of ``(expiry_cycles, seq, timer)`` plus a per-task map.
        #: One ITIMER_REAL per task (arming replaces), so the map gives the
        #: O(1) ``cycles_until_real_timer`` the block engine's per-chunk
        #: budget checks rely on; the heap gives O(log n) firing.
        self._timer_heap: list[tuple[int, int, RealTimer]] = []
        self._task_timers: dict[Task, RealTimer] = {}
        self._timer_seq = 0
        #: Fused-delivery timer fence (DESIGN.md #7).  When the CPU folds a
        #: SIGTRAP delivery into the faulting step, the end-of-step timer
        #: check runs *after* charges the precise path would only accrue on
        #: the following step.  Timers expiring past this floor are held
        #: back for exactly one check so they fire at the same cycle count
        #: and the same instruction boundary as the two-trap path.
        self._timer_defer_floor: int | None = None
        #: Scheduler and timer counts (always on; read by the bus).
        self.sched_slices = 0
        self.sched_switches = 0
        self.timers_fired = 0
        self.timers_deferred = 0
        self.timer_defer_fences = 0

        from repro.telemetry.bus import TelemetryBus

        if self.config.telemetry:
            self.telemetry = TelemetryBus(self)
            self._install_telemetry()
        else:
            self.telemetry = None

        if self.config.tracing:
            from repro.telemetry.tracing import TraceRecorder

            self.tracer = TraceRecorder(
                self,
                capacity=self.config.trace_capacity,
                telemetry=self.telemetry,
                sample=self.config.trace_sample,
                seed=self.config.trace_seed,
            )
            from repro.fp.provenance import ProvenanceTracker

            self.provenance = ProvenanceTracker(self)
            from repro.telemetry.procfs import mount_trace

            mount_trace(self)
        else:
            self.tracer = None
            self.provenance = None

        from repro.machine.cpu import CPU

        self.cpu = CPU(self, self.config.costs)

    def _install_telemetry(self) -> None:
        """Register the kernel's own sources and mount /proc/fpspy.

        Every other owner (CPU, flight recorder, FPSpy engines, trace
        writers) registers its own as it is constructed."""
        sc = self.telemetry.scope("kernel")
        sc.counts(lambda: {
            "sched.slices": self.sched_slices,
            "sched.switches": self.sched_switches,
            "timers.fired": self.timers_fired,
            "timers.deferred": self.timers_deferred,
            "timers.defer_fences": self.timer_defer_fences,
        })
        sc.gauges(lambda: {
            "timers.armed": len(self._task_timers),
            "processes": len(self.processes),
            "runq": len(self._runq),
        })

        # The softfloat memo layer is module-global (shared by every
        # kernel in the host process); its tallies are levels of that
        # shared cache, not this kernel's counts.
        from repro.isa.semantics import memo_stats

        self.telemetry.scope("fp.memo").gauges(memo_stats)

        from repro.telemetry.procfs import mount_proc

        mount_proc(self)

    # ----------------------------------------------------------- clock

    @property
    def now_seconds(self) -> float:
        """Simulated wall-clock time."""
        return self.cycles / self.config.freq_hz

    # ------------------------------------------------------- processes

    def exec_process(
        self,
        main,
        env: dict[str, str] | None = None,
        argv: tuple[str, ...] = (),
        parent: Process | None = None,
        name: str = "",
    ) -> Process:
        """Create a process running ``main`` (a generator factory).

        Mirrors ``execve``: builds the address space, runs the dynamic
        linker (which honors ``LD_PRELOAD`` from ``env``), executes shared
        object constructors on the main thread, then schedules ``main``.
        """
        pid = self._next_pid
        self._next_pid += 1
        proc = Process(
            pid=pid, kernel=self, env=dict(env or {}), argv=argv,
            parent=parent, name=name,
        )
        self.processes[pid] = proc
        if parent is not None:
            parent.children.append(proc)

        from repro.loader.ldso import Loader

        proc.loader = Loader(proc)
        proc.loader.load()

        task = proc.new_task(main, name="main")
        # Shared-object constructors run on the main thread before main().
        proc.loader.run_constructors(task)
        return proc

    def enqueue(self, task: Task) -> None:
        self._runq.append(task)

    def post_signal(self, task: Task, info: SigInfo) -> None:
        task.post_signal(info)

    # -------------------------------------------------------- lifecycle

    def finalize_task(self, task: Task, normal: bool) -> None:
        """Tear down a task that returned or called ``pthread_exit``."""
        if task.state != TaskState.RUNNABLE:
            return
        task.state = TaskState.EXITED
        if normal:
            # Close the generator so thunk ``finally`` blocks (e.g. FPSpy's
            # thread teardown) run.
            task.gen.close()
            for hook in task.exit_hooks:
                hook(task)
        proc = task.process
        if proc.alive and not proc.live_tasks():
            self.exit_process(proc, 0)

    def exit_process(self, proc: Process, code: int) -> None:
        """Normal process exit: destructors run, then tasks are reaped."""
        if not proc.alive:
            return
        if proc.loader is not None:
            # Destructors run on the exiting process's main thread context.
            proc.loader.run_destructors(proc.main_task)
        for t in proc.tasks.values():
            if t.state == TaskState.RUNNABLE:
                t.state = TaskState.EXITED
                t.gen.close()
                for hook in t.exit_hooks:
                    hook(t)
        proc.exit_code = code

    def kill_process(self, proc: Process, signo: Signal) -> None:
        """Fatal-signal death: no destructors, no teardown hooks."""
        if not proc.alive:
            return
        for t in proc.tasks.values():
            if t.state == TaskState.RUNNABLE:
                t.state = TaskState.KILLED
        proc.killed_by = signo

    # ----------------------------------------------------------- timers

    def arm_real_timer(
        self, task: Task, initial_s: float, interval_s: float = 0.0,
        signal: Signal = Signal.SIGALRM,
    ) -> None:
        """setitimer(ITIMER_REAL)-style wall-clock timer for a task."""
        old = self._task_timers.pop(task, None)
        if old is not None:
            old.cancelled = True
        if initial_s <= 0:
            return
        timer = RealTimer(
            expiry_cycles=self.cycles + int(initial_s * self.config.freq_hz),
            interval_cycles=int(interval_s * self.config.freq_hz),
            task=task,
            signal=signal,
        )
        self._task_timers[task] = timer
        self._push_timer(timer)

    def _push_timer(self, timer: RealTimer) -> None:
        self._timer_seq += 1
        heapq.heappush(
            self._timer_heap, (timer.expiry_cycles, self._timer_seq, timer)
        )

    def cycles_until_real_timer(self, task: Task) -> int | None:
        """Cycles until this task's real timer fires (None if unarmed)."""
        timer = self._task_timers.get(task)
        if timer is None:
            return None
        return max(0, timer.expiry_cycles - self.cycles)

    def timer_budgets(self, task: Task) -> tuple[int | None, int | None]:
        """The task's timer budgets: ``(vtimer instructions remaining,
        real-timer cycles remaining)``, ``None`` where unarmed.

        This is the cap the execution engines apply to every batched run
        (integer chunks, FP block chunks) so timer signals land on the
        precise instruction rather than at the end of a batch.
        """
        vt = task.vtimer.remaining if task.vtimer is not None else None
        return vt, self.cycles_until_real_timer(task)

    def defer_timers_once(self, floor_cycles: int) -> None:
        """Hold back timers expiring after ``floor_cycles`` for one check.

        Called by the CPU after a fused inline SIGTRAP delivery: the
        precise path would not have reached this step's end-of-step check
        with the delivery charges already applied, so any expiry in the
        fused window must wait for the next check -- which lands at the
        exact cycle count the two-trap path fires it at.  The scheduler
        clears the fence after the very next check.
        """
        self._timer_defer_floor = floor_cycles
        self.timer_defer_fences += 1

    def _fire_timers(self) -> None:
        heap = self._timer_heap
        floor = self._timer_defer_floor
        deferred: list[tuple[int, int, RealTimer]] = []
        while heap and heap[0][0] <= self.cycles:
            expiry, seq, timer = heapq.heappop(heap)
            if timer.cancelled or expiry != timer.expiry_cycles:
                continue  # stale entry left behind by a cancel or re-arm
            if floor is not None and expiry > floor:
                deferred.append((expiry, seq, timer))
                self.timers_deferred += 1
                continue
            if self._task_timers.get(timer.task) is timer and not timer.task.alive:
                del self._task_timers[timer.task]
                continue
            if not timer.task.alive:
                continue
            timer.task.post_signal(SigInfo(signo=timer.signal))
            self.timers_fired += 1
            if timer.interval_cycles > 0:
                timer.expiry_cycles = self.cycles + timer.interval_cycles
                self._push_timer(timer)
            else:
                if self._task_timers.get(timer.task) is timer:
                    del self._task_timers[timer.task]
        for entry in deferred:
            heapq.heappush(heap, entry)

    # -------------------------------------------------------- scheduler

    def run(self, max_ops: int | None = None) -> int:
        """Round-robin all runnable tasks to completion (or an op budget).

        Returns the number of guest operations executed.
        """
        executed = 0
        last_task = None
        while self._runq:
            task = self._runq.popleft()
            if not task.alive:
                continue
            self.sched_slices += 1
            if task is not last_task:
                self.sched_switches += last_task is not None
                last_task = task
            # The slice is a *budget*, not a step count: a batched block
            # chunk reports (via ``cpu.step_cost``) how many per-instruction
            # steps it stands for, so it drains the quantum exactly as the
            # equivalent scalar stream would and cross-task interleaving is
            # independent of batching.
            remaining = self.config.quantum
            while remaining > 0:
                self.cpu.step_budget = remaining
                stepped = self.cpu.step(task)
                cost = self.cpu.step_cost
                if self._timer_heap:
                    self._fire_timers()
                # The fused-delivery fence covers exactly one check.
                self._timer_defer_floor = None
                if not stepped:
                    break
                executed += cost
                remaining -= cost
                if max_ops is not None and executed >= max_ops:
                    if task.alive:
                        self._runq.append(task)
                    return executed
            if task.alive:
                self._runq.append(task)
        return executed
