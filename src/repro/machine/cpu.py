"""The CPU execution engine.

``CPU.step`` executes one guest operation for a task, implementing the
exact hardware contract FPSpy's individual-mode state machine depends on
(paper section 3.6):

1. every FP instruction sets its condition codes in ``%mxcsr`` (sticky);
2. if any raised condition is *unmasked*, a precise exception is taken
   **before writeback** -- the kernel turns it into a SIGFPE whose
   ucontext carries RIP, instruction bytes, RSP, and ``%mxcsr``;
3. when the handler returns, the kernel restarts the *same* instruction;
4. if ``RFLAGS.TF`` is set, a single-step trap (SIGTRAP) fires after the
   instruction completes, and the interrupted RIP is the *next*
   instruction.

Signal handlers run as host callables but are charged cycle costs, and
their writes to the ucontext's ``mxcsr``/``EFL`` are applied back to the
task -- this is how FPSpy masks exceptions and toggles single-stepping.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.fp.flags import UE
from repro.guest.ops import FPBlock, IntWork, LibcCall
from repro.isa.instruction import FPInstruction
from repro.machine import blockexec
from repro.machine.fastpaths import FASTPATHS, TRAPFAST
from repro.isa.semantics import (
    ExecutionOutcome,
    execute_form,
    form_executor,
    traced_form_executor,
)
from repro.kernel.signals import (
    EFLAGS_TF,
    FATAL_BY_DEFAULT,
    FPE_SICODE,
    SIG_DFL,
    SIG_IGN,
    TRAP_TRACE_CODE,
    MContext,
    SigInfo,
    Signal,
    UContext,
)
from repro.kernel.task import Task, TaskState
from repro.machine.costs import DEFAULT_COSTS, CostModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class ThreadExitRequested(Exception):
    """Raised by the ``pthread_exit`` libc implementation."""


class ProcessExitRequested(Exception):
    """Raised by the ``exit`` libc implementation."""

    def __init__(self, code: int = 0) -> None:
        super().__init__(code)
        self.code = code


@dataclass
class GuestCallContext:
    """What a libc implementation sees when invoked by the CPU."""

    kernel: "Kernel"
    task: Task

    @property
    def process(self):
        return self.task.process


class CPU:
    """Executes guest operations for the kernel's scheduler."""

    def __init__(self, kernel: "Kernel", costs: CostModel = DEFAULT_COSTS) -> None:
        self.kernel = kernel
        self.costs = costs
        #: Scheduler-slice accounting.  A step normally consumes one unit
        #: of the task's quantum, but a batched block chunk stands for
        #: many per-instruction steps: the block engine sets ``step_cost``
        #: to that equivalent count (and respects ``step_budget``, the
        #: slice units the scheduler has left) so preemption points fall
        #: where the per-instruction stream would put them.
        self.step_cost = 1
        self.step_budget = kernel.config.quantum
        #: The configured rung of the fast-path ladder, as an index into
        #: ``FASTPATHS``: ``_exec_fp``, ``_maybe_trap`` and
        #: ``blockexec.step_block`` take each path at or below it.
        self.rung = FASTPATHS.index(kernel.config.fastpaths)
        #: Trap-storm fast path (DESIGN.md #7).  ``_fuse_armed`` is set by
        #: ``deliver_signals`` when the step's last delivery was a SIGFPE
        #: handler and nothing else is pending: the re-execution that
        #: follows in the same step may then fold its single-step SIGTRAP
        #: delivery inline instead of posting it for the next step.
        self._fuse_armed = False
        #: Storm batch driver (DESIGN.md #11) batch/bail-out counts.
        self.storm_stats: dict = {
            "batches": 0, "groups": 0, "quiet": 0, "records": 0,
            "windows": 0, "bailouts": {},
        }
        #: Counts (DESIGN.md #8): always on, plain ints keyed raw -- the
        #: bus names them at snapshot time.  None may charge cycles or
        #: touch architectural state.
        self.fused = 0
        #: Trap-fusion bail-outs by reason.
        self.fusion_bailouts: dict[str, int] = {}
        #: User-handler deliveries, indexed by signal number.
        self.signals_delivered = [0] * (max(Signal) + 1)
        #: Block engine: batched chunks and the groups they retired,
        #: precise sub-steps, and quiescence regime transitions.
        self.blk_chunks = 0
        self.blk_groups = 0
        self.blk_substeps = 0
        self.quiesce_entries = 0
        self.quiesce_exits = 0
        #: Flight recorder + provenance (DESIGN.md #10), pre-fetched so a
        #: disabled hook site pays one ``is not None`` test.  The traced executor
        #: factory is chosen once here: traced memo closures expose a
        #: ``memo_hit`` cell the emulate span reads, and keeping them in
        #: a separate intern table leaves the disabled path untouched.
        self._tr = kernel.tracer
        self._prov = kernel.provenance
        self._executor_factory = (
            traced_form_executor if self._tr is not None else form_executor
        )
        if kernel.telemetry is not None:
            self._register_telemetry(kernel.telemetry)

    def _register_telemetry(self, bus) -> None:
        """Register the CPU's count and gauge sources on ``bus``."""
        cpu = bus.scope("cpu")
        cpu.counts(self._cpu_counts)
        bus.scope("kernel").counts(lambda: {
            f"signals.delivered.{Signal(signo).name}": n
            for signo, n in enumerate(self.signals_delivered) if n
        })
        bus.scope("blockexec").counts(lambda: {
            "fast_chunks": self.blk_chunks,
            "fast_groups": self.blk_groups,
            "scalar_substeps": self.blk_substeps,
            "quiesce.entries": self.quiesce_entries,
            "quiesce.exits": self.quiesce_exits,
        })

    def _cpu_counts(self) -> dict[str, int]:
        bailouts = self.fusion_bailouts
        st = self.storm_stats
        out = {
            "trapfusion.fused": self.fused,
            "trapfusion.bailed": sum(bailouts.values()),
            "storm.batches": st["batches"],
            "storm.groups": st["groups"],
            "storm.quiet": st["quiet"],
            "storm.records": st["records"],
            "storm.windows": st["windows"],
        }
        for reason, n in bailouts.items():
            out[f"trapfusion.bailouts.{reason}"] = n
        for reason, n in st["bailouts"].items():
            out[f"storm.bail.{reason}"] = n
        return out

    def _note_block_mode(self, task: Task, fast: bool) -> None:
        """Count quiescence regime transitions for ``task``."""
        prev = task.blk_mode
        if prev is fast:
            return
        task.blk_mode = fast
        if fast:
            self.quiesce_entries += 1
        elif prev is not None:
            self.quiesce_exits += 1

    # ------------------------------------------------------------- signals

    @staticmethod
    def _fp_inputs(op):
        """Lane inputs of the FP instruction ``op`` stands at: an
        ``FPInstruction``'s own, a block's group at its cursor, else None."""
        if isinstance(op, FPBlock):
            return op.group(op.index)
        if isinstance(op, FPInstruction):
            return op.inputs
        return None

    def _build_ucontext(self, task: Task, info: SigInfo) -> UContext:
        mctx = MContext(
            rip=info.addr if info.signo == Signal.SIGFPE else task.last_rip,
            rsp=task.rsp,
            eflags=EFLAGS_TF if task.trap_flag else 0,
            mxcsr=task.mxcsr.value,
        )
        if info.signo == Signal.SIGFPE:
            # A block faults at its cursor: the handler sees exactly the
            # instruction bytes and operands of the faulting group.
            op = task.pending_op
            inputs = self._fp_inputs(op)
            if inputs is not None:
                mctx.instruction = op.site.encoding
                mctx.operands = inputs
        return UContext(mcontext=mctx)

    def deliver_signals(self, task: Task) -> bool:
        """Deliver all pending signals.  Returns False if the task died."""
        while task.pending_signals and task.alive:
            info = task.pending_signals.popleft()
            disposition = task.process.disposition(info.signo)
            if disposition == SIG_IGN:
                continue
            if disposition == SIG_DFL:
                if info.signo in FATAL_BY_DEFAULT:
                    self.kernel.kill_process(task.process, info.signo)
                    return False
                continue
            self._run_handler(task, info, disposition)
            # Arm the fused single-step path: the handler of a precise FP
            # fault just returned (typically having masked the exception
            # and set TF) and nothing else is queued ahead of the trap.
            self._fuse_armed = (
                info.signo == Signal.SIGFPE and not task.pending_signals
            )
        return task.alive

    def _run_handler(self, task: Task, info: SigInfo, disposition) -> None:
        """Run a user handler: kernel crossing, frame setup, handler
        body, then its context writes back through sigreturn."""
        self.signals_delivered[info.signo] += 1
        task.stime_cycles += self.costs.signal_deliver
        self.kernel.cycles += self.costs.signal_deliver
        uctx = self._build_ucontext(task, info)
        if self._tr is not None:
            self._tr.signal_delivered(task, info.signo, info.code, uctx.mcontext)
        disposition(info.signo, info, uctx)
        self._apply_handler_writes(task, uctx)

    def _apply_handler_writes(self, task: Task, uctx: UContext) -> None:
        """Apply a returning handler's context writes to the task."""
        task.mxcsr.value = uctx.mcontext.mxcsr
        task.trap_flag = uctx.mcontext.trap_flag
        task.stime_cycles += self.costs.sigreturn
        self.kernel.cycles += self.costs.sigreturn
        emulated = uctx.mcontext.emulated_results
        if emulated is None:
            return
        op = task.pending_op
        inputs = self._fp_inputs(op)
        if inputs is not None and not (isinstance(op, FPBlock) and op.fp_done):
            # Trap-and-emulate: the handler computed the faulting
            # instruction's results itself; retire it without
            # re-execution (and without the retirement charge).
            self._retire(task, op, inputs, tuple(emulated), 0)
            if self._tr is not None:
                self._tr.emulated(task, op.site.address)

    # --------------------------------------------------------------- fetch

    def _fetch(self, task: Task):
        """Get the current op: a restarted pending op or the next yield."""
        if task.pending_op is not None:
            return task.pending_op
        try:
            if not task.started:
                task.started = True
                return next(task.gen)
            value, task.send_value = task.send_value, None
            return task.gen.send(value)
        except StopIteration:
            self.kernel.finalize_task(task, normal=True)
            return None
        except ProcessExitRequested as exc:
            self.kernel.exit_process(task.process, exc.code)
            return None

    # ------------------------------------------------------------- execute

    def step(self, task: Task) -> bool:
        """Run one operation (or signal burst).  False => task not runnable."""
        self.step_cost = 1
        self._fuse_armed = False
        if not task.alive:
            return False
        self.kernel.current_task = task
        if not self.deliver_signals(task):
            return False
        op = self._fetch(task)
        if op is None:
            return False

        if isinstance(op, FPBlock):
            return blockexec.step_block(self, task, op)
        if isinstance(op, FPInstruction):
            return self._exec_fp(task, op)
        if isinstance(op, IntWork):
            return self._exec_int(task, op)
        if isinstance(op, LibcCall):
            return self._exec_call(task, op)
        raise TypeError(f"guest yielded unsupported op {op!r}")

    # ------------------------------------------------------------ retire

    def fault_check(
        self, task: Task, outcome: ExecutionOutcome, address: int
    ) -> bool:
        """Set an executed instruction's condition codes, and fault if
        any is unmasked.

        The codes stick in ``%mxcsr`` whatever the masks.  A pending
        (raised and unmasked) code -- or a tiny result with Underflow
        unmasked, where even an *exact* result traps -- charges the fault
        entry and posts a SIGFPE at ``address`` with the delivered
        condition's si_code, and the caller must not write back.  Returns
        True when it faulted.  :meth:`_exec_fp` is its one caller.
        """
        mx = task.mxcsr
        mx.set_status(outcome.flags)
        pending = mx.unmasked_pending(outcome.flags)
        if outcome.tiny and not mx.ue_masked:
            pending |= UE
        if not pending:
            return False
        code = FPE_SICODE[pending]
        task.stime_cycles += self.costs.fault_entry
        self.kernel.cycles += self.costs.fault_entry
        task.post_signal(SigInfo(signo=Signal.SIGFPE, code=code, addr=address))
        if self._tr is not None:
            self._tr.fp_fault(task, address, code, pending)
        return True

    def _exec_fp(self, task: Task, op) -> bool:
        """The one precise FP retirement, for an ``FPInstruction`` or the
        current group of an :class:`FPBlock`.

        From the ``"trapfast"`` rung up it runs the form's memoized
        executor, below it the uncached softfloat (bit-identical by
        construction and by property test).  A fault leaves ``op``
        current, so the handler's return restarts the same instruction;
        otherwise it retires, pays its charge and may single-step trap.
        """
        site = op.site
        inputs = self._fp_inputs(op)
        if self.rung >= TRAPFAST:
            executor = self._executor_factory(site.form)
            outcome = executor(inputs, task.mxcsr.context())
        else:
            executor = None
            outcome = execute_form(site.form, inputs, task.mxcsr.context())
        if self.fault_check(task, outcome, site.address):
            # Precise fault before writeback.
            task.pending_op = op
            return True
        self._retire(task, op, inputs, outcome.results, outcome.flags)
        task.utime_cycles += self.costs.fp_instr
        self.kernel.cycles += self.costs.fp_instr
        if self._tr is not None:
            # Block groups carry no memo hit: the storm driver replicates
            # their trap trees without probing the memo.
            hit = (None if executor is None or isinstance(op, FPBlock)
                   else executor.memo_hit[0])
            self._tr.fp_retired(task, site.address, hit)
        self._maybe_trap(task)
        return True

    def _retire(self, task: Task, op, inputs, results, flags: int) -> None:
        """Retire ``op``'s current FP instruction with ``results``,
        uncharged.

        Provenance observes it first, at the cycle the retirement starts
        -- the cycle every batched path stamps too.  Then the writeback,
        which is the only step that differs by op type: an
        ``FPInstruction`` hands its results to the guest, a block writes
        its group's real lanes and enters the group's integer phase.
        """
        site = op.site
        if isinstance(op, FPBlock):
            take = op.take(op.index)
            if self._prov is not None:
                self._prov.observe(
                    task, site, inputs[:take], results[:take], flags)
            lo = op.index * site.form.lanes
            op.results[lo:lo + take] = array(op.results.typecode,
                                             results[:take])
            op.fp_done = True
            op.int_remaining = op.interleave
            if op.interleave == 0:
                self.next_group(task, op)
        else:
            if self._prov is not None:
                self._prov.observe(task, site, inputs, results, flags)
            op.results = results
            task.pending_op = None
            task.send_value = results
        task.last_rip = site.address + len(site.encoding)
        task.advance_vtime(1)

    def int_chunk(self, task: Task, remaining: int) -> int:
        """Run the next chunk of a ``remaining``-instruction integer
        phase; returns its length.

        Single-stepping runs one instruction.  Otherwise the chunk stops
        at the next timer expiry, so a timer signal lands where the timer
        said, not at the end of the phase.
        """
        if task.trap_flag:
            chunk = 1
        else:
            chunk = remaining
            vt_budget, real_budget = self.kernel.timer_budgets(task)
            if vt_budget is not None:
                chunk = min(chunk, max(1, vt_budget))
            if real_budget is not None:
                chunk = min(chunk, max(1, real_budget // self.costs.int_instr))
        task.utime_cycles += chunk * self.costs.int_instr
        self.kernel.cycles += chunk * self.costs.int_instr
        task.advance_vtime(chunk)
        return chunk

    def _exec_int(self, task: Task, op: IntWork) -> bool:
        if task.pending_int_remaining == 0:
            task.pending_int_remaining = op.count
        task.pending_int_remaining -= self.int_chunk(
            task, task.pending_int_remaining)
        if task.pending_int_remaining > 0:
            task.pending_op = op  # more units to run after the trap
        else:
            task.pending_op = None
            task.send_value = None
        self._maybe_trap(task)
        return True

    @staticmethod
    def next_group(task: Task, block: FPBlock) -> None:
        """Move ``block``'s cursor past a wholly retired group."""
        block.index += 1
        block.fp_done = False
        if block.done:
            task.pending_op = None
            task.send_value = block.results

    @staticmethod
    def vtimer_split(budget: int, interleave: int) -> tuple[int, int]:
        """Split a virtual-timer budget of ``budget`` units over groups of
        ``1 + interleave`` units: ``(k, tail)``, the whole groups that
        retire before the expiry and the integer units of group ``k``
        that run after its FP instruction, up to the expiry.

        ``tail`` is nonzero exactly when the expiry falls strictly
        inside group ``k``'s integer phase (``2 <= b < 1 + interleave``,
        ``b`` the units from the group's start to the expiry): a batch
        may then retire that group as a tail and post the SIGVTALRM where
        the per-instruction stream's integer chunk posts it.  An expiry
        on a group's last unit leaves that group whole in ``k``; one on
        its FP retirement (``b == 1``) leaves it out."""
        k, b = divmod(budget, 1 + interleave)
        return k, (b - 1 if b > 1 else 0)

    @staticmethod
    def commit_groups(task: Task, block: FPBlock, bits, k: int,
                      tail: int = 0) -> None:
        """Write back ``k`` whole groups from ``block``'s cursor, plus,
        when ``tail`` is nonzero, the next group's FP instruction and
        ``tail`` units of its integer phase; ``bits`` holds their results
        from the cursor on.  This is the batched retirement of a
        blockexec chunk and of a storm batch.  A tail leaves the cursor
        on its group with the rest of the phase to run.  Codes and cycle
        charges stay with the caller; only the block's final group can
        carry padding."""
        site = block.site
        lanes = site.form.lanes
        lo = block.index * lanes
        block.index += k
        valid = min((block.index + (tail > 0)) * lanes, block.n_elements) - lo
        block.results[lo:lo + valid] = bits[:valid]
        task.last_rip = site.address + len(site.encoding)
        units = k * (1 + block.interleave)
        if tail:
            block.fp_done = True
            block.int_remaining = block.interleave - tail
            units += 1 + tail
        task.advance_vtime(units)
        if block.done:
            task.pending_op = None
            task.send_value = block.results

    def _exec_call(self, task: Task, op: LibcCall) -> bool:
        loader = task.process.loader
        assert loader is not None, "process has no loader"
        impl = loader.resolve(op.name)
        ctx = GuestCallContext(kernel=self.kernel, task=task)
        task.utime_cycles += self.costs.libc_call
        self.kernel.cycles += self.costs.libc_call
        try:
            result = impl(ctx, *op.args, **op.kwargs)
        except ThreadExitRequested:
            self.kernel.finalize_task(task, normal=True)
            return False
        except ProcessExitRequested as exc:
            self.kernel.exit_process(task.process, exc.code)
            return False
        task.pending_op = None
        task.send_value = result
        task.advance_vtime(1)
        self._maybe_trap(task)
        return True

    def _maybe_trap(self, task: Task) -> None:
        """Raise the single-step SIGTRAP if TF is set after retirement.

        Precise path: charge the fault entry and post the signal; it is
        delivered at the start of the task's next step.  Fused path
        (DESIGN.md #7, from the ``"trapfast"`` rung up): when this step's
        signal burst ended with a SIGFPE handler arming TF and fusion is
        provably unobservable, deliver the SIGTRAP inline right now --
        same charges, same handler-visible state, one scheduler
        round-trip less.
        """
        if not task.trap_flag:
            return
        kernel = self.kernel
        if self._fuse_armed and self.rung >= TRAPFAST:
            reason = None
            if task.pending_signals:
                # Bail-out: anything already queued would be delivered
                # before the trap on the precise path (including a
                # SIGVTALRM the re-execution's vtime advance just posted).
                reason = "pending_signal"
            elif self.step_budget - self.step_cost < 1:
                # Bail-out: the precise delivery must land in this same
                # slice; at a quantum boundary another task runs first.
                reason = "quantum"
            else:
                disposition = task.process.disposition(Signal.SIGTRAP)
                if not callable(disposition):
                    # Bail-out: SIG_DFL (fatal) / SIG_IGN take kernel-side
                    # paths at the precise delivery point; don't
                    # short-circuit those.
                    reason = "disposition"
                else:
                    # Bail-out: a real timer expiring by the precise
                    # path's end-of-step check must fire there (and
                    # periodic timers re-arm off the firing cycle);
                    # fusion would move it.
                    floor = kernel.cycles + self.costs.fault_entry
                    heap = kernel._timer_heap
                    if heap and heap[0][0] <= floor:
                        reason = "timer"
                    else:
                        self.fused += 1
                        self._deliver_trap_inline(task, disposition, floor)
                        return
            bailouts = self.fusion_bailouts
            bailouts[reason] = bailouts.get(reason, 0) + 1
            if self._tr is not None and reason != "quantum":
                # Architecturally meaningful bail-outs mark the open trap
                # tree as interesting for the tail sampler.  "quantum" is
                # excluded deliberately: it depends only on slice phase,
                # and marking it would make retention differ between
                # otherwise byte-identical scheduling configurations.
                self._tr.note_bailout(task)
        task.stime_cycles += self.costs.fault_entry
        kernel.cycles += self.costs.fault_entry
        task.post_signal(
            SigInfo(signo=Signal.SIGTRAP, code=TRAP_TRACE_CODE)
        )
        if self._tr is not None:
            self._tr.trap_queued(task, False)

    def _deliver_trap_inline(self, task: Task, disposition, floor: int) -> None:
        """Fused FPE->TRAP delivery: run the SIGTRAP handler in this step.

        The charge sequence is exactly the precise path's -- fault entry
        (posting), then delivery, handler, sigreturn -- so cycle counts,
        utime/stime splits, and every value the handler can observe
        (rip, rsp, eflags, mxcsr via a fresh ucontext) are identical.
        Timers expiring past ``floor`` (the cycle at which the precise
        path's next check would run) are held back one check by
        ``defer_timers_once`` so their firing cycle and landing
        instruction also match.
        """
        self._fuse_armed = False
        task.stime_cycles += self.costs.fault_entry
        self.kernel.cycles += self.costs.fault_entry
        info = SigInfo(signo=Signal.SIGTRAP, code=TRAP_TRACE_CODE)
        if self._tr is not None:
            self._tr.trap_queued(task, True)
        self._run_handler(task, info, disposition)
        self.kernel.defer_timers_once(floor)
