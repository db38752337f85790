"""The block execution engine: batched masked-mode chunks and precise
sub-steps.

One :class:`repro.guest.ops.FPBlock` stands for a long per-instruction
stream; this module executes it so the two are architecturally
indistinguishable (DESIGN.md decision #6).  Two regimes:

**Quiescent fast path** (the ``"blockexec"`` rung of
``KernelConfig.fastpaths`` and above).  When the task is quiescent --
every exception masked, ``RFLAGS.TF`` clear, no FTZ/DAZ, any rounding
mode -- no FP instruction in the block can fault or trap, so a chunk of
groups can be committed as a batch, which is sound because sticky-flag
OR is commutative and nothing can observe intermediate state mid-chunk.
Every form makes one :func:`repro.fp.batchfloat.execute_batch` call on
the chunk's slices of the block's lane arrays (which runs the host loop,
the EFT tier or the per-form executor, DESIGN.md #15).  The chunk's
results come back as one lane array, the block's ``results`` get that
slice, and the provenance tracker (when tracing) sees the groups its
:meth:`~repro.fp.provenance.ProvenanceTracker.scan_window` pre-scan
flags; then one sticky-flag OR, in Python, into ``%mxcsr``, one cycle
charge, one vtime advance.  The chunk is capped by the scheduler
quantum and by the vtimer/real-timer budgets exactly as
``CPU.int_chunk`` caps integer runs, so ``SIGVTALRM`` and ``SIGALRM``
land on the precise instruction the per-instruction stream would
deliver them at.  A virtual-timer expiry strictly inside a group's
integer phase does not stop the chunk before that group: the group
rides it as a *tail* (:meth:`CPU.vtimer_split`), its FP instruction
retiring in the batch and its integer phase running up to the expiry,
and the next step delivers the signal and finishes the phase through
the precise path.  No tail is taken while a real timer is armed.

**Precise replay.**  Below that rung, or outside quiescence -- FPSpy
individual mode unmasking its capture set, a sampler duty cycle turning
on, ``fesetenv``, single-stepping -- the block executes one sub-step per
``CPU.step`` call through the CPU's one precise engine, the code an
``FPInstruction`` runs: the current group's FP instruction retires
through ``CPU._exec_fp`` (condition codes stick, unmasked conditions
fault *before writeback* with the block's cursor parked on the faulting
instruction, so the handler return restarts it; ``TF`` traps after every
retirement), and its integer phase through ``CPU.int_chunk`` (chunked at
timer boundaries).  Because blocks only ever commit group-at-a-time
through this path, fault-before-writeback is preserved and
individual-mode trace files are byte-identical with the block engine
enabled.  At the ``"storm"`` rung a group about to take this path is
first offered to :func:`repro.machine.storm.try_storm`.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import TYPE_CHECKING

from repro.fp import batchfloat
from repro.machine import storm
from repro.machine.fastpaths import BLOCKEXEC, STORM
from repro.guest.ops import FPBlock
from repro.kernel.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cpu import CPU


def step_block(cpu: "CPU", task: Task, block: FPBlock) -> bool:
    """Execute one ``CPU.step``'s worth of ``block`` for ``task``."""
    kernel = cpu.kernel
    # The block stays current until its last group retires, so faults,
    # traps, and preemption all resume it at the cursor.
    task.pending_op = block
    if (
        block.fp_done  # mid-group: finish the integer phase first
        or cpu.rung < BLOCKEXEC
        or not task.fp_quiescent
    ):
        # Non-quiescent usually means FPSpy's individual mode is live:
        # first offer the run of faulting groups to the storm batch
        # driver (DESIGN.md #11), which commits whole trap lifecycles as
        # one batch when -- and only when -- that is provably
        # byte-identical to precise stepping.
        if (
            cpu.rung >= STORM
            and not block.fp_done
            and storm.try_storm(cpu, task, block)
        ):
            return True
        return _scalar_substep(cpu, task, block)

    per_group = cpu.costs.block_group_cycles(block.interleave)
    # Scheduler-slice weight: per-instruction execution spends one step on
    # the FP instruction and (when interleaved) one on the IntWork chunk,
    # so a k-group batch stands for k*w steps of the task's quantum.
    w = 2 if block.interleave > 0 else 1
    k = min(block.n_groups - block.index, cpu.step_budget // w)
    tail = 0
    vt_budget, real_budget = kernel.timer_budgets(task)
    if real_budget is not None:
        k = min(k, real_budget // per_group)
    if vt_budget is not None:
        whole, tail = cpu.vtimer_split(vt_budget, block.interleave)
        if k <= whole or real_budget is not None:
            # The block, the slice or a real timer ends the chunk
            # first.  (A tail is sized by the virtual timer alone, so
            # none is taken while a real timer is armed.)
            tail = 0
        k = min(k, whole)
    if k <= 0 and not tail:
        # A timer expires on the next group's FP instruction, a real
        # timer inside the next group, or the slice has less than a
        # whole group's budget left: execute it with scalar sub-steps
        # so signals and preemption land on the exact instruction.
        return _scalar_substep(cpu, task, block)

    _commit_chunk(cpu, task, block, k, tail)
    n = k + (tail > 0)
    cpu.step_cost = n * w
    cpu.blk_chunks += 1
    cpu.blk_groups += n
    cpu._note_block_mode(task, True)
    return True


# --------------------------------------------------------------- fast path


def _commit_chunk(cpu: "CPU", task: Task, block: FPBlock, k: int,
                  tail: int = 0) -> None:
    """Retire ``k`` whole groups as one batch (quiescent state only),
    then, when ``tail`` is nonzero, the next group's FP instruction and
    ``tail`` units of its integer phase, up to the virtual timer's
    expiry (:meth:`CPU.vtimer_split`)."""
    site = block.site
    form = site.form
    lanes = form.lanes
    start = block.index
    n = k + (tail > 0)
    lo, hi = start * lanes, (start + n) * lanes
    kernel = cpu.kernel
    costs = cpu.costs
    per_group = costs.block_group_cycles(block.interleave)
    # The common chunk is the whole block: its arrays go in unsliced.
    ops = (block.arrays if n == block.n_groups
           else tuple(a[lo:hi] for a in block.arrays))
    # One batch softfloat call computes every group's results and
    # condition codes exactly, whatever tier it picks.
    res = batchfloat.execute_batch(form, ops, task.mxcsr.context())
    bits = res.bits

    prov = cpu._prov
    if prov is not None:
        # The storm driver's pre-scan: a group whose operand and result
        # lanes are all ordinary cannot create, propagate or sink a
        # chain, so it only counts as observed.  The others replay
        # through the exact observe, each at the cycle its
        # per-instruction retirement would read.
        sus = prov.scan_window(site, ops, bits, n, lanes,
                               block.take(start + n - 1))
        idxs = [g for g, s in enumerate(sus) if s]
        prov.observed += n - len(idxs)
        if idxs:
            gflags = res.group_flags(lanes)
            c0 = kernel.cycles
            for gi in idxs:
                take = block.take(start + gi)
                glo = gi * lanes
                kernel.cycles = c0 + gi * per_group
                prov.observe(
                    task, site, block.group(start + gi)[:take],
                    bits[glo:glo + take], gflags[gi],
                )
            kernel.cycles = c0

    task.mxcsr.set_status(reduce(or_, res.flags))
    cpu.commit_groups(task, block, bits, k, tail)
    cycles = k * per_group
    kernel.cycles += cycles
    if cpu._tr is not None and k:
        # Fast-path batches stamp one coarse span for their whole groups
        # (never per-instruction detail -- nothing in a quiescent chunk
        # can fault or trap).  A tail stamps nothing, as its precise
        # sub-steps would not.
        cpu._tr.chunk(task, site.address, k)
    if tail:
        tail_cycles = costs.block_group_cycles(tail)
        kernel.cycles += tail_cycles
        cycles += tail_cycles
    task.utime_cycles += cycles


# ----------------------------------------------------------- precise replay


def _scalar_substep(cpu: "CPU", task: Task, block: FPBlock) -> bool:
    """One per-instruction sub-step through the CPU's precise engine: the
    current group's FP instruction, or a chunk of its integer phase."""
    cpu.blk_substeps += 1
    cpu._note_block_mode(task, False)
    if not block.fp_done:
        return cpu._exec_fp(task, block)
    block.int_remaining -= cpu.int_chunk(task, block.int_remaining)
    if block.int_remaining == 0:
        cpu.next_group(task, block)
    cpu._maybe_trap(task)
    return True
