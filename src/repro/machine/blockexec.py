"""Block execution: one batch or one precise sub-step per CPU step.

One :class:`repro.guest.ops.FPBlock` stands for a long per-instruction
stream; this module executes it so the two are architecturally
indistinguishable (DESIGN.md decision #6).  From the ``"blockexec"`` rung
of ``KernelConfig.fastpaths`` up, each step first offers the block's
cursor to the batch engine, :func:`repro.machine.storm.try_storm`, which
commits a run of groups as one batch when that is provably unobservable
-- a quiescent task (every exception masked, ``TF`` clear), or FPSpy's
individual-mode invariant at the ``"storm"`` rung.

Otherwise -- below that rung, mid-group, or when no batch is admitted
(a sampler duty cycle turning on, ``fesetenv``, single-stepping, a timer
expiring on the next instruction) -- the block executes one sub-step
through the CPU's one precise engine, the code an ``FPInstruction``
runs: the current group's FP instruction retires through
``CPU._exec_fp`` (condition codes stick, unmasked conditions fault
*before writeback* with the block's cursor parked on the faulting
instruction, so the handler return restarts it; ``TF`` traps after every
retirement), and its integer phase through ``CPU.int_chunk`` (chunked at
timer boundaries).  Because blocks only ever commit group-at-a-time
through this path, fault-before-writeback is preserved and
individual-mode trace files are byte-identical with the block engine
enabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.machine import storm
from repro.machine.fastpaths import BLOCKEXEC
from repro.guest.ops import FPBlock
from repro.kernel.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cpu import CPU


def step_block(cpu: "CPU", task: Task, block: FPBlock) -> bool:
    """Execute one ``CPU.step``'s worth of ``block`` for ``task``: a
    batch from the batch engine if it admits one, else one precise
    sub-step."""
    # The block stays current until its last group retires, so faults,
    # traps, and preemption all resume it at the cursor.
    task.pending_op = block
    if cpu.rung >= BLOCKEXEC and storm.try_storm(cpu, task, block):
        return True
    return _scalar_substep(cpu, task, block)


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
