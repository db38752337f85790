"""Operation types a guest program can yield to the simulated CPU.

:class:`repro.isa.FPInstruction` is also a valid guest op (the common one);
it lives in the ISA package.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.isa.instruction import CodeSite


class GuestOp:
    """Marker base class for non-FP guest operations."""

    __slots__ = ()


@dataclass
class LibcCall(GuestOp):
    """A call through the PLT to a dynamically-resolved symbol.

    The call is resolved by the process's dynamic linker, so a preloaded
    FPSpy may interpose.  The CPU sends the call's return value back into
    the yielding generator.
    """

    name: str
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)


@dataclass
class IntWork(GuestOp):
    """``count`` non-floating-point instructions (loads, stores, ALU ops).

    Advances virtual time and the cycle clock without touching the FPU.
    Guest programs use this to model the integer portion of their kernels,
    which matters for event-*rate* measurements (Figures 12, 13, 15, 16).
    """

    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("IntWork count must be positive")


@dataclass(slots=True)
class FPBlock(GuestOp):
    """A contiguous run of dynamic executions of one FP code site.

    This is the *superblock* the kernel builders emit instead of a long
    ``FPInstruction``/``IntWork`` yield sequence: ``n_groups`` executions
    of ``site`` (each retiring ``site.form.lanes`` elements), with
    ``interleave`` units of integer work after each one.  Architecturally
    it is nothing new -- the machine must execute it *exactly* as if the
    equivalent per-instruction stream had been yielded (same sticky
    flags, faults, vtime, cycle charges, and signal landing points); the
    block form merely licenses the CPU to batch the work when the task is
    quiescent (see :mod:`repro.machine.blockexec`).

    Every form stores its data the same way, in the one lane format
    from emission to commit (DESIGN.md #6): one padded stdlib
    :class:`array.array` per operand position (``arrays``; float
    operands as ``'Q'`` bit patterns, ``cvtsi2s*`` integer sources as
    ``'q'``) and one ``n_elements`` result array (``results``; ``'q'``
    for compare and float-to-int kinds, ``'Q'`` bit patterns otherwise)
    that every retirement path writes its slice of.  The cursor fields record
    partial progress so a fault, trap, or timer can interrupt the block
    mid-flight and restart it at the precise instruction.  The class has
    slots: the machine reads these fields on every step of the block.
    """

    site: CodeSite
    n_groups: int  #: dynamic instructions (lane groups) in the block
    n_elements: int  #: real (unpadded) elements across all groups
    #: One operand array per operand position, padded to
    #: ``n_groups * lanes`` elements.
    arrays: tuple[array, ...]
    #: Flat element results, written as groups retire.
    results: array
    interleave: int = 0  #: integer instructions after each FP instruction

    # -- execution cursor (owned by the machine) ----------------------------
    index: int = 0  #: groups fully retired so far
    fp_done: bool = False  #: current group's FP instruction has retired
    int_remaining: int = 0  #: current group's leftover interleave units
    #: Storm's batch-executed window over the remaining groups
    #: (:mod:`repro.machine.storm`), kept across its attempts.
    storm_window: Any = field(default=None, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        site: CodeSite,
        operand_streams: Sequence[Sequence[int]],
        interleave: int,
    ) -> "FPBlock":
        """Pack parallel operand streams -- each the ``array`` of
        :meth:`repro.guest.program.KernelBuilder.encode_bits` or a list of
        ints -- into a block, padding the tail with the form's ``pad``."""
        form = site.form
        op_code, res_code = form.typecodes
        lanes = form.lanes
        n = len(operand_streams[0])
        n_groups = -(-n // lanes)
        padding = [form.pad] * (n_groups * lanes - n)
        arrays = []
        for stream in operand_streams:
            a = array(op_code, stream)
            a.extend(padding)
            arrays.append(a)
        return cls(
            site=site, n_groups=n_groups, n_elements=n,
            arrays=tuple(arrays), results=array(res_code, [0]) * n,
            interleave=interleave,
        )

    # ------------------------------------------------------------ accessors

    @property
    def done(self) -> bool:
        return self.index >= self.n_groups

    def group(self, g: int) -> tuple[tuple[int, ...], ...]:
        """Lane-input tuples of group ``g`` (an ``FPInstruction.inputs``)."""
        lanes = self.site.form.lanes
        lo = g * lanes
        return tuple(zip(*[a[lo:lo + lanes] for a in self.arrays]))

    def take(self, g: int) -> int:
        """Real (unpadded) element count of group ``g``."""
        return min(self.site.form.lanes, self.n_elements - g * self.site.form.lanes)
