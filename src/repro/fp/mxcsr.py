"""Model of the x64 ``%mxcsr`` control/status register.

This register is the heart of everything FPSpy does (paper section 3.2):

* bits 0-5 are the six *sticky* status flags (condition codes);
* bit 6 is DAZ (denormals-are-zero);
* bits 7-12 are the per-condition exception masks (set = masked);
* bits 13-14 are the rounding control;
* bit 15 is FTZ (flush-to-zero).

At power-on the register holds ``0x1F80``: all exceptions masked, all
status clear, round-to-nearest.  FPSpy's aggregate mode is "a write of
%mxcsr at the beginning of a thread's life cycle, and a read at the end of
it"; individual mode unmasks exceptions so each event produces a precise
fault.
"""

from __future__ import annotations

from repro.fp.flags import ALL_CODES, MASK_SHIFT, UE, Flag
from repro.fp.rounding import RoundingMode
from repro.fp.softfloat import FPContext

DAZ_BIT = 1 << 6
FTZ_BIT = 1 << 15
RC_SHIFT = 13
RC_MASK = 0b11 << RC_SHIFT

#: Power-on / Linux-default value: all exceptions masked, nearest rounding.
MXCSR_DEFAULT = 0x1F80

#: Bits that determine the :class:`FPContext` an operation executes under:
#: rounding control, FTZ, DAZ, and the Underflow mask (FTZ only bites while
#: UM is masked).  Status and the other mask bits are irrelevant.
_CTX_KEY_MASK = RC_MASK | FTZ_BIT | DAZ_BIT | (UE << MASK_SHIFT)

#: Interned contexts shared by every MXCSR instance, keyed by the control
#: bits above (at most 32 distinct values, so the table is bounded).
_CTX_INTERN: dict[int, FPContext] = {}

#: The register bits that must hold for the machine's block fast path:
#: every exception masked, FTZ and DAZ off.  Rounding control is *not*
#: part of the gate: the vectorized engines are certified for all four
#: modes (directed modes via error-free residual-sign corrections), so a
#: guest ``fesetround`` no longer forces the precise sub-step path.
#: Status flags are ignored -- they are sticky outputs, not control
#: state.
_QUIESCENT_MASK = (ALL_CODES << MASK_SHIFT) | FTZ_BIT | DAZ_BIT
_QUIESCENT_VALUE = ALL_CODES << MASK_SHIFT

_UE_MASK_BIT = UE << MASK_SHIFT


class MXCSR:
    """A mutable ``%mxcsr`` with convenience accessors.

    The raw 32-bit value is authoritative: ``ldmxcsr``/``stmxcsr`` style
    access (``value`` property) and the structured accessors always agree.
    Setters and :meth:`unmasked_pending` take and return condition codes
    as plain ints (:data:`repro.fp.flags.IE` ...); only the ``status`` and
    ``masks`` read accessors build :class:`Flag` values.
    """

    __slots__ = ("_value", "_ctx_key", "_ctx")

    def __init__(self, value: int = MXCSR_DEFAULT) -> None:
        self._value = value & 0xFFFF
        self._ctx_key = -1  #: control bits the cached context was built for
        self._ctx: FPContext | None = None

    # ---- raw access (ldmxcsr / stmxcsr) -----------------------------------

    @property
    def value(self) -> int:
        return self._value

    @value.setter
    def value(self, raw: int) -> None:
        self._value = raw & 0xFFFF
        # A raw write (ldmxcsr) may change the control bits: drop the cached
        # context so the next ``context()`` rebuilds it.
        self._ctx_key = -1

    def copy(self) -> "MXCSR":
        return MXCSR(self._value)

    # ---- status flags (sticky condition codes) ----------------------------

    @property
    def status(self) -> Flag:
        return Flag(self._value & ALL_CODES)

    def set_status(self, codes: int) -> None:
        """OR codes into the sticky status bits (what every FP op does)."""
        self._value |= codes & ALL_CODES

    def clear_status(self) -> None:
        """Clear all six condition codes (FPSpy does this constantly)."""
        self._value &= ~ALL_CODES

    # ---- exception masks ---------------------------------------------------

    @property
    def masks(self) -> Flag:
        """The set of *masked* (suppressed) exceptions, as Flag bits."""
        return Flag((self._value >> MASK_SHIFT) & ALL_CODES)

    def mask_all(self) -> None:
        self._value |= ALL_CODES << MASK_SHIFT

    def unmask(self, codes: int) -> None:
        """Unmask the given exceptions so they fault (individual mode)."""
        self._value &= ~((codes & ALL_CODES) << MASK_SHIFT)

    def mask(self, codes: int) -> None:
        self._value |= (codes & ALL_CODES) << MASK_SHIFT

    def set_masks(self, masked: int) -> None:
        """Set the mask field exactly: ``masked`` exceptions are suppressed."""
        self._value &= ~(ALL_CODES << MASK_SHIFT)
        self._value |= (masked & ALL_CODES) << MASK_SHIFT

    def unmasked_pending(self, codes: int) -> int:
        """Which of ``codes`` would fault under the current masks."""
        return codes & ~(self._value >> MASK_SHIFT) & ALL_CODES

    @property
    def ue_masked(self) -> bool:
        """True when the Underflow exception is masked (hot-path helper)."""
        return bool(self._value & _UE_MASK_BIT)

    # ---- rounding control ----------------------------------------------------

    @property
    def rounding(self) -> RoundingMode:
        return RoundingMode((self._value & RC_MASK) >> RC_SHIFT)

    @rounding.setter
    def rounding(self, mode: RoundingMode) -> None:
        self._value = (self._value & ~RC_MASK) | (int(mode) << RC_SHIFT)

    # ---- FTZ / DAZ ----------------------------------------------------------

    @property
    def ftz(self) -> bool:
        return bool(self._value & FTZ_BIT)

    @ftz.setter
    def ftz(self, on: bool) -> None:
        self._value = (self._value | FTZ_BIT) if on else (self._value & ~FTZ_BIT)

    @property
    def daz(self) -> bool:
        return bool(self._value & DAZ_BIT)

    @daz.setter
    def daz(self, on: bool) -> None:
        self._value = (self._value | DAZ_BIT) if on else (self._value & ~DAZ_BIT)

    # ---- derived -------------------------------------------------------------

    @property
    def quiescent(self) -> bool:
        """True when the register is in the all-masked control state
        (every exception masked, no FTZ/DAZ; any rounding mode).

        This is the gate for the machine's block fast path: in this state
        no FP instruction can fault and the dynamic context is fully
        captured by the (interned) :class:`FPContext`, so contiguous runs
        can be executed as a batch under that context.
        """
        return (self._value & _QUIESCENT_MASK) == _QUIESCENT_VALUE

    def context(self) -> FPContext:
        """The :class:`FPContext` operations should execute under.

        FTZ architecturally only takes effect while the Underflow exception
        is masked; the returned context encodes that.  Contexts are interned
        per control-bit value, so the per-instruction hot loop never
        allocates: the same ``FPContext`` object is returned until a control
        bit changes.
        """
        key = self._value & _CTX_KEY_MASK
        if key == self._ctx_key:
            assert self._ctx is not None
            return self._ctx
        ctx = _CTX_INTERN.get(key)
        if ctx is None:
            ctx = FPContext(
                rmode=self.rounding,
                ftz=self.ftz and self.ue_masked,
                daz=self.daz,
            )
            _CTX_INTERN[key] = ctx
        self._ctx_key = key
        self._ctx = ctx
        return ctx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MXCSR(0x{self._value:04x} status={self.status!r} "
            f"masks={self.masks!r} rc={self.rounding.name} "
            f"ftz={self.ftz} daz={self.daz})"
        )
