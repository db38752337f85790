"""The x64 floating point condition codes ("events" in FPSpy terminology).

The IEEE 754 standard defines five exception conditions; x64 adds a sixth
(Denormal operand).  On x64 these appear as the low six bits of the
``%mxcsr`` register, set as a zero-cost side effect of every SSE/AVX
floating point operation.  The bits are *sticky*: once set they stay set
until software explicitly clears them.  FPSpy's aggregate mode is built
entirely on this stickiness (paper section 3.5).

Bit layout (Intel SDM, MXCSR):

====  ====  ============================  ======================
bit   name  meaning                       paper event name
====  ====  ============================  ======================
0     IE    invalid operation             Invalid
1     DE    denormal operand              Denorm
2     ZE    divide by zero                DivideByZero
3     OE    overflow                      Overflow
4     UE    underflow                     Underflow
5     PE    precision (inexact)           Inexact
====  ====  ============================  ======================
"""

from __future__ import annotations

import enum
from typing import Iterable


#: Shift from a status-flag bit (bits 0-5 of ``%mxcsr``) to its
#: corresponding exception-mask bit (bits 7-12).  This is the canonical
#: definition; :mod:`repro.fp.mxcsr` re-exports it, and anything building
#: raw mask fields from condition codes must use it rather than a
#: hardcoded constant.
MASK_SHIFT = 7

#: The six condition codes as plain ints, the literal x64 bit positions.
#: Inside the simulator -- softfloat, the ISA, the machine, the kernel --
#: condition codes are these ints and their ORs; :class:`Flag` is built
#: only where they leave it (register accessors, trace records, event
#: names, configuration).
IE, DE, ZE, OE, UE, PE = 1, 2, 4, 8, 16, 32

#: All six condition codes: the status field of ``%mxcsr``, unshifted.
ALL_CODES = IE | DE | ZE | OE | UE | PE


class Flag(enum.IntFlag):
    """MXCSR status flag bits, for the API and reporting boundary."""

    # The right-hand names are the module-level ints above.
    IE = IE  #: Invalid operation (operand is a NaN / meaningless op)
    DE = DE  #: Denormal operand (x64-specific)
    ZE = ZE  #: Divide by zero
    OE = OE  #: Overflow (result was an infinity; true result did not fit)
    UE = UE  #: Underflow (result was a denorm or zero; did not fit)
    PE = PE  #: Precision / Inexact (result is a rounded version of truth)

    NONE = 0


#: All six status flags set.
ALL_FLAGS: Flag = Flag(ALL_CODES)

#: Map from flag to the event name used throughout the paper's figures.
FLAG_NAMES: dict[Flag, str] = {
    Flag.IE: "Invalid",
    Flag.DE: "Denorm",
    Flag.ZE: "DivideByZero",
    Flag.OE: "Overflow",
    Flag.UE: "Underflow",
    Flag.PE: "Inexact",
}

#: Event names in the column order used by the paper's tables (Figures 9-14).
EVENT_ORDER: tuple[str, ...] = (
    "DivideByZero",
    "Invalid",
    "Denorm",
    "Underflow",
    "Overflow",
    "Inexact",
)

#: Inverse of :data:`FLAG_NAMES`.
NAME_TO_FLAG: dict[str, Flag] = {v: k for k, v in FLAG_NAMES.items()}

#: x64 exception priority: when one instruction raises several unmasked
#: exceptions, a priority encoding picks the one delivered (paper 3.2).
#: Invalid/Denormal/DivideByZero are pre-computation faults and outrank the
#: post-computation Overflow/Underflow/Precision.
PRIORITY: tuple[Flag, ...] = (Flag.IE, Flag.DE, Flag.ZE, Flag.OE, Flag.UE, Flag.PE)


def flags_to_events(flags: Flag) -> list[str]:
    """Return the paper-style event names present in ``flags``, in table order."""
    return [name for name in EVENT_ORDER if flags & NAME_TO_FLAG[name]]


def events_to_flags(names: Iterable[str]) -> Flag:
    """Parse event names (as used in ``FPE_EXCEPT_LIST``) into a flag set.

    Names are case-insensitive and may be either the paper event names
    ("Invalid", "DivideByZero", ...) or the raw x64 mnemonics ("IE", ...).
    """
    out = Flag.NONE
    lowered = {k.lower(): v for k, v in NAME_TO_FLAG.items()}
    for raw in names:
        token = raw.strip()
        if not token:
            continue
        key = token.lower()
        if key in lowered:
            out |= lowered[key]
        elif token.upper() in Flag.__members__:
            out |= Flag[token.upper()]
        else:
            raise ValueError(f"unknown floating point event name: {raw!r}")
    return out


def highest_priority(pending: int) -> int:
    """The single condition x64's priority encoding delivers from
    ``pending``: its lowest set bit, since :data:`PRIORITY` runs from bit 0
    up.  Zero when nothing is pending."""
    return pending & -pending
