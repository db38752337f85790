"""C99 ``<fenv.h>`` constants and environment objects.

The ``fe*`` functions are the application-visible face of the FPU control
state.  The paper's source-code analysis (Figure 8) greps for exactly
these; any *dynamic* use of them forces FPSpy to get out of the way.

We use the glibc/x86 convention where the FE_* exception macros equal the
x87/SSE status bit positions, which conveniently match our
:mod:`repro.fp.flags` condition-code bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fp.flags import ALL_CODES, DE, IE, OE, PE, UE, ZE, Flag
from repro.fp.mxcsr import MXCSR_DEFAULT

FE_INVALID = IE
FE_DENORM = DE  # x86 extension
FE_DIVBYZERO = ZE
FE_OVERFLOW = OE
FE_UNDERFLOW = UE
FE_INEXACT = PE
FE_ALL_EXCEPT = ALL_CODES

#: C99 rounding-direction macros (glibc x86 values, mapped to MXCSR.RC).
FE_TONEAREST = 0
FE_DOWNWARD = 1
FE_UPWARD = 2
FE_TOWARDZERO = 3


@dataclass(frozen=True)
class FEnv:
    """An opaque ``fenv_t``: a snapshot of the whole ``%mxcsr``."""

    mxcsr: int


#: ``FE_DFL_ENV``: the default environment (all masked, round-to-nearest).
FE_DFL_ENV = FEnv(mxcsr=MXCSR_DEFAULT)


def fe_to_flags(excepts: int) -> Flag:
    """Convert an FE_* bitmask to a :class:`Flag` set."""
    return Flag(excepts & FE_ALL_EXCEPT)


def flags_to_fe(flags: Flag) -> int:
    return int(flags) & FE_ALL_EXCEPT
