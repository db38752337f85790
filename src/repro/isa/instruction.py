"""Dynamic floating point instructions and static code sites.

FPSpy's individual-mode trace records contain, per event: a timestamp, the
instruction pointer, the raw instruction bytes, the stack pointer, the
kernel-supplied FP control/status, and ``%mxcsr`` (paper section 3.6).
The analyses of section 6 then key on two things recoverable from those
records: the instruction *address* (RIP) and the instruction *form*
(decoded from the bytes).

A :class:`CodeSite` is one static instruction in a guest program's text
segment -- it owns an address and a deterministic synthetic encoding.  A
:class:`FPInstruction` is one *dynamic* execution of a site, carrying the
operand bit patterns for each vector lane.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.isa.forms import FORMS, InstructionForm, form as lookup_form

#: Base virtual address of guest text segments, like a non-PIE Linux binary.
TEXT_BASE = 0x400000


def encode_form(form: InstructionForm, address: int) -> bytes:
    """Produce a deterministic synthetic machine-code encoding.

    Real FPSpy copies the instruction bytes out of the faulting context;
    analysis scripts decode the mnemonic back out of them.  We synthesize a
    stable, distinct byte string per (form, address-low-bits) so traces
    round-trip the same way: a 2-3 byte opcode derived from the mnemonic
    plus a ModRM-like byte derived from the address.
    """
    prefix = b"\xc5" if form.avx else b"\x66"
    return prefix + _OPCODES[form] + bytes([(address >> 4) & 0xFF])


def decode_form(encoding: bytes) -> InstructionForm:
    """Inverse of :func:`encode_form` (ignores the ModRM byte)."""
    opcode = encoding[1:4]
    match = _OPCODE_TABLE.get(opcode)
    if match is None:
        raise ValueError(f"cannot decode instruction bytes {encoding.hex()}")
    return match


#: Each catalogue form's 3-byte synthetic opcode, a digest of its
#: mnemonic computed once here (forms hash by identity).
_OPCODES: dict[InstructionForm, bytes] = {
    f: hashlib.blake2b(f.mnemonic.encode(), digest_size=3).digest()
    for f in FORMS.values()
}
_OPCODE_TABLE: dict[bytes, InstructionForm] = {
    op: f for f, op in _OPCODES.items()
}
# The synthetic opcodes must be collision-free or traces would mis-decode.
assert len(_OPCODE_TABLE) == len(FORMS)


@dataclass(frozen=True)
class CodeSite:
    """A static instruction site in a guest binary.

    Attributes
    ----------
    address:
        Virtual address (RIP) of the instruction.
    form:
        The instruction form at this site.
    encoding:
        The synthetic instruction bytes stored in trace records.
    """

    address: int
    form: InstructionForm
    encoding: bytes

    @property
    def mnemonic(self) -> str:
        return self.form.mnemonic

    def __repr__(self) -> str:  # pragma: no cover
        return f"<site 0x{self.address:x} {self.form.mnemonic}>"


class CodeLayout:
    """Allocates :class:`CodeSite` addresses within a synthetic text segment.

    Each guest application builds one layout at load time; every static FP
    instruction in its kernels claims a site.  Addresses are stable across
    runs (deterministic allocation order), which the Figure 19 address
    rank-popularity analysis depends on.
    """

    def __init__(self, base: int = TEXT_BASE) -> None:
        self._next = base
        self._sites: list[CodeSite] = []

    def site(self, mnemonic: str) -> CodeSite:
        """Allocate a new static site for ``mnemonic``."""
        f = lookup_form(mnemonic)
        address = self._next
        # x64 SSE/AVX FP instructions are 4-6 bytes; ours are 5.
        self._next += 5
        s = CodeSite(address, f, encode_form(f, address))
        self._sites.append(s)
        return s

    def sites(self) -> Sequence[CodeSite]:
        return tuple(self._sites)

    def __len__(self) -> int:
        return len(self._sites)


@dataclass
class FPInstruction:
    """One dynamic execution of a code site.

    ``inputs`` holds one operand tuple per vector lane; each operand is a
    raw bit pattern in the form's element format (or a Python int for
    integer-source converts).  After execution the machine fills
    ``results`` (one value per lane: result bits, or the integer/relation
    for converts/compares).
    """

    site: CodeSite
    inputs: tuple[tuple[int, ...], ...]
    results: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        f = self.site.form
        if len(self.inputs) != f.lanes:
            raise ValueError(
                f"{f.mnemonic} expects {f.lanes} lane(s), got {len(self.inputs)}"
            )
        for lane in self.inputs:
            if len(lane) != f.arity:
                raise ValueError(
                    f"{f.mnemonic} expects {f.arity} operand(s) per lane, "
                    f"got {len(lane)}"
                )

    @property
    def form(self) -> InstructionForm:
        return self.site.form

    @property
    def address(self) -> int:
        return self.site.address
