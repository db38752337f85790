"""Trace record encodings.

Individual-mode binary record layout (64 bytes, little-endian):

======  =====  =========================================================
offset  type   field
======  =====  =========================================================
0       u64    sequence number (per-thread, monotonically increasing)
8       f64    timestamp (simulated seconds since boot)
16      u64    rip: faulting instruction address
24      u64    rsp: stack pointer at the fault
32      u32    mxcsr value captured at the fault (status + masks + rc)
36      u32    siginfo si_code (which condition was delivered)
40      u32    condition codes set by the instruction (the *event* bits)
44      u32    instruction byte count
48      16B    raw instruction bytes (zero padded)
======  =====  =========================================================

Records carry everything the paper's section 3.6 lists: timestamp,
instruction pointer, instruction data, stack pointer, FP control/status,
and ``%mxcsr``.  Each record is self-contained, so appends never need
ordering -- the property section 3.7 relies on for scalability.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.fp.flags import ALL_CODES, Flag, flags_to_events

#: Retention-class bits.  The low bits are the *interesting* sinks a
#: completed flight-recorder tree is classified by; ``SAMPLED`` /
#: ``SUMMARY`` mark retained-but-boring populations.
#: They live here, in the dependency-free record layer, because they
#: are part of the archival vocabulary (span args carry ``cls_label``
#: output) and because both the recorder and the provenance tracker
#: need them without importing each other.
CLS_ORIGIN = 1  #: touched a NaN/Inf/denorm provenance origin/propagation
CLS_SINK = 2  #: a provenance chain was killed / sank in this tree
CLS_BAILOUT = 4  #: trap-fusion bail-out (architecturally meaningful ones)
CLS_DISPOSITION = 8  #: signal disposition changed (sigaction, disarm)
CLS_OVERFLOW = 16  #: staged tree hit STAGE_CAP and was force-completed
CLS_SAMPLED = 32  #: boring tree retained by the sampler (all at period 1)
CLS_SUMMARY = 128  #: direct-commit span (storm/chunk summary, orphan)

#: Bits that make a tree "interesting": always retained, and their loss
#: to ring overwrite is accounted separately (the <1% CI gate).
INTERESTING_MASK = (
    CLS_ORIGIN | CLS_SINK | CLS_BAILOUT | CLS_DISPOSITION | CLS_OVERFLOW
)

_CLS_NAMES = (
    (CLS_ORIGIN, "origin"),
    (CLS_SINK, "sink"),
    (CLS_BAILOUT, "bailout"),
    (CLS_DISPOSITION, "disposition"),
    (CLS_OVERFLOW, "overflow"),
    (CLS_SAMPLED, "sampled"),
    (CLS_SUMMARY, "summary"),
)


def cls_label(cls: int) -> str:
    """Human/parseable label for a retention-class bitmask."""
    return "+".join(name for bit, name in _CLS_NAMES if cls & bit) or "none"


#: The packed individual-mode record, fields in this order: ``seq``,
#: ``time``, ``rip``, ``rsp``, ``mxcsr``, ``sicode``, ``codes``,
#: ``insn_len``, and ``insn`` zero-padded to 16 bytes.  Writers that
#: pack many records at once (the storm driver) use it directly.
RECORD_STRUCT = struct.Struct("<QdQQIIII16s")
RECORD_SIZE = RECORD_STRUCT.size
assert RECORD_SIZE == 64

#: NumPy structured dtype matching the packed layout (for mmap-style reads).
RECORD_DTYPE = np.dtype(
    [
        ("seq", "<u8"),
        ("time", "<f8"),
        ("rip", "<u8"),
        ("rsp", "<u8"),
        ("mxcsr", "<u4"),
        ("sicode", "<u4"),
        ("codes", "<u4"),
        ("insn_len", "<u4"),
        ("insn", "V16"),
    ]
)
assert RECORD_DTYPE.itemsize == RECORD_SIZE


@dataclass(frozen=True)
class IndividualRecord:
    """One decoded individual-mode trace record."""

    seq: int
    time: float
    rip: int
    rsp: int
    mxcsr: int
    sicode: int
    codes: int  #: raw condition-code bits the faulting instruction raised
    insn: bytes

    @property
    def flags(self) -> Flag:
        return Flag(self.codes & ALL_CODES)

    @property
    def events(self) -> list[str]:
        return flags_to_events(self.flags)

    @property
    def mnemonic(self) -> str:
        from repro.isa.instruction import decode_form

        return decode_form(self.insn).mnemonic


def pack_record(rec: IndividualRecord) -> bytes:
    insn = rec.insn[:16]
    return RECORD_STRUCT.pack(
        rec.seq,
        rec.time,
        rec.rip,
        rec.rsp,
        rec.mxcsr,
        rec.sicode,
        rec.codes,
        len(insn),
        insn.ljust(16, b"\x00"),
    )


def unpack_records(data: bytes) -> list[IndividualRecord]:
    """Decode a whole trace file into record objects."""
    if len(data) % RECORD_SIZE:
        raise ValueError(
            f"trace length {len(data)} is not a multiple of {RECORD_SIZE}"
        )
    out = []
    for offset in range(0, len(data), RECORD_SIZE):
        seq, t, rip, rsp, mxcsr, sicode, codes, n, raw = (
            RECORD_STRUCT.unpack_from(data, offset))
        out.append(
            IndividualRecord(
                seq=seq, time=t, rip=rip, rsp=rsp, mxcsr=mxcsr,
                sicode=sicode, codes=codes, insn=raw[:n],
            )
        )
    return out


def records_to_numpy(data: bytes) -> np.ndarray:
    """Zero-copy structured-array view of a trace file (the mmap path)."""
    if len(data) % RECORD_SIZE:
        raise ValueError(
            f"trace length {len(data)} is not a multiple of {RECORD_SIZE}"
        )
    return np.frombuffer(data, dtype=RECORD_DTYPE)


_SPAN_STRUCT = struct.Struct("<QQQII16s64s")
SPAN_RECORD_SIZE = _SPAN_STRUCT.size
assert SPAN_RECORD_SIZE == 112


@dataclass(frozen=True)
class SpanRecord:
    """One packed flight-recorder span (112 bytes, little-endian).

    ======  =====  ====================================================
    offset  type   field
    ======  =====  ====================================================
    0       u64    span id (monotonic, per recorder)
    8       u64    parent span id (0 = tree root)
    16      u64    cycle stamp (simulated cycles)
    24      u32    pid
    28      u32    tid
    32      16B    span name (utf-8, zero padded)
    48      64B    detail string ``k=v;k=v`` (utf-8, truncated)
    ======  =====  ====================================================

    The binary form is the compact archival format and the only one a
    campaign writes (``traces/runNNNN.spans.bin``); the detail string is
    lossy past 64 bytes.  For Perfetto, convert on demand with
    ``to_chrome_json(spans_from_binary(data))``; the lossless Chrome
    trace-event JSON comes from a live recorder
    (``repro.study trace record --json``, :mod:`repro.telemetry.tracing`).
    """

    span_id: int
    parent_id: int
    cycles: int
    pid: int
    tid: int
    name: str
    args: str


def pack_span(rec: SpanRecord) -> bytes:
    return _SPAN_STRUCT.pack(
        rec.span_id,
        rec.parent_id,
        rec.cycles,
        rec.pid,
        rec.tid,
        rec.name.encode()[:16].ljust(16, b"\x00"),
        rec.args.encode()[:64].ljust(64, b"\x00"),
    )


def unpack_spans(data: bytes) -> list[SpanRecord]:
    if len(data) % SPAN_RECORD_SIZE:
        raise ValueError(
            f"span trace length {len(data)} is not a multiple of "
            f"{SPAN_RECORD_SIZE}"
        )
    out = []
    for offset in range(0, len(data), SPAN_RECORD_SIZE):
        sid, parent, cycles, pid, tid, name, args = _SPAN_STRUCT.unpack_from(
            data, offset
        )
        out.append(
            SpanRecord(
                span_id=sid, parent_id=parent, cycles=cycles, pid=pid,
                tid=tid, name=name.rstrip(b"\x00").decode(),
                args=args.rstrip(b"\x00").decode(errors="replace"),
            )
        )
    return out


@dataclass(frozen=True)
class AggregateRecord:
    """One decoded aggregate-mode record (one text line per thread)."""

    app: str
    pid: int
    tid: int
    status: int  #: final sticky condition-code bits
    disabled: bool  #: FPSpy stepped aside during this thread's run
    reason: str = ""

    @property
    def flags(self) -> Flag:
        return Flag(self.status & ALL_CODES)

    @property
    def events(self) -> list[str]:
        return flags_to_events(self.flags)

    def to_line(self) -> str:
        events = ",".join(self.events) or "-"
        disabled = "yes" if self.disabled else "no"
        reason = self.reason.replace(" ", "_") or "-"
        return (
            f"fpspy-aggregate app={self.app} pid={self.pid} tid={self.tid} "
            f"status=0x{self.status:02x} events={events} "
            f"disabled={disabled} reason={reason}\n"
        )

    @classmethod
    def from_line(cls, line: str) -> "AggregateRecord":
        fields = dict(
            token.split("=", 1) for token in line.split() if "=" in token
        )
        return cls(
            app=fields["app"],
            pid=int(fields["pid"]),
            tid=int(fields["tid"]),
            status=int(fields["status"], 16),
            disabled=fields["disabled"] == "yes",
            reason="" if fields["reason"] == "-" else fields["reason"],
        )
