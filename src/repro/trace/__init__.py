"""FPSpy trace file formats: binary individual-mode records and
human-readable aggregate-mode records.

Individual-mode records are fixed-size packed structs, "suitable for
being mmap()ed into analysis programs for speed" (paper section 3.1):
:func:`records_to_numpy` views a whole trace file as a NumPy structured
array with zero copying.
"""

from repro.trace.records import (
    AggregateRecord,
    IndividualRecord,
    RECORD_SIZE,
    RECORD_DTYPE,
    RECORD_STRUCT,
    pack_record,
    unpack_records,
    records_to_numpy,
)
from repro.trace.writer import TraceWriter, trace_path
from repro.trace.reader import TraceSet, read_aggregate, read_individual

__all__ = [
    "AggregateRecord",
    "IndividualRecord",
    "RECORD_SIZE",
    "RECORD_DTYPE",
    "RECORD_STRUCT",
    "pack_record",
    "unpack_records",
    "records_to_numpy",
    "TraceWriter",
    "trace_path",
    "TraceSet",
    "read_aggregate",
    "read_individual",
]
