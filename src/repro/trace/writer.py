"""Trace writers: append-only sinks bound to the simulated VFS.

Individual-mode records dominate I/O in dense runs (one 64-byte record
per captured event), so :class:`TraceWriter` batches serialization: packed
records accumulate in a local buffer and reach the VFS in one append per
``FLUSH_EVERY`` records, on teardown, or whenever a reader looks at the
file (the writer registers a sync hook with the VFS).  Readers therefore
always see exactly the bytes an unbuffered writer would have produced --
buffering is invisible to everything but the append count.

Lifecycle: :meth:`TraceWriter.close` drains the buffer and unhooks the
writer from the VFS.  Close is idempotent, and unhooking uses the VFS's
identity-checked ``unregister_sync`` so a stale writer closed *after* a
newer writer re-opened the same path can never tear down the live hook.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.trace.records import AggregateRecord, IndividualRecord, pack_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.vfs import VFS
    from repro.telemetry.bus import TelemetryBus


def trace_path(app: str, pid: int, tid: int, mode: str, prefix: str = "trace/") -> str:
    """Per-thread trace file path: ``<prefix><app>.<pid>.<tid>.<mode>``."""
    suffix = {"aggregate": "agg", "individual": "ind"}[mode]
    return f"{prefix}{app}.{pid}.{tid}.{suffix}"


class TraceWriter:
    """One thread's trace sink (each thread gets its own file, 3.7)."""

    #: Individual records buffered between VFS appends.
    FLUSH_EVERY = 256

    def __init__(self, vfs: "VFS", path: str,
                 telemetry: "TelemetryBus | None" = None) -> None:
        """``telemetry``, when given, reads this writer's flush counts
        into its ``trace`` scope."""
        self.path = path
        self._vfs = vfs
        self._file = vfs.open(path)
        self.records_written = 0
        self._buffer = bytearray()
        self._buffered_records = 0
        self._closed = False
        # Host-side counts (never charged to the guest).
        self.flushes = 0
        self.sync_flushes = 0
        self.bytes_flushed = 0
        if telemetry is not None:
            telemetry.scope("trace").counts(lambda: {
                "flushes": self.flushes,
                "sync_flushes": self.sync_flushes,
                "bytes_flushed": self.bytes_flushed,
            })
        vfs.register_sync(path, self._sync_flush)

    @property
    def buffered_bytes(self) -> int:
        """Bytes accumulated since the last drain."""
        return len(self._buffer)

    @property
    def closed(self) -> bool:
        return self._closed

    def append_individual(self, rec: IndividualRecord) -> None:
        self._buffer += pack_record(rec)
        self.records_written += 1
        self._buffered_records += 1
        if self._buffered_records >= self.FLUSH_EVERY:
            self.flush()

    def append_packed(self, data: bytes, count: int) -> None:
        """Append ``count`` already-packed individual records at once.

        The storm batch driver packs a whole batch of records and joins
        them into one buffer; the bytes are exactly ``count``
        back-to-back :func:`pack_record` outputs, so the file contents are
        byte-identical to ``count`` ``append_individual`` calls -- only
        the host-side flush boundary (never guest-visible) can differ.
        """
        self._buffer += data
        self.records_written += count
        self._buffered_records += count
        if self._buffered_records >= self.FLUSH_EVERY:
            self.flush()

    def append_aggregate(self, rec: AggregateRecord) -> None:
        # Aggregate mode writes one record per thread lifetime: flush-through.
        self._buffer += rec.to_line().encode()
        self.records_written += 1
        self.flush()

    def append_text(self, line: str) -> None:
        self._buffer += line.encode()
        self.flush()

    def _sync_flush(self) -> None:
        """VFS sync hook: a reader is looking, force the buffer out."""
        if self._buffer:
            self.sync_flushes += 1
        self.flush()

    def flush(self) -> None:
        """Drain the buffer to the VFS as a single append."""
        if self._buffer:
            self._file.append(bytes(self._buffer))
            self.flushes += 1
            self.bytes_flushed += len(self._buffer)
            self._buffer.clear()
        self._buffered_records = 0

    def close(self) -> None:
        """Drain and detach from the VFS.  Idempotent.

        Ordering matters: the final flush happens *before* the sync hook
        is removed, so a concurrent reader between the two still sees a
        fully drained file; afterwards the hook is gone and a later
        writer on the same path owns the registration.  Double-close is
        a no-op -- in particular it must not unregister a hook installed
        by a newer writer that reused this path, which the VFS's
        identity check guarantees.
        """
        if self._closed:
            return
        self.flush()
        self._vfs.unregister_sync(self.path, self._sync_flush)
        self._closed = True
