"""Trace readers and the :class:`TraceSet` convenience aggregation.

Mirrors FPSpy's analysis scripts: given the trace directory produced by a
run, gather every per-thread file, decode it, and expose event sets,
per-record streams, and numpy views for the rank-popularity analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.fp.flags import Flag
from repro.trace.records import (
    AggregateRecord,
    IndividualRecord,
    records_to_numpy,
    unpack_records,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.vfs import VFS


def read_aggregate(data: bytes) -> list[AggregateRecord]:
    return [
        AggregateRecord.from_line(line)
        for line in data.decode().splitlines()
        if line.startswith("fpspy-aggregate")
    ]


def read_individual(data: bytes) -> list[IndividualRecord]:
    return unpack_records(data)


@dataclass
class TraceSet:
    """All trace files produced by one run."""

    aggregate: list[AggregateRecord] = field(default_factory=list)
    individual: dict[str, list[IndividualRecord]] = field(default_factory=dict)
    individual_raw: dict[str, bytes] = field(default_factory=dict)

    @classmethod
    def from_vfs(cls, vfs: "VFS", prefix: str = "trace/") -> "TraceSet":
        ts = cls()
        for path in vfs.listdir(prefix):
            data = vfs.read(path)
            if path.endswith(".agg"):
                ts.aggregate.extend(read_aggregate(data))
            elif path.endswith(".ind"):
                ts.individual[path] = read_individual(data)
                ts.individual_raw[path] = data
        return ts

    # ------------------------------------------------------------ queries

    def all_records(self) -> Iterator[IndividualRecord]:
        for recs in self.individual.values():
            yield from recs

    def event_union(self) -> Flag:
        """Union of every event observed anywhere in the trace set."""
        out = Flag.NONE
        for rec in self.aggregate:
            if not rec.disabled:
                out |= rec.flags
        for rec in self.all_records():
            out |= rec.flags
        return out

    def records_array(self) -> np.ndarray:
        """All individual records of the set as one structured array."""
        parts = [records_to_numpy(raw) for raw in self.individual_raw.values()]
        if not parts:
            return np.empty(0, dtype=records_to_numpy(b"").dtype)
        return np.concatenate(parts)

    def count(self) -> int:
        return sum(len(r) for r in self.individual.values())

    def records_by_app(self, prefix: str = "trace/") -> dict[str, list[IndividualRecord]]:
        """Group individual records by the application name embedded in
        the trace path (``<prefix><app>.<pid>.<tid>.ind``)."""
        out: dict[str, list[IndividualRecord]] = {}
        for path, recs in self.individual.items():
            stem = path[len(prefix):] if path.startswith(prefix) else path
            app = stem.split(".", 1)[0]
            out.setdefault(app, []).extend(recs)
        return out
