"""The telemetry bus: scopes of read-only count and gauge sources.

Design (DESIGN.md decision #8):

* **Pull, not push.**  Every layer keeps its own counts as plain ints
  and dicts on the object that owns them, always on.  A scope only
  holds *sources* -- read-only callables registered once, at the
  owner's construction -- and :meth:`TelemetryBus.snapshot` calls them.
  There is no emit path and no instrument object, so the hot paths
  carry no telemetry code at all: names (events, signals) are built
  from the owners' raw keys when a snapshot is read.
* **Counts and gauges.**  A count source returns ``{key: int}`` totals;
  counts from several sources of one scope (per-process engines,
  per-thread writers) are summed, and so are counts across runs
  (:func:`repro.telemetry.snapshot.merge_snapshots`).  A gauge source
  returns ``{key: value}`` levels (occupancy, queue depth, flags);
  levels are never summed.
* **Zero perturbation.**  Nothing here charges cycles or touches
  architectural state; a source must itself be read-only.
"""

from __future__ import annotations

from typing import Callable

Source = Callable[[], dict]


class Scope:
    """One layer's named set of count and gauge sources."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._counts: list[Source] = []
        self._gauges: list[Source] = []

    def counts(self, fn: Source) -> None:
        """Register a source of ``{key: total}`` counts."""
        self._counts.append(fn)

    def gauges(self, fn: Source) -> None:
        """Register a source of ``{key: level}`` gauges."""
        self._gauges.append(fn)

    def snapshot_typed(self) -> dict[str, dict]:
        """``{"counts": ..., "gauges": ...}``: the kinds kept apart, so a
        cross-run merge can sum the one and not the other."""
        counts: dict[str, int] = {}
        for fn in self._counts:
            for key, n in fn().items():
                counts[key] = counts.get(key, 0) + n
        gauges: dict[str, object] = {}
        for fn in self._gauges:
            gauges.update(fn())
        return {"counts": counts, "gauges": gauges}

    def snapshot(self) -> dict[str, object]:
        typed = self.snapshot_typed()
        return {**typed["counts"], **typed["gauges"]}


class TelemetryBus:
    """The per-kernel source registry.

    ``kernel`` is optional so the bus is constructible standalone (the
    campaign coordinator's bus has none); when present it supplies the
    sim-cycle clock for snapshots.
    """

    def __init__(self, kernel=None) -> None:
        self.kernel = kernel
        self._scopes: dict[str, Scope] = {}

    @property
    def cycles(self) -> int:
        return self.kernel.cycles if self.kernel is not None else 0

    def scope(self, name: str) -> Scope:
        s = self._scopes.get(name)
        if s is None:
            s = self._scopes[name] = Scope(name)
        return s

    def scopes(self) -> list[Scope]:
        return [self._scopes[k] for k in sorted(self._scopes)]

    def snapshot(self) -> dict:
        """One coherent, JSON-ready view of every source.

        The only place sources run: telemetry costs nothing until read.
        """
        return {
            "cycles": self.cycles,
            "scopes": {s.name: s.snapshot() for s in self.scopes()},
        }

    def snapshot_typed(self) -> dict:
        """Kind-preserving snapshot of every scope (mergeable form)."""
        return {
            "cycles": self.cycles,
            "scopes": {s.name: s.snapshot_typed() for s in self.scopes()},
        }
