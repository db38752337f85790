"""The telemetry bus: counters, gauges, span events, scopes.

Design (DESIGN.md decision #8):

* **Pull, not push.**  Producers mutate plain Python ints/dicts in
  place; consumers call :meth:`TelemetryBus.snapshot` which walks the
  registry once.  There is no emit path, no queue, and therefore no
  back-pressure or allocation on the simulator's hot paths.
* **Sim-cycle timestamps.**  Span events are stamped with the kernel's
  monotonic cycle counter, not host wall-clock, so event timelines are
  deterministic and replayable like everything else in the simulation.
* **Zero perturbation.**  Nothing in this module charges cycles or
  touches architectural state; reading a gauge calls a host-side
  callable that must itself be read-only.
* **Module-level no-op path.**  :data:`NULL_BUS` is falsy and hands out
  shared null scopes/instruments, so a disabled kernel carries exactly
  one ``if tel:`` branch per instrumented site (bounded at <<3% of the
  block-execution benchmark by ``tests/unit/test_telemetry.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable


class Counter:
    """A monotonically increasing count.

    Hot sites that pre-fetched the object may bump ``value`` directly;
    ``inc`` exists for call sites where clarity beats the attribute
    access saved.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.value}>"


class LabeledCounter:
    """A family of counts keyed by label (signal name, bail-out reason).

    Keys may be any hashable -- enums are fine and avoid building
    strings on hot paths; they are stringified only at snapshot time.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: dict[object, int] = {}

    def inc(self, label: object, n: int = 1) -> None:
        self.values[label] = self.values.get(label, 0) + n

    def get(self, label: object) -> int:
        return self.values.get(label, 0)

    def as_dict(self) -> dict[str, int]:
        return {_label_name(k): v for k, v in self.values.items()}


def _label_name(label: object) -> str:
    name = getattr(label, "name", None)  # enum members read naturally
    return name if isinstance(name, str) else str(label)


class Gauge:
    """A value sampled at snapshot time via a read-only callable.

    The pull model makes gauges free until observed: registering one
    costs a dict entry, and the producer never runs on the hot path.
    ``fn`` may return a scalar or a flat dict (merged as sub-keys).
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], object]) -> None:
        self.fn = fn

    def sample(self) -> object:
        return self.fn()


#: Span events retained per scope (oldest dropped first).  Events are a
#: debugging aid, not an accounting mechanism, so a bounded window keeps
#: memory flat on long runs.
EVENT_WINDOW = 1024


class Scope:
    """One layer's named registry of instruments.

    ``state`` is host-only scratch for producers that need memory across
    calls (e.g. the block engine's per-task quiescence mode tracking);
    it is never snapshotted.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: dict[str, Counter] = {}
        self._labeled: dict[str, LabeledCounter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._events: deque = deque(maxlen=EVENT_WINDOW)
        #: Events pushed out of the bounded window (surfaced in
        #: snapshots as ``events.dropped`` so truncation is never
        #: silent; see also the flight recorder's ``trace.ring.dropped``).
        self.events_dropped = 0
        self.state: dict = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def labeled(self, name: str) -> LabeledCounter:
        c = self._labeled.get(name)
        if c is None:
            c = self._labeled[name] = LabeledCounter()
        return c

    def gauge(self, name: str, fn: Callable[[], object]) -> Gauge:
        g = Gauge(fn)
        self._gauges[name] = g
        return g

    def event(self, name: str, cycles: int, **fields) -> None:
        """Record a structured span event stamped with a sim-cycle time."""
        if len(self._events) == EVENT_WINDOW:
            self.events_dropped += 1
        self._events.append((cycles, name, fields))

    def events(self) -> list[tuple[int, str, dict]]:
        return list(self._events)

    # -------------------------------------------------------- snapshot

    def snapshot_typed(self) -> dict[str, object]:
        """Snapshot preserving instrument *kinds*.

        The plain :meth:`snapshot` flattens counters and gauges into one
        namespace, which is right for rendering but loses the
        information a cross-run merge needs (counters sum, gauges take
        the last writer).  This form keeps them apart; see
        :func:`repro.telemetry.snapshot.merge_snapshots`.
        """
        counters = {n: c.value for n, c in self._counters.items()}
        if self.events_dropped:
            counters["events.dropped"] = self.events_dropped
        return {
            "counters": counters,
            "labeled": {n: lc.as_dict() for n, lc in self._labeled.items()},
            "gauges": {n: g.sample() for n, g in self._gauges.items()},
        }

    def snapshot(self) -> dict[str, object]:
        out: dict[str, object] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, lc in self._labeled.items():
            for label, v in sorted(lc.as_dict().items()):
                out[f"{name}.{label}"] = v
        for name, g in self._gauges.items():
            sampled = g.sample()
            if isinstance(sampled, dict):
                # An empty gauge name splices the dict into the scope
                # directly (used when a layer's stats fn is the gauge).
                for k, v in sampled.items():
                    out[f"{name}.{k}" if name else k] = v
            else:
                out[name] = sampled
        if self.events_dropped:
            out["events.dropped"] = self.events_dropped
        return out


class TelemetryBus:
    """The per-kernel instrument registry.

    ``kernel`` is optional so the bus is constructible standalone in
    tests; when present it supplies the sim-cycle clock for snapshots
    and span events.
    """

    enabled = True

    def __init__(self, kernel=None) -> None:
        self.kernel = kernel
        self._scopes: dict[str, Scope] = {}

    def __bool__(self) -> bool:
        return True

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
        """One coherent, JSON-ready view of every instrument.

        Pull-based: this is the only place gauges run, and it is the
        only cost telemetry adds outside the counter bumps themselves.
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


# ---------------------------------------------------------- no-op path


class _NullInstrument:
    """Shared sink for every disabled counter/gauge."""

    __slots__ = ()
    value = 0
    values: dict = {}

    def inc(self, *a, **k) -> None:
        pass

    def get(self, label: object) -> int:
        return 0

    def as_dict(self) -> dict:
        return {}

    def sample(self) -> int:
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class _NullScope:
    __slots__ = ()
    name = "null"
    state: dict = {}

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def labeled(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, fn) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def event(self, name: str, cycles: int, **fields) -> None:
        pass

    def events(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {}


_NULL_SCOPE = _NullScope()


class NullBus:
    """The module-level no-op bus.

    Falsy, so ``tel = kernel.telemetry`` followed by ``if tel:`` is the
    entire disabled-mode cost of a hot instrumentation site; code off
    the hot path may instead call straight through (every method is a
    cheap no-op returning a shared null instrument).
    """

    __slots__ = ()
    enabled = False
    kernel = None
    cycles = 0

    def __bool__(self) -> bool:
        return False

    def scope(self, name: str) -> _NullScope:
        return _NULL_SCOPE

    def scopes(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {"cycles": 0, "scopes": {}}

    def snapshot_typed(self) -> dict:
        return {"cycles": 0, "scopes": {}}


#: The one shared disabled bus: ``kernel.telemetry`` is this exact
#: object whenever ``KernelConfig.telemetry`` is off.
NULL_BUS = NullBus()
