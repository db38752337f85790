"""``repro.telemetry``: the cross-layer observability bus.

FPSpy's evaluation is about *observing the observer* -- event counts and
kinds, where monitoring time goes, how often each fast path engages --
and this package gives the reproduction the same first-class view of
itself.  It is deliberately zero-dependency (stdlib only) and strictly
*pull-based*: each layer keeps its own counts as plain ints and dicts,
always on, and registers read-only sources on the bus once; nothing is
named, serialized, or aggregated until someone asks for a
:meth:`~repro.telemetry.bus.TelemetryBus.snapshot`.

Two consumers sit on top of one :class:`~repro.telemetry.bus.TelemetryBus`
per kernel:

* :mod:`repro.telemetry.procfs` mounts a read-only ``/proc/fpspy/`` tree
  into the simulated VFS, so *guest* programs can introspect the monitor
  the way real FPSpy users read its log files;
* ``python -m repro.study telemetry`` dumps and diffs snapshots from the
  host side (``repro.telemetry.snapshot`` holds the flatten/diff logic).

The bus counts events, never host time.  Where the simulator's own
wall-clock goes is measured from outside, the way FPSpy observes an
unmodified program: ``telemetry run --profile`` wraps ``kernel.run()``
in ``cProfile`` and sums self time per ``repro/<layer>/`` package, and
``python -m bench --trace`` gives the paired-difference timings.

The cardinal rule is **zero perturbation**: no count and no source may
charge cycles, post signals, or touch architectural state, so traces and
cycle counts are byte-identical with telemetry on or off (enforced by
``tests/property/test_telemetry_props.py``).  Disabled, there is no
bus (``kernel.telemetry`` is ``None``) and no ``/proc/fpspy/`` counters;
the layers count exactly the same either way.
"""

from repro.telemetry.bus import Scope, TelemetryBus
from repro.telemetry.snapshot import (
    diff_snapshots,
    flatten_snapshot,
    merge_snapshots,
)
from repro.telemetry.tracing import (
    Span,
    TraceRecorder,
    from_chrome_json,
    to_chrome_json,
)

__all__ = [
    "Scope",
    "Span",
    "TelemetryBus",
    "TraceRecorder",
    "diff_snapshots",
    "flatten_snapshot",
    "from_chrome_json",
    "merge_snapshots",
    "to_chrome_json",
]
