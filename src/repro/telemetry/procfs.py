"""``/proc/fpspy/``: guest-visible introspection of the monitor.

Real FPSpy's observability surface is its log files; the reproduction
adds the other half of the analogy -- a ``/proc``-style tree of
synthetic read-only files in the simulated VFS, rendered on demand from
the kernel's telemetry bus.  Guest programs read them through the
ordinary ``read`` libc call (one ``libc_call`` charge, independent of
content, so introspection does not perturb the clock differently from
any other libc call), and host-side tools read them straight off
``kernel.vfs``.  The bus holds counts and gauges only; per-event detail
is the flight recorder's (``/proc/fpspy/trace``).

Files::

    /proc/fpspy/status         one-line-per-fact summary (text)
    /proc/fpspy/counters       flat "scope.key value" lines (text)
    /proc/fpspy/snapshot.json  the full snapshot (JSON)
    /proc/fpspy/trace          flight-recorder spans (KernelConfig.tracing)

Rendering is pull-based: nothing is materialized until a read, and the
renderers here are exactly what the ``repro telemetry`` CLI uses, so the
guest view and the CLI snapshot can never drift apart.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.telemetry.snapshot import derive_rates, flatten_snapshot

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.telemetry.bus import TelemetryBus

PROC_ROOT = "/proc/fpspy/"


def render_counters(bus: "TelemetryBus") -> str:
    """Flat ``scope.key value`` lines, sorted -- the canonical text form."""
    flat = flatten_snapshot(bus.snapshot())
    lines = [f"{key} {value:g}" for key, value in sorted(flat.items())]
    return "\n".join(lines) + "\n" if lines else ""


def render_snapshot_json(bus: "TelemetryBus") -> str:
    return json.dumps(bus.snapshot(), indent=2, sort_keys=True) + "\n"


def render_status(kernel: "Kernel") -> str:
    bus = kernel.telemetry
    flat = flatten_snapshot(bus.snapshot())
    lines = [
        "fpspy-telemetry enabled",
        f"cycles {kernel.cycles}",
        f"now_seconds {kernel.now_seconds:.9f}",
        f"processes {len(kernel.processes)}",
        f"scopes {len(bus.scopes())}",
    ]
    for name, rate in sorted(derive_rates(flat).items()):
        lines.append(f"{name} {rate:.6f}")
    return "\n".join(lines) + "\n"


def mount_proc(kernel: "Kernel") -> None:
    """Register the ``/proc/fpspy/`` providers on the kernel's VFS."""
    bus = kernel.telemetry
    vfs = kernel.vfs
    vfs.register_provider(PROC_ROOT + "status", lambda: render_status(kernel).encode())
    vfs.register_provider(PROC_ROOT + "counters", lambda: render_counters(bus).encode())
    vfs.register_provider(
        PROC_ROOT + "snapshot.json", lambda: render_snapshot_json(bus).encode()
    )


def mount_trace(kernel: "Kernel") -> None:
    """Register ``/proc/fpspy/trace`` (flight-recorder spans).

    Independent of :func:`mount_proc`: tracing can be on without the
    telemetry bus, and the renderer reads the recorder directly.
    """
    from repro.telemetry.tracing import render_trace_text

    kernel.vfs.register_provider(
        PROC_ROOT + "trace",
        lambda: render_trace_text(kernel.tracer).encode(),
    )
