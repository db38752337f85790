"""Unit tests for the telemetry bus, /proc tree, diffing, and overhead.

The bus's cardinal rule -- telemetry never perturbs architectural state
-- is proven property-style in ``tests/property/test_telemetry_props.py``;
here the scopes and their sources, the snapshot/diff machinery, the
``/proc/fpspy/`` renderers, the TraceWriter lifecycle, and the bound on
the always-on count bumps are covered directly.
"""

import json
import timeit

import pytest

from repro.fp.formats import float_to_bits64 as b64
from repro.fpspy import fpspy_env
from repro.guest.ops import IntWork, LibcCall
from repro.guest.program import KernelBuilder
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.vfs import VFS
from repro.kernel.signals import Signal
from repro.telemetry import (
    Scope,
    TelemetryBus,
    diff_snapshots,
    flatten_snapshot,
)
from repro.telemetry.procfs import PROC_ROOT, render_counters, render_status
from repro.telemetry.snapshot import derive_rates
from repro.trace.records import IndividualRecord
from repro.trace.writer import TraceWriter


# ---------------------------------------------------------------- sources


class TestInstruments:
    def test_counter(self):
        """A count is the owner's plain int, read when a snapshot is."""
        owner = {"n": 0}
        s = Scope("x")
        s.counts(lambda: {"a": owner["n"]})
        owner["n"] += 4
        assert s.snapshot() == {"a": 4}
        owner["n"] += 2
        assert s.snapshot() == {"a": 6}

    def test_labeled_counter_stringifies_enums_at_snapshot(self):
        """The CPU counts deliveries by raw signal number; the names
        exist only in the snapshot."""
        k = _storm_kernel()
        sigs = k.cpu.signals_delivered
        assert sigs[Signal.SIGFPE] == sigs[Signal.SIGTRAP] > 0
        kern = k.telemetry.snapshot()["scopes"]["kernel"]
        assert kern["signals.delivered.SIGFPE"] == sigs[Signal.SIGFPE]
        assert kern["signals.delivered.SIGTRAP"] == sigs[Signal.SIGTRAP]
        assert not any(key.endswith(".SIGUSR1") for key in kern)

    def test_scope_snapshot_flattens_labels_and_dict_gauges(self):
        s = Scope("x")
        s.counts(lambda: {"a": 2, "sig.SIGFPE": 3})
        s.counts(lambda: {"a": 5})  # a second owner: counts sum
        s.gauges(lambda: {"mem.hits": 1, "mem.misses": 2})
        s.gauges(lambda: {"mem.hits": 7})  # levels: the later one stands
        assert s.snapshot() == {
            "a": 7, "sig.SIGFPE": 3, "mem.hits": 7, "mem.misses": 2}
        assert s.snapshot_typed() == {
            "counts": {"a": 7, "sig.SIGFPE": 3},
            "gauges": {"mem.hits": 7, "mem.misses": 2},
        }

    def test_bus_snapshot_shape(self):
        bus = TelemetryBus()
        bus.scope("cpu").counts(lambda: {"steps": 7})
        snap = bus.snapshot()
        assert snap["cycles"] == 0
        assert snap["scopes"]["cpu"]["steps"] == 7
        # JSON-ready as promised.
        json.dumps(snap)


# --------------------------------------------------------- snapshot tools


def _snap(scopes):
    return {"cycles": 100, "scopes": scopes}


class TestSnapshotTools:
    def test_flatten_drops_non_numeric(self):
        flat = flatten_snapshot(
            _snap({"cpu": {"hits": 3, "name": "text", "ok": True,
                           "hist": {"total": 2}}})
        )
        assert flat == {"cycles": 100, "cpu.hits": 3, "cpu.hist.total": 2}

    def test_derive_rates(self):
        flat = {"cpu.trapfusion.fused": 9, "cpu.trapfusion.bailed": 1}
        assert derive_rates(flat) == {"cpu.trapfusion.fuse_rate": 0.9}
        # Absent counters or zero totals yield no rate at all.
        assert derive_rates({}) == {}
        assert derive_rates({"cpu.trapfusion.fused": 0,
                             "cpu.trapfusion.bailed": 0}) == {}

    def test_diff_ok_when_rates_hold(self):
        a = _snap({"cpu": {"trapfusion.fused": 90, "trapfusion.bailed": 10}})
        b = _snap({"cpu": {"trapfusion.fused": 88, "trapfusion.bailed": 12}})
        d = diff_snapshots(a, b)
        assert d.ok
        assert "ok" in d.render()

    def test_diff_flags_rate_regression(self):
        a = _snap({"cpu": {"trapfusion.fused": 90, "trapfusion.bailed": 10}})
        b = _snap({"cpu": {"trapfusion.fused": 50, "trapfusion.bailed": 50}})
        d = diff_snapshots(a, b, threshold=0.05)
        assert not d.ok
        assert "cpu.trapfusion.fuse_rate" in d.regressions
        assert "REGRESSION" in d.render()
        # A looser threshold accepts the same drop.
        assert diff_snapshots(a, b, threshold=0.5).ok

    def test_diff_tracks_changed_and_one_sided_keys(self):
        a = _snap({"cpu": {"x": 1, "gone": 5}})
        b = _snap({"cpu": {"x": 2, "new": 7}})
        d = diff_snapshots(a, b)
        assert d.changed["cpu.x"] == (1, 2)
        assert d.only_a == {"cpu.gone": 5}
        assert d.only_b == {"cpu.new": 7}


# ------------------------------------------------------------- /proc tree


def _storm_kernel(telemetry=True, n=48):
    kb = KernelBuilder()
    a = [b64(1.1 + (i % 7) * 0.3) for i in range(n)]
    b = [b64(0.7 + (i % 5) * 0.21) for i in range(n)]
    site = kb.site("mulpd")

    def main():
        yield from kb.emit(site, a, b, interleave=2)

    k = Kernel(KernelConfig(telemetry=telemetry))
    k.exec_process(main, env=fpspy_env("individual"), name="storm")
    k.run()
    return k


class TestProcFs:
    def test_proc_files_mounted_and_listed(self):
        k = _storm_kernel()
        names = k.vfs.listdir(PROC_ROOT)
        assert PROC_ROOT + "status" in names
        assert PROC_ROOT + "counters" in names
        assert PROC_ROOT + "snapshot.json" in names
        assert PROC_ROOT + "events" not in names

    def test_counters_file_matches_cli_snapshot(self):
        """The guest view and the CLI snapshot share one renderer, and
        the rendered counters agree with the flattened snapshot values."""
        k = _storm_kernel()
        text = k.vfs.read(PROC_ROOT + "counters").decode()
        assert text == render_counters(k.telemetry)
        flat = flatten_snapshot(k.telemetry.snapshot())
        for line in text.strip().splitlines():
            key, value = line.rsplit(" ", 1)
            assert float(value) == pytest.approx(float(flat[key]))

    def test_status_reports_rates(self):
        k = _storm_kernel()
        status = k.vfs.read(PROC_ROOT + "status").decode()
        assert status == render_status(k)
        assert f"cycles {k.cycles}" in status
        assert "cpu.trapfusion.fuse_rate" in status

    def test_snapshot_json_parses(self):
        k = _storm_kernel()
        snap = json.loads(k.vfs.read(PROC_ROOT + "snapshot.json"))
        assert snap["cycles"] == k.cycles
        assert "kernel" in snap["scopes"]

    def test_proc_absent_when_telemetry_disabled(self):
        k = _storm_kernel(telemetry=False)
        assert k.vfs.listdir(PROC_ROOT) == []
        assert k.telemetry is None

    def test_guest_reads_proc_through_libc(self):
        """A guest program introspects the monitor via the ordinary
        ``read`` call and sees live counter values."""
        kb = KernelBuilder()
        site = kb.site("mulpd")
        a = [b64(1.5)] * 16
        seen = {}

        def main():
            yield from kb.emit(site, a, a)
            seen["counters"] = yield LibcCall("read", (PROC_ROOT + "counters",))
            yield IntWork(1)

        k = Kernel(KernelConfig(telemetry=True))
        k.exec_process(main, env={}, name="introspect")
        k.run()
        text = seen["counters"].decode()
        flat = dict(
            line.rsplit(" ", 1) for line in text.strip().splitlines()
        )
        # Live values at read time: the block commits had already landed.
        assert float(flat["blockexec.fast_groups"]) > 0
        assert float(flat["kernel.sched.slices"]) >= 1


# ------------------------------------------------------ TraceWriter close


def _rec(seq=0):
    return IndividualRecord(
        seq=seq, time=0.0, rip=0x400000, rsp=0, mxcsr=0x1F80,
        sicode=6, codes=0x20, insn=b"\x0f",
    )


class TestTraceWriterClose:
    def test_close_drains_then_unhooks(self):
        vfs = VFS()
        w = TraceWriter(vfs, "trace/t.1.1.ind")
        w.append_individual(_rec())
        assert w.buffered_bytes > 0
        w.close()
        assert w.closed
        assert w.buffered_bytes == 0
        assert len(vfs.read("trace/t.1.1.ind")) == 64

    def test_double_close_is_idempotent(self):
        vfs = VFS()
        w = TraceWriter(vfs, "t")
        w.append_individual(_rec())
        w.close()
        appends = vfs.open("t").appends
        w.close()
        w.close()
        assert vfs.open("t").appends == appends

    def test_stale_close_does_not_clobber_new_writers_hook(self):
        """Close after the path was reopened: the newer writer keeps its
        sync hook, so readers still force its buffer out."""
        vfs = VFS()
        w1 = TraceWriter(vfs, "t")
        w2 = TraceWriter(vfs, "t")  # re-registers the path's sync hook
        w1.close()  # must NOT remove w2's registration
        w2.append_individual(_rec())  # stays buffered (< FLUSH_EVERY)
        data = vfs.read("t")  # read fires the sync hook
        assert len(data) == 64
        assert w2.sync_flushes == 1
        assert w1.sync_flushes == 0

    def test_sync_flush_counted_only_when_buffer_nonempty(self):
        vfs = VFS()
        w = TraceWriter(vfs, "t")
        vfs.read("t")  # nothing buffered: a no-op, not a forced drain
        assert w.sync_flushes == 0
        w.append_individual(_rec())
        vfs.read("t")
        assert w.sync_flushes == 1
        assert w.flushes == 1
        assert w.bytes_flushed == 64

    def test_trace_scope_sums_every_writer(self):
        """Per-thread writers are separate sources of one ``trace``
        scope: the snapshot reads their flush counts as one total."""
        vfs = VFS()
        bus = TelemetryBus()
        writers = [TraceWriter(vfs, f"t{i}", bus) for i in range(3)]
        for w in writers[:2]:
            w.append_individual(_rec())
            w.flush()
        assert bus.snapshot()["scopes"]["trace"] == {
            "flushes": 2, "sync_flushes": 0, "bytes_flushed": 128}

    def test_engine_closes_writers_on_teardown(self):
        k = _storm_kernel()
        proc = next(iter(k.processes.values()))
        engine = proc.loader.preloads[0].engine
        assert engine.monitors
        for mon in engine.monitors.values():
            assert mon.writer.closed


# ------------------------------------------------------------- memo stats


class TestMemoStats:
    def test_eviction_counting_and_occupancy(self):
        from repro.fp.memo import MemoSoftFPU
        from repro.fp.formats import BINARY64

        fpu = MemoSoftFPU(capacity=2)
        fpu.add(BINARY64, b64(1.0), b64(2.0))
        fpu.add(BINARY64, b64(1.0), b64(3.0))
        assert fpu.evictions == 0 and fpu.occupancy == 2
        fpu.add(BINARY64, b64(1.0), b64(4.0))  # third distinct key: evict
        assert fpu.evictions == 1
        assert fpu.occupancy == 2
        s = fpu.stats()
        assert s == {"hits": 0, "misses": 3, "evictions": 1,
                     "occupancy": 2, "capacity": 2}
        fpu.add(BINARY64, b64(1.0), b64(4.0))
        assert fpu.stats()["hits"] == 1


# ------------------------------------------------- always-on count bound


#: Timing statements for the hot paths' two count idioms: an attribute
#: bump (``self.fused += 1``) and a raw-key slot bump
#: (``signals_delivered[signo] += 1``).
BUMP_SETUP = """
class Owner:
    n = 0
o = Owner()
slots = [0] * 32
"""
BUMPS = ("o.n += 1", "slots[8] += 1")


class TestDisabledOverhead:
    def test_disabled_guard_overhead_below_3pct(self):
        """Tier-1 bound on the cost of the always-on counts.

        Every layer counts whether or not a bus reads the counts, so a
        count-free baseline cannot exist in one tree; the bound is
        extrapolated instead: time the hot paths' bump idioms (an
        attribute increment, a raw-key list-slot increment), multiply by
        a generous overcount of bumps (8 per CPU step, counted exactly
        by wrapping ``CPU.step`` on an identical untimed run), and
        divide by the telemetry-off run's wall time.  The A/B cost of
        the bus itself lives in ``benchmarks/test_telemetry_overhead.py``.
        """
        import time

        kb = KernelBuilder()
        n = 4096
        a = [b64(1.0 + (i % 11) * 0.25) for i in range(n)]
        site = kb.site("mulpd")

        def make_main():
            def main():
                yield from kb.emit(site, a, a, interleave=2)
            return main

        # Telemetry-off run: wall time of the thing we are bounding.
        k = Kernel(KernelConfig(telemetry=False))
        k.exec_process(make_main(), env={}, name="bench")
        t0 = time.perf_counter()
        k.run()
        wall = time.perf_counter() - t0
        assert k.telemetry is None

        # Identical untimed enabled run: exact CPU.step count.
        kp = Kernel(KernelConfig(telemetry=True))
        kp.exec_process(make_main(), env={}, name="bench")
        step = kp.cpu.step
        steps = 0

        def counted(task):
            nonlocal steps
            steps += 1
            return step(task)

        kp.cpu.step = counted
        kp.run()
        assert kp.cycles == k.cycles  # zero perturbation, while we're here

        # Marginal bump cost: subtract timeit's per-iteration loop
        # overhead (an empty statement), which would otherwise dwarf
        # the increment actually attributable to counting.
        reps = 200_000
        base = timeit.timeit("pass", number=reps) / reps
        per_bump = max(
            max(timeit.timeit(b, BUMP_SETUP, number=reps) / reps - base
                for b in BUMPS),
            1e-10)

        overhead = 8 * steps * per_bump / wall
        assert overhead <= 0.03, (
            f"always-on count overhead {overhead:.4%} exceeds 3% "
            f"({steps} steps, {per_bump * 1e9:.1f} ns/bump, "
            f"{wall * 1e3:.1f} ms wall)"
        )
