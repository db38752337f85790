"""Flight-recorder span trees, exports, and the ring buffer (DESIGN.md #10)."""

import json

import pytest

from repro.fp.formats import float_to_bits64 as b64
from repro.fpspy import fpspy_env
from repro.guest.program import KernelBuilder
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.signals import Signal
from repro.telemetry.tracing import (
    Span,
    from_chrome_json,
    render_trace_text,
    spans_from_binary,
    to_binary,
    to_chrome_json,
)


def _run_individual(n=6, trapfast=True, capacity=65536):
    """``n`` divide-by-zero faults under FPSpy individual mode."""
    kb = KernelBuilder()
    site = kb.site("divsd")
    a = [b64(1.0)] * n
    b = [b64(0.0)] * n

    def main():
        yield from kb.emit(site, a, b, interleave=2)

    k = Kernel(KernelConfig(
        tracing=True, trace_capacity=capacity, trapfast=trapfast))
    k.exec_process(main, env=fpspy_env("individual"), name="storm")
    k.run()
    return k


def _by_id(spans):
    return {s.span_id: s for s in spans}


def _ancestors(spans, sid):
    idx = _by_id(spans)
    out = []
    while sid and sid in idx:
        sid = idx[sid].parent_id
        if sid:
            out.append(sid)
    return out


class TestSpanTrees:
    def test_every_delivered_sigfpe_parents_its_lifecycle(self):
        """The acceptance shape: decode, emulate, and the single-step
        trap are all descendants of the delivered SIGFPE span."""
        k = _run_individual()
        spans = k.tracer.spans()
        delivered = [
            s for s in spans
            if s.name == "signal_delivered"
            and s.args["signo"] == int(Signal.SIGFPE)
        ]
        assert delivered, "no SIGFPE delivery recorded"
        for d in delivered:
            kids = {
                s.name for s in spans if d.span_id in _ancestors(spans, s.span_id)
            }
            assert {"handler", "decode", "emulate", "writeback",
                    "tf_trap"} <= kids

    def test_roots_are_fp_faults_and_trees_complete(self):
        k = _run_individual(n=5)
        spans = k.tracer.spans()
        # Roots are fp_fault trees plus the storm driver's per-batch
        # summary spans (which deliberately sit outside any tree).
        roots = [
            s for s in spans if s.parent_id == 0 and s.name != "storm"
        ]
        assert roots and all(s.name == "fp_fault" for s in roots)
        assert k.tracer.trees_completed == len(roots)
        assert k.tracer.open_trees() == 0

    def test_trapfast_and_precise_paths_agree_on_shape(self):
        fast = _run_individual(trapfast=True)
        slow = _run_individual(trapfast=False)

        def shape(k):
            # The storm summary spans exist only on the fast path (the
            # precise path has no batches to summarize); the per-event
            # trees themselves must agree.
            return sorted(
                (s.name, len(_ancestors(k.tracer.spans(), s.span_id)))
                for s in k.tracer.spans()
                if s.name != "storm"
            )

        assert shape(fast) == shape(slow)
        fused = [s for s in fast.tracer.spans() if s.name == "tf_trap"]
        assert fused and all(s.args["fused"] == 1 for s in fused)

    def test_span_cycles_monotone_within_tree(self):
        k = _run_individual()
        spans = k.tracer.spans()
        idx = _by_id(spans)
        for s in spans:
            if s.parent_id:
                assert s.cycles >= idx[s.parent_id].cycles


class TestExports:
    def test_chrome_export_roundtrips_the_run(self):
        k = _run_individual()
        spans = k.tracer.spans()
        assert from_chrome_json(to_chrome_json(spans)) == spans

    def test_chrome_export_is_valid_trace_event_json(self):
        k = _run_individual(n=2)
        doc = json.loads(to_chrome_json(k.tracer.spans()))
        assert doc["otherData"]["clock"] == "sim-cycles"
        for ev in doc["traceEvents"]:
            assert ev["ph"] == "X"
            assert ev["dur"] >= 1
            assert ev["ts"] == ev["args"]["cycles"]

    def test_chrome_durations_cover_subtrees(self):
        k = _run_individual(n=2)
        doc = json.loads(to_chrome_json(k.tracer.spans()))
        by_id = {ev["args"]["span_id"]: ev for ev in doc["traceEvents"]}
        for ev in doc["traceEvents"]:
            parent = ev["args"]["parent_id"]
            if parent:
                p = by_id[parent]
                assert p["ts"] + p["dur"] >= ev["ts"]

    def test_binary_roundtrip_keeps_tree_and_stamps(self):
        k = _run_individual(n=3)
        spans = k.tracer.spans()
        back = spans_from_binary(to_binary(spans))
        assert [
            (s.span_id, s.parent_id, s.name, s.cycles, s.pid, s.tid)
            for s in back
        ] == [
            (s.span_id, s.parent_id, s.name, s.cycles, s.pid, s.tid)
            for s in spans
        ]
        # Short integer args survive the fixed-width field.
        for orig, rt in zip(spans, back):
            if orig.name == "tf_trap":
                assert rt.args["fused"] == orig.args["fused"]

    def test_proc_trace_file(self):
        k = _run_individual(n=2)
        text = k.vfs.read("/proc/fpspy/trace").decode()
        head = text.splitlines()[0]
        assert head.startswith("# spans ")
        assert "dropped 0" in head
        assert f"spans {k.tracer.recorded}" in head
        assert len(text.splitlines()) == 1 + len(k.tracer.spans())


class TestRingBuffer:
    def test_overflow_drops_oldest_and_counts(self):
        k = _run_individual(n=24, capacity=16)
        tr = k.tracer
        assert len(tr.spans()) == 16
        assert tr.dropped > 0
        assert tr.recorded == tr.dropped + 16
        # Oldest dropped: surviving ids are the final window.
        ids = [s.span_id for s in tr.spans()]
        assert ids == sorted(ids)
        assert ids[0] == tr.recorded - 15

    def test_drop_counter_rides_the_telemetry_bus(self):
        kb = KernelBuilder()
        site = kb.site("divsd")

        def main():
            yield from kb.emit(site, [b64(1.0)] * 24, [b64(0.0)] * 24)

        k = Kernel(KernelConfig(tracing=True, trace_capacity=16,
                                telemetry=True))
        k.exec_process(main, env=fpspy_env("individual"), name="storm")
        k.run()
        snap = k.telemetry.snapshot()["scopes"]
        assert snap["trace"]["ring.dropped"] == k.tracer.dropped > 0
        assert snap["trace"]["spans"] == k.tracer.recorded
        counters = k.vfs.read("/proc/fpspy/counters").decode()
        assert "trace.ring.dropped" in counters


class TestTracingOff:
    def test_disabled_kernel_has_no_proc_trace(self):
        k = Kernel()
        assert k.tracer is None
        assert k.provenance is None
        with pytest.raises(FileNotFoundError):
            k.vfs.read("/proc/fpspy/trace")


class TestRenderText:
    def test_lines_sorted_by_cycle(self):
        k = _run_individual(n=3)
        lines = render_trace_text(k.tracer).splitlines()[1:]
        stamps = [int(ln.split()[0]) for ln in lines]
        assert stamps == sorted(stamps)

    def test_empty_recorder_renders_header_only(self):
        from repro.telemetry.tracing import TraceRecorder

        text = render_trace_text(TraceRecorder())
        assert text.startswith("# spans 0 dropped 0 trees 0 open 0")
