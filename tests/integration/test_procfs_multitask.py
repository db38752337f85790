"""``/proc/fpspy/trace`` under concurrent tasks.

Three threads fault concurrently at distinct sites; the flight
recorder's ``fp_fault`` roots must attribute every fault to the task
that took it, keep global cycle order across the interleaving, and keep
each task's span tree self-contained.
"""

import pytest

from repro.fp.formats import float_to_bits64 as b64
from repro.fpspy import fpspy_env
from repro.guest.ops import IntWork, LibcCall
from repro.isa.instruction import CodeLayout, FPInstruction
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.signals import SiCode

N_THREADS = 3
FAULTS_PER_THREAD = 4


def _run(telemetry=True, tracing=True):
    """Main thread spawns two workers; all three raise DivideByZero at
    their own code site, interleaved by the scheduler."""
    layout = CodeLayout()
    sites = [layout.site("divsd") for _ in range(N_THREADS)]
    one, zero = b64(1.0), b64(0.0)

    def stream(site):
        for _ in range(FAULTS_PER_THREAD):
            yield FPInstruction(site, ((one, zero),))
            yield IntWork(20)
            yield IntWork(20)

    def worker(site):
        def gen():
            yield from stream(site)

        return gen

    def main():
        for site in sites[1:]:
            yield LibcCall("pthread_create", (worker(site), (), "w"))
        yield from stream(sites[0])

    # One yielded op costs one slice unit, so a tiny quantum preempts
    # each thread mid-chain and the three fault streams interleave.
    k = Kernel(KernelConfig(telemetry=telemetry, tracing=tracing, quantum=4))
    k.exec_process(main, env=fpspy_env("individual"), name="multi")
    k.run()
    return k, [s.address for s in sites]


@pytest.fixture(scope="module")
def run():
    return _run()


def _fault_roots(k):
    """``(cycles, tid, fields)`` of every ``fp_fault`` root line in
    ``/proc/fpspy/trace``, in file order."""
    roots = []
    for ln in k.vfs.read("/proc/fpspy/trace").decode().splitlines()[1:]:
        cycles, task, link, name, *detail = ln.split()
        if name == "fp_fault" and link.endswith("<-0"):
            fields = dict(f.split("=") for f in detail)
            roots.append((int(cycles), int(task.split(":")[1]), fields))
    return roots


class TestProcEvents:
    """Fault events as the guest sees them: the trace file's roots."""

    def test_per_task_attribution(self, run):
        k, site_addrs = run
        roots = _fault_roots(k)
        assert len(roots) == N_THREADS * FAULTS_PER_THREAD
        rip_by_tid = {}
        for _, tid, fields in roots:
            rip_by_tid.setdefault(tid, set()).add(int(fields["rip"]))
        # Three distinct tasks, each faulting only at its own site.
        assert len(rip_by_tid) == N_THREADS
        assert sorted(r for rips in rip_by_tid.values() for r in rips) == \
            sorted(site_addrs)
        assert all(len(rips) == 1 for rips in rip_by_tid.values())

    def test_interleaved_delivery_in_cycle_order(self, run):
        k, _ = run
        roots = _fault_roots(k)
        stamps = [c for c, _, _ in roots]
        assert stamps == sorted(stamps)
        # The scheduler interleaves the threads: the per-root tid
        # sequence must not be three contiguous runs.
        tids = [tid for _, tid, _ in roots]
        switches = sum(1 for a, b in zip(tids, tids[1:]) if a != b)
        assert switches > N_THREADS - 1

    def test_event_names_are_scoped(self, run):
        """Every root is a DivideByZero fault (si_code FPE_FLTDIV)."""
        k, _ = run
        assert {f["sicode"] for _, _, f in _fault_roots(k)} == {
            str(int(SiCode.FPE_FLTDIV))}


class TestProcTrace:
    def test_trees_are_task_local(self, run):
        """Every span in a tree carries the root's (pid, tid): one guest
        FP event never mixes tasks."""
        k, _ = run
        spans = k.tracer.spans()
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            if s.parent_id:
                root = s
                while root.parent_id:
                    root = by_id[root.parent_id]
                assert (s.pid, s.tid) == (root.pid, root.tid)

    def test_each_task_completes_its_trees(self, run):
        k, _ = run
        spans = k.tracer.spans()
        roots = [s for s in spans if s.parent_id == 0 and s.name == "fp_fault"]
        per_tid = {}
        for s in roots:
            per_tid[s.tid] = per_tid.get(s.tid, 0) + 1
        assert len(per_tid) == N_THREADS
        assert all(n == FAULTS_PER_THREAD for n in per_tid.values())
        assert k.tracer.trees_completed == len(roots)
        assert k.tracer.open_trees() == 0

    def test_trace_file_interleaves_tasks_in_cycle_order(self, run):
        k, _ = run
        lines = k.vfs.read("/proc/fpspy/trace").decode().splitlines()
        assert lines[0].startswith("# spans")
        stamps = [int(ln.split()[0]) for ln in lines[1:]]
        assert stamps == sorted(stamps)
        tasks = {ln.split()[1] for ln in lines[1:]}
        assert len(tasks) == N_THREADS
