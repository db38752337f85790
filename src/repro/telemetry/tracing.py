"""The trap-lifecycle flight recorder: packed ring and tail sampling.

Every FP trap the simulated machine takes is a short causal story --
fault raised (CPU, pre-writeback), signal queued, signal delivered
(kernel, mcontext snapshot), handler entry (FPSpy engine), decode,
emulate/memo-hit, writeback, TF single-step trap, re-mask/re-arm -- and
this module records that story as a linked chain of cycle-stamped spans
with parent/child IDs, so one guest FP event is one causal tree
(DESIGN.md decisions #10 and #12).

Two layers make it cheap enough to leave on in production:

* **Packed span ring.**  The hot path never builds a Python
  :class:`Span` object.  Spans are staged as fixed-shape tuples on the
  task's open tree and, if the tree is retained, packed as fixed-width
  80-byte records (``struct`` ``<10Q``) into a preallocated
  ``bytearray`` ring.  Tree assembly back into :class:`Span` objects is
  deferred to export time (:meth:`TraceRecorder.spans`).
* **Tail-based sampling.**  A tree is classified when it *completes*
  (NSan/Herbgrind-style): trees that touch a NaN/Inf/denorm provenance
  origin or kill site, a trap-fusion bail-out, or a signal-disposition
  change are always retained; the boring population is sampled
  deterministically (seeded ``random.Random``, one draw per boring
  tree) at 1-in-``period``; ``period`` 1 keeps every tree without a
  draw.  Storm/chunk summary spans and orphan spans commit directly and
  are always retained.  The period is fixed for the recorder's life:
  ring pressure is counted (``spans_dropped``,
  ``interesting_trees_dropped``), never fed back into the rate.

Design rules carried over from the original recorder (decision #10):
sim-cycle stamps only; zero guest perturbation (retention decisions are
host-side and never consume guest entropy -- byte-identity is property
tested with the sampler enabled); bounded and never silent (overwrites
are counted overall *and* for interesting trees specifically); no
recorder at all when disabled (``kernel.tracer`` is ``None``), so hook
sites pay one prefetched ``is not None`` test.

Exports: Chrome trace-event JSON (loads in ``chrome://tracing`` and
Perfetto; :func:`to_chrome_json` / :func:`from_chrome_json` round-trip),
packed binary via the :mod:`repro.trace.records` span-record layout, and
a text rendering mounted at ``/proc/fpspy/trace``.  Retained roots carry
a ``keep=<class>`` arg naming why their tree survived, so exported
traces are self-describing for ``repro.study trace stats``.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.kernel.signals import EFLAGS_TF, TRAP_TRACE_CODE, Signal

# Retention-class bits live in the dependency-free record layer (part
# of the archival vocabulary) and are re-exported here for the
# recorder's callers; ``repro.fp.provenance`` imports them from
# :mod:`repro.trace.records` directly to stay out of this module's
# kernel-facing import cycle.
from repro.trace.records import (
    CLS_BAILOUT,
    CLS_DISPOSITION,
    CLS_ORIGIN,
    CLS_OVERFLOW,
    CLS_SAMPLED,
    CLS_SINK,
    CLS_SUMMARY,
    INTERESTING_MASK,
    cls_label,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task

#: Default ring capacity in spans: generous for whole-app individual-mode
#: runs while bounding memory on trap storms (drops are counted, not
#: silent).
DEFAULT_CAPACITY = 65536

#: Default boring-tree sample period (1-in-N retained).
DEFAULT_SAMPLE = 64

#: Staged spans per open tree before it is force-completed (class
#: ``overflow``).  Ordinary lifecycle trees are ~14 spans; only a guest
#: handler that never closes the Figure 5 cycle can grow one unboundedly.
STAGE_CAP = 512

# --------------------------------------------------------- encodings

#: Span name table; the staged/packed name code indexes into this.
_NAMES = (
    "fp_fault", "signal_queued", "signal_delivered", "handler", "decode",
    "record", "handler_ret", "rearm", "emulate", "writeback", "tf_trap",
    "block_chunk", "storm",
)
(_N_FP_FAULT, _N_SIGNAL_QUEUED, _N_SIGNAL_DELIVERED, _N_HANDLER, _N_DECODE,
 _N_RECORD, _N_HANDLER_RET, _N_REARM, _N_EMULATE, _N_WRITEBACK, _N_TF_TRAP,
 _N_BLOCK_CHUNK, _N_STORM) = range(len(_NAMES))



#: One packed ring record: span_id, parent_id, codeword
#: (name | variant << 8), cycles, six argument words.
_RING = struct.Struct("<10Q")
_REC = _RING.size
assert _REC == 80

_SIGFPE = int(Signal.SIGFPE)

#: Per-task open-tree state list indices (a list, not a dict/dataclass:
#: the stamp path indexes it).
_ROOT, _ANCHOR, _DELIVERED, _HANDLER, _BUF, _MARK, _PID, _TID = range(8)

#: Placeholder slot metadata before a slot is first written.
_EMPTY_SLOT = (0, 0, 0, False)


@dataclass(frozen=True)
class Span:
    """One cycle-stamped node of a trap-lifecycle tree.

    ``parent_id == 0`` marks a tree root.  ``args`` carries only
    JSON-safe scalars (ints and strings) so every export format can
    round-trip it.  Only built at export time; the recording hot path
    stages tuples and packs fixed-width records.
    """

    span_id: int
    parent_id: int
    name: str
    cycles: int
    pid: int
    tid: int
    args: dict = field(default_factory=dict)


class TraceRecorder:
    """The per-kernel flight recorder.

    Call sites are semantic lifecycle hooks (``fp_fault``,
    ``signal_delivered``, ``handler_entry``, ...); the recorder owns the
    per-task state machine that turns them into a parented span tree, so
    the machine/kernel/engine layers never track span IDs themselves.
    ``note_*`` hooks mark the open tree's retention class (provenance
    origins/sinks, fusion bail-outs, disposition changes).

    The causal shape of one individual-mode FP event::

        fp_fault                     (root: CPU raises the precise fault)
        +- signal_queued             (kernel queues SIGFPE)
        +- signal_delivered SIGFPE   (kernel crossing, mcontext snapshot)
           +- handler sigfpe         (FPSpy engine entry)
           |  +- decode              (instruction bytes -> form)
           |  +- record              (trace record appended)
           |  +- handler_ret
           +- emulate                (masked re-execution; memo_hit flag)
           +- writeback              (results retire)
           +- tf_trap               (TF single-step trap; fused flag)
           +- signal_delivered SIGTRAP
              +- handler sigtrap
                 +- rearm            (unmask capture set, clear TF)
                 +- handler_ret      (tree completes; tail classifier
                                      decides retain/discard here)
    """

    enabled = True

    def __init__(
        self,
        kernel: "Kernel | None" = None,
        capacity: int = DEFAULT_CAPACITY,
        telemetry=None,
        sample: int = DEFAULT_SAMPLE,
        seed: int = 0,
    ) -> None:
        self.kernel = kernel
        self.capacity = max(16, int(capacity))
        # Ring storage grows geometrically up to capacity so a huge
        # configured capacity costs nothing until spans actually commit.
        self._alloc = min(self.capacity, 1024)
        self._ring = bytearray(self._alloc * _REC)
        #: Per-slot ``(class, pid, tid, is_root)`` tree metadata; one
        #: shared tuple per committed tree, not one object per span.
        self._slots: list[tuple] = [_EMPTY_SLOT] * self._alloc
        self._committed = 0
        self._next_id = 1
        self._live: dict = {}
        self._pending: dict = {}  #: task -> class bits for its next tree
        self._strs: list[str] = []
        self._str_ids: dict[str, int] = {}
        self._insn_cache: dict[bytes, tuple] = {}
        #: Lazily interned (sigfpe, sigtrap, mask+tf, rearm) string ids
        #: for the storm replicator's constant span args.
        self._storm_strids: tuple | None = None

        # Tail-sampling state.
        self._period = max(1, int(sample))
        self._seed = int(seed)
        self._rng = random.Random(self._seed)

        self.recorded = 0
        self.dropped = 0
        self.trees_completed = 0
        self.trees_retained_interesting = 0
        self.trees_retained_boring = 0
        self.trees_discarded = 0
        self.interesting_trees_dropped = 0
        if telemetry is not None:
            self._register_telemetry(telemetry.scope("trace"))

    def _register_telemetry(self, scope) -> None:
        """Read the ring/retention counts into a telemetry ``scope``, so
        truncated or sampled traces are never silent."""
        scope.counts(lambda: {
            # Spans of still-open trees are staged, not yet counted.
            "spans": self.recorded - sum(
                len(st[_BUF]) for st in self._live.values()),
            "ring.dropped": self.dropped,
            "ring.dropped_interesting": self.interesting_trees_dropped,
            "trees.completed": self.trees_completed,
            "trees.retained.interesting": self.trees_retained_interesting,
            "trees.retained.boring": self.trees_retained_boring,
            "trees.discarded": self.trees_discarded,
        })
        scope.gauges(lambda: {
            "ring.size": min(self._committed, self.capacity),
            "ring.capacity": self.capacity,
            "trees.open": len(self._live),
        })

    @property
    def cycles(self) -> int:
        return self.kernel.cycles if self.kernel is not None else 0

    # --------------------------------------------------- retention marks

    def note_mark(self, task: "Task", bits: int) -> None:
        """Mark this task's open tree with retention-class ``bits``
        (``CLS_ORIGIN`` / ``CLS_SINK`` from the provenance tracker)."""
        st = self._live.get(task)
        if st is not None:
            st[_MARK] |= bits

    def note_bailout(self, task: "Task") -> None:
        """Trap fusion bailed out during this tree's lifecycle."""
        st = self._live.get(task)
        if st is not None:
            st[_MARK] |= CLS_BAILOUT
        elif task is not None:
            self._pending[task] = self._pending.get(task, 0) | CLS_BAILOUT

    def note_disposition(self, task: "Task") -> None:
        """A signal disposition changed (guest sigaction, monitor
        disarm, step-aside).  Marks the open tree, else the task's next
        tree."""
        if task is None:
            return
        st = self._live.get(task)
        if st is not None:
            st[_MARK] |= CLS_DISPOSITION
        else:
            self._pending[task] = self._pending.get(task, 0) | CLS_DISPOSITION

    # ----------------------------------------------------------- stamping

    def _str_id(self, s: str) -> int:
        i = self._str_ids.get(s)
        if i is None:
            i = len(self._strs)
            self._strs.append(s)
            self._str_ids[s] = i
        return i

    def fp_fault(self, task: "Task", rip: int, sicode: int, flags: int) -> None:
        """The CPU raised a precise FP fault (pre-writeback) and queued
        its SIGFPE.  Opens this task's trap tree (or stamps a nested
        fault if one is already open)."""
        k = self.kernel
        c = k.cycles if k is not None else 0
        sid = self._next_id
        st = self._live.get(task)
        if st is None:
            self._next_id = sid + 2
            self._live[task] = [
                sid, sid, 0, 0,
                [(sid, 0, _N_FP_FAULT, c, rip, sicode, flags, 0, 0, 0),
                 (sid + 1, sid, _N_SIGNAL_QUEUED, c, _SIGFPE, 0, 0, 0, 0, 0)],
                self._pending.pop(task, 0) if self._pending else 0,
                task.process.pid, task.tid,
            ]
        else:
            buf = st[_BUF]
            if len(buf) >= STAGE_CAP:
                # A guest handler that never closes the cycle would grow
                # this tree without bound: force-complete it (always
                # retained, class "overflow") and open a fresh one.
                st[_MARK] |= CLS_OVERFLOW
                self._finish(task, st)
                return self.fp_fault(task, rip, sicode, flags)
            self._next_id = sid + 2
            buf.append((sid, st[_ANCHOR], _N_FP_FAULT, c, rip, sicode, flags,
                        0, 0, 0))
            buf.append((sid + 1, st[_ROOT], _N_SIGNAL_QUEUED, c, _SIGFPE,
                        0, 0, 0, 0, 0))
        self.recorded += 2

    def signal_delivered(self, task: "Task", signo, code: int, mctx) -> None:
        """The kernel is crossing into a user handler; ``mctx`` is the
        exact mcontext snapshot the handler will see."""
        k = self.kernel
        c = k.cycles if k is not None else 0
        sid = self._next_id
        self._next_id = sid + 1
        self.recorded += 1
        st = self._live.get(task)
        t = (sid, st[_ANCHOR] if st is not None else 0, _N_SIGNAL_DELIVERED,
             c, int(signo), int(code), mctx.rip, mctx.rsp, mctx.eflags,
             mctx.mxcsr)
        if st is None:
            self._commit_one(t, task.process.pid, task.tid)
            return
        st[_BUF].append(t)
        st[_DELIVERED] = sid
        if signo == Signal.SIGFPE:
            # Everything after a delivered SIGFPE -- handler, masked
            # re-execution, single-step trap -- is causally its child.
            st[_ANCHOR] = sid

    def handler_entry(self, task: "Task", kind: str, rip: int = 0) -> None:
        k = self.kernel
        c = k.cycles if k is not None else 0
        sid = self._next_id
        self._next_id = sid + 1
        self.recorded += 1
        kid = self._str_id(kind)
        st = self._live.get(task)
        if st is None:
            self._commit_one((sid, 0, _N_HANDLER, c, kid, rip, 0, 0, 0, 0),
                             task.process.pid, task.tid)
            return
        st[_BUF].append((sid, st[_DELIVERED] or st[_ANCHOR], _N_HANDLER, c,
                         kid, rip, 0, 0, 0, 0))
        st[_HANDLER] = sid

    def decode(self, task: "Task", rip: int, insn: bytes) -> None:
        st = self._live.get(task)
        if st is None:
            return
        enc = self._insn_cache.get(insn)
        if enc is None:
            enc = (int.from_bytes(insn[:8], "little"),
                   int.from_bytes(insn[8:16], "little"), min(len(insn), 16))
            if len(self._insn_cache) < 4096:
                self._insn_cache[insn] = enc
        k = self.kernel
        c = k.cycles if k is not None else 0
        sid = self._next_id
        self._next_id = sid + 1
        self.recorded += 1
        st[_BUF].append((sid, st[_HANDLER] or st[_ANCHOR], _N_DECODE, c,
                         rip, enc[0], enc[1], enc[2], 0, 0))

    def record(self, task: "Task", seq: int) -> None:
        st = self._live.get(task)
        if st is None:
            return
        k = self.kernel
        c = k.cycles if k is not None else 0
        sid = self._next_id
        self._next_id = sid + 1
        self.recorded += 1
        st[_BUF].append((sid, st[_HANDLER] or st[_ANCHOR], _N_RECORD, c,
                         seq, 0, 0, 0, 0, 0))

    def handler_exit(self, task: "Task", kind: str, action: str) -> None:
        st = self._live.get(task)
        if st is None:
            return
        k = self.kernel
        c = k.cycles if k is not None else 0
        sid = self._next_id
        self._next_id = sid + 1
        self.recorded += 1
        st[_BUF].append((sid, st[_HANDLER] or st[_ANCHOR], _N_HANDLER_RET, c,
                         self._str_id(kind), self._str_id(action), 0, 0, 0, 0))
        st[_HANDLER] = 0
        if kind == "sigtrap":
            # Re-mask/re-arm done: the Figure 5 cycle is closed.
            self._finish(task, st)

    def rearm(self, task: "Task", mxcsr: int, tf: bool) -> None:
        st = self._live.get(task)
        if st is None:
            return
        k = self.kernel
        c = k.cycles if k is not None else 0
        sid = self._next_id
        self._next_id = sid + 1
        self.recorded += 1
        st[_BUF].append((sid, st[_HANDLER] or st[_ANCHOR], _N_REARM, c,
                         mxcsr, int(tf), 0, 0, 0, 0))

    def fp_retired(self, task: "Task", rip: int, memo_hit) -> None:
        """The faulting instruction re-executed (masked) and retired.
        No-op unless this task has an open trap tree, so the CPU may
        call it on every FP retirement."""
        st = self._live.get(task)
        if st is None:
            return
        k = self.kernel
        c = k.cycles if k is not None else 0
        sid = self._next_id
        self._next_id = sid + 2
        self.recorded += 2
        a = st[_ANCHOR]
        code = _N_EMULATE if memo_hit is None else (
            _N_EMULATE | ((2 if memo_hit else 1) << 8))
        buf = st[_BUF]
        buf.append((sid, a, code, c, rip, 0, 0, 0, 0, 0))
        buf.append((sid + 1, a, _N_WRITEBACK, c, rip, 0, 0, 0, 0, 0))
        if not task.trap_flag:
            # No single-step trap will follow (handler disarmed or the
            # app's handler never set TF): the tree ends at writeback.
            self._finish(task, st)

    def emulated(self, task: "Task", rip: int) -> None:
        """A handler supplied ``emulated_results``: trap-and-emulate
        retirement without re-execution."""
        st = self._live.get(task)
        if st is None:
            return
        k = self.kernel
        c = k.cycles if k is not None else 0
        sid = self._next_id
        self._next_id = sid + 2
        self.recorded += 2
        a = st[_ANCHOR]
        buf = st[_BUF]
        buf.append((sid, a, _N_EMULATE | (3 << 8), c, rip, 0, 0, 0, 0, 0))
        buf.append((sid + 1, a, _N_WRITEBACK, c, rip, 0, 0, 0, 0, 0))
        if not task.trap_flag:
            self._finish(task, st)

    def trap_queued(self, task: "Task", fused: bool) -> None:
        """The TF single-step trap was raised (posted, or fused inline)."""
        k = self.kernel
        c = k.cycles if k is not None else 0
        sid = self._next_id
        self._next_id = sid + 1
        self.recorded += 1
        st = self._live.get(task)
        t = (sid, st[_ANCHOR] if st is not None else 0, _N_TF_TRAP, c,
             int(fused), 0, 0, 0, 0, 0)
        if st is None:
            self._commit_one(t, task.process.pid, task.tid)
        else:
            st[_BUF].append(t)

    def chunk(self, task: "Task", rip: int, groups: int) -> None:
        """Coarse span for one vectorized quiescent block chunk: the
        fast path stamps the batch, never per-instruction detail."""
        k = self.kernel
        c = k.cycles if k is not None else 0
        sid = self._next_id
        self._next_id = sid + 1
        self.recorded += 1
        self._commit_one((sid, 0, _N_BLOCK_CHUNK, c, rip, groups, 0, 0, 0, 0),
                         task.process.pid, task.tid)

    def storm(self, task: "Task", rip: int, groups: int, recorded: int) -> None:
        """Summary span for one storm batch (DESIGN.md #11).  Stamped in
        *addition* to the per-event lifecycle trees the storm driver
        replicates, so batching never under-counts: readers see every
        fp_fault/handler/tf_trap tree plus one storm root naming the
        batch that produced them.  Always retained (class summary)."""
        k = self.kernel
        c = k.cycles if k is not None else 0
        sid = self._next_id
        self._next_id = sid + 1
        self.recorded += 1
        self._commit_one(
            (sid, 0, _N_STORM, c, rip, groups, recorded, 0, 0, 0),
            task.process.pid, task.tid)

    def replicate_trees(
        self,
        task: "Task",
        rip: int,
        end_rip: int,
        insn: bytes,
        rsp: int,
        base: int,
        masked_base: int,
        sic,
        pend,
        codes,
        rec: list,
        seq0: int,
        c0: int,
        costs: tuple,
        marks: list,
    ) -> None:
        """Bulk stamp-for-stamp replication of a storm batch's trap trees.

        The storm driver (DESIGN.md #11) replays ``k = len(rec)``
        whole Figure 5 lifecycles; calling the 14 lifecycle hooks per
        event would dominate the batch.  This method produces the exact
        same spans -- identical names, parents, cycle stamps, and args
        as the per-event path (property-tested by
        ``tests/property/test_storm_props.py``) -- in one pass, and
        crucially *classifies before materializing*: a boring tree the
        tail sampler discards costs one RNG draw and a few counter
        bumps, never 14 tuples.

        ``costs`` is ``(fault, deliver, handler_user, trace_append,
        sigreturn, fp_instr, group_cost)``; event ``j`` starts at ``c0
        + j * group_cost`` plus one trace-append per earlier recorded
        event, reconstructed only for retained trees.  ``marks[j]``
        carries the provenance bits
        :meth:`repro.fp.provenance.ProvenanceTracker.observe` returned
        for the event (no tree is open during replication, so marks
        travel by value instead of through ``note_mark``).  ``sic``,
        ``pend``, ``codes``, ``rec`` and ``marks`` are per-event
        sequences (the storm driver passes plain lists); the first
        three are indexed only for retained trees.
        """
        fault_c, deliv_c, huser_c, tapp_c, ret_c, fp_c, group_cost = costs
        pid = task.process.pid
        tid = task.tid
        ids = self._storm_strids
        if ids is None:
            # Interned lazily on first use (not in __init__) so the
            # string-table order matches a per-event-only run.
            ids = self._storm_strids = (
                self._str_id("sigfpe"), self._str_id("sigtrap"),
                self._str_id("mask+tf"), self._str_id("rearm"),
            )
        kid_fpe, kid_trap, aid_mask, aid_rearm = ids
        enc = self._insn_cache.get(insn)
        if enc is None:
            enc = (int.from_bytes(insn[:8], "little"),
                   int.from_bytes(insn[8:16], "little"), min(len(insn), 16))
            if len(self._insn_cache) < 4096:
                self._insn_cache[insn] = enc
        sigtrap = int(Signal.SIGTRAP)
        pending = self._pending.pop(task, 0) if self._pending else 0
        if pending:
            marks[0] |= pending
        k = len(rec)
        ret_i = ret_b = disc = 0
        period = self._period
        draw = self._rng.random
        nid0 = self._next_id

        def build(j, sid, has_rec, nrb, cls):
            # One Figure 5 tree, stamp-for-stamp the per-event path's
            # spans (ids, parents, cycles, args).  ``nrb`` is the count
            # of recorded events before event ``j``; it fixes both the
            # record sequence number and the start cycle (each earlier
            # recorded event stretched its group by one trace append).
            code_j = codes[j]
            sic_j = sic[j]
            c_fault = c0 + group_cost * j + tapp_c * nrb + fault_c
            c_sd1 = c_fault + deliv_c
            c_hret = c_sd1 + huser_c + (tapp_c if has_rec else 0)
            c_em = c_hret + ret_c + fp_c
            c_tf = c_em + fault_c
            c_sd2 = c_tf + deliv_c
            c_h2 = c_sd2 + huser_c
            buf = [
                (sid, 0, _N_FP_FAULT, c_fault, rip, sic_j, pend[j],
                 0, 0, 0),
                (sid + 1, sid, _N_SIGNAL_QUEUED, c_fault, _SIGFPE,
                 0, 0, 0, 0, 0),
                (sid + 2, sid, _N_SIGNAL_DELIVERED, c_sd1, _SIGFPE,
                 sic_j, rip, rsp, 0, base | code_j),
                (sid + 3, sid + 2, _N_HANDLER, c_sd1, kid_fpe, rip,
                 0, 0, 0, 0),
                (sid + 4, sid + 3, _N_DECODE, c_sd1, rip, enc[0],
                 enc[1], enc[2], 0, 0),
            ]
            p = sid + 5
            if has_rec:
                buf.append((p, sid + 3, _N_RECORD, c_hret, seq0 + nrb,
                            0, 0, 0, 0, 0))
                p += 1
            buf.append((p, sid + 3, _N_HANDLER_RET, c_hret, kid_fpe,
                        aid_mask, 0, 0, 0, 0))
            buf.append((p + 1, sid + 2, _N_EMULATE, c_em, rip,
                        0, 0, 0, 0, 0))
            buf.append((p + 2, sid + 2, _N_WRITEBACK, c_em, rip,
                        0, 0, 0, 0, 0))
            buf.append((p + 3, sid + 2, _N_TF_TRAP, c_tf, 1,
                        0, 0, 0, 0, 0))
            buf.append((p + 4, sid + 2, _N_SIGNAL_DELIVERED, c_sd2,
                        sigtrap, TRAP_TRACE_CODE, end_rip, rsp,
                        EFLAGS_TF, masked_base | code_j))
            buf.append((p + 5, p + 4, _N_HANDLER, c_sd2, kid_trap,
                        end_rip, 0, 0, 0, 0))
            buf.append((p + 6, p + 5, _N_REARM, c_h2, base, 0,
                        0, 0, 0, 0))
            buf.append((p + 7, p + 5, _N_HANDLER_RET, c_h2, kid_trap,
                        aid_rearm, 0, 0, 0, 0))
            self._commit_tree(buf, cls, pid, tid)

        # Steady-state fast path: every tree in the batch is boring and
        # the ring cannot wrap inside the batch.  Under those conditions
        # the per-tree loop collapses to k ordered RNG draws (identical
        # consumption to the slow path) plus counter arithmetic.
        # Retained sampled trees -- one in `period` -- still materialize
        # exactly.
        if (
            period > 1
            and not any(marks)
            and self._committed + 14 * k <= self.capacity
        ):
            sampled = [j for j in range(k) if draw() * period < 1.0]
            nr = sum(rec)
            nid = nid0 + 13 * k + nr
            for j in sampled:
                nrb = sum(rec[:j])
                build(j, nid0 + 13 * j + nrb, rec[j], nrb, CLS_SAMPLED)
            ret_b = len(sampled)
            disc = k - ret_b
        else:
            seq = seq0
            nid = nid0
            for j in range(k):
                has_rec = rec[j]
                sid = nid
                nid = sid + (14 if has_rec else 13)
                nrb = seq - seq0
                if has_rec:
                    seq += 1
                mark = marks[j]
                if mark:
                    cls = mark
                    ret_i += 1
                elif period <= 1 or draw() * period < 1.0:
                    cls = CLS_SAMPLED
                    ret_b += 1
                else:
                    cls = 0
                    disc += 1
                if cls:
                    build(j, sid, has_rec, nrb, cls)
        self._next_id = nid
        self.recorded += nid - nid0
        self.trees_completed += k
        self.trees_retained_interesting += ret_i
        self.trees_retained_boring += ret_b
        self.trees_discarded += disc

    # -------------------------------------------- completion + retention

    def _finish(self, task: "Task", st: list) -> None:
        """Classify a completed tree and retain or discard it."""
        del self._live[task]
        self.trees_completed += 1
        buf = st[_BUF]
        mark = st[_MARK]
        if mark:
            cls = mark
            self.trees_retained_interesting += 1
        elif self._period <= 1 or self._rng.random() * self._period < 1.0:
            cls = CLS_SAMPLED
            self.trees_retained_boring += 1
        else:
            cls = 0
            self.trees_discarded += 1
        if cls:
            self._commit_tree(buf, cls, st[_PID], st[_TID])

    # ------------------------------------------------------- packed ring

    def _grow(self, need: int) -> None:
        new = min(self.capacity, max(self._alloc * 2, need + 1))
        self._ring.extend(bytes((new - self._alloc) * _REC))
        self._slots.extend([_EMPTY_SLOT] * (new - self._alloc))
        self._alloc = new

    def _commit_tree(self, buf: list, cls: int, pid: int, tid: int) -> None:
        cap = self.capacity
        n = self._committed
        slots = self._slots
        pk = _RING.pack_into
        cur = (cls, pid, tid, True)  # first staged span is the root
        rest = (cls, pid, tid, False)
        for t in buf:
            i = n % cap
            if n >= cap:
                old = slots[i]
                self.dropped += 1
                if old[3] and old[0] & INTERESTING_MASK:
                    self.interesting_trees_dropped += 1
            elif i >= self._alloc:
                self._grow(i)
            pk(self._ring, i * _REC, *t)
            slots[i] = cur
            cur = rest
            n += 1
        self._committed = n

    def _commit_one(self, t: tuple, pid: int, tid: int) -> None:
        """Direct-commit one span outside any tree (always retained)."""
        cap = self.capacity
        n = self._committed
        i = n % cap
        slots = self._slots
        if n >= cap:
            old = slots[i]
            self.dropped += 1
            if old[3] and old[0] & INTERESTING_MASK:
                self.interesting_trees_dropped += 1
        elif i >= self._alloc:
            self._grow(i)
        _RING.pack_into(self._ring, i * _REC, *t)
        slots[i] = (CLS_SUMMARY, pid, tid, False)
        self._committed = n + 1

    # ------------------------------------------------------------ reads

    def _span_from_rec(self, rec, pid: int, tid: int, keep_cls: int) -> Span:
        sid, parent, codeword, cyc = rec[0], rec[1], rec[2], rec[3]
        code = codeword & 0xFF
        if code == _N_FP_FAULT:
            args = {"rip": rec[4], "sicode": rec[5], "flags": rec[6]}
            if parent == 0 and keep_cls:
                args["keep"] = cls_label(keep_cls)
        elif code == _N_SIGNAL_QUEUED:
            args = {"signo": rec[4]}
        elif code == _N_SIGNAL_DELIVERED:
            args = {"signo": rec[4], "code": rec[5], "rip": rec[6],
                    "rsp": rec[7], "eflags": rec[8], "mxcsr": rec[9]}
        elif code == _N_HANDLER:
            args = {"kind": self._strs[rec[4]], "rip": rec[5]}
        elif code == _N_DECODE:
            insn = (rec[5].to_bytes(8, "little")
                    + rec[6].to_bytes(8, "little"))[:rec[7]]
            args = {"rip": rec[4], "insn": insn.hex()}
        elif code == _N_RECORD:
            args = {"seq": rec[4]}
        elif code == _N_HANDLER_RET:
            args = {"kind": self._strs[rec[4]], "action": self._strs[rec[5]]}
        elif code == _N_REARM:
            args = {"mxcsr": rec[4], "tf": rec[5]}
        elif code == _N_EMULATE:
            v = codeword >> 8
            args = {"rip": rec[4]}
            if v == 1:
                args["memo_hit"] = 0
            elif v == 2:
                args["memo_hit"] = 1
            elif v == 3:
                args["emulated"] = 1
        elif code == _N_WRITEBACK:
            args = {"rip": rec[4]}
        elif code == _N_TF_TRAP:
            args = {"fused": rec[4]}
        elif code == _N_BLOCK_CHUNK:
            args = {"rip": rec[4], "groups": rec[5]}
        else:
            args = {"rip": rec[4], "groups": rec[5], "recorded": rec[6]}
        return Span(sid, parent, _NAMES[code], cyc, pid, tid, args)

    def spans(self) -> list[Span]:
        """Assemble every surviving span -- committed ring contents plus
        currently staged (open) trees -- ordered by span id."""
        out = []
        cap = self.capacity
        n = self._committed
        unpack = _RING.unpack_from
        ring = self._ring
        slots = self._slots
        for j in range(max(0, n - cap), n):
            i = j % cap
            cls, pid, tid, root = slots[i]
            out.append(self._span_from_rec(
                unpack(ring, i * _REC), pid, tid, cls if root else 0))
        for st in self._live.values():
            pid, tid = st[_PID], st[_TID]
            for t in st[_BUF]:
                out.append(self._span_from_rec(t, pid, tid, 0))
        out.sort(key=lambda s: s.span_id)
        return out

    def open_trees(self) -> int:
        return len(self._live)

    def stats(self) -> dict:
        """Retention/ring stats for benchmarks and campaigns."""
        return {
            "spans": self.recorded,
            "spans_committed": self._committed,
            "spans_dropped": self.dropped,
            "trees_completed": self.trees_completed,
            "trees_retained_interesting": self.trees_retained_interesting,
            "trees_retained_boring": self.trees_retained_boring,
            "trees_discarded": self.trees_discarded,
            "interesting_trees_dropped": self.interesting_trees_dropped,
            "sample": self._period,
            "seed": self._seed,
            "capacity": self.capacity,
        }


# ------------------------------------------------------------- exports


def _subtree_ends(spans: list[Span]) -> dict[int, int]:
    """Map ``span_id -> max cycle over the span and its descendants``.

    Children are always created after their parents, so walking in
    descending span-id order resolves every child before its parent.
    """
    children: dict[int, list[int]] = {}
    ends: dict[int, int] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s.span_id)
    for s in sorted(spans, key=lambda s: -s.span_id):
        end = s.cycles
        for cid in children.get(s.span_id, ()):
            end = max(end, ends.get(cid, 0))
        ends[s.span_id] = end
    return ends


def to_chrome_json(spans: list[Span]) -> str:
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto).

    Each span becomes a complete ("X") event whose duration covers its
    subtree, so a trap tree renders as nested slices on the task's
    track.  Timestamps are sim-cycles (view as "one cycle = one
    microsecond"); ``args`` carries the span/parent IDs and the raw
    cycle stamp so :func:`from_chrome_json` rebuilds the exact tree.
    """
    ends = _subtree_ends(spans)
    events = []
    for s in spans:
        args = {"span_id": s.span_id, "parent_id": s.parent_id,
                "cycles": s.cycles}
        args.update(s.args)
        events.append({
            "name": s.name,
            "cat": "fpspy",
            "ph": "X",
            "ts": s.cycles,
            "dur": max(ends[s.span_id] - s.cycles, 1),
            "pid": s.pid,
            "tid": s.tid,
            "args": args,
        })
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "sim-cycles", "source": "repro.telemetry.tracing"},
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def from_chrome_json(text: str) -> list[Span]:
    """Rebuild the span list from an exported Chrome trace-event JSON."""
    doc = json.loads(text)
    spans = []
    for ev in doc["traceEvents"]:
        args = dict(ev["args"])
        sid = args.pop("span_id")
        parent = args.pop("parent_id")
        cycles = args.pop("cycles")
        spans.append(
            Span(sid, parent, ev["name"], cycles, ev["pid"], ev["tid"], args)
        )
    spans.sort(key=lambda s: s.span_id)
    return spans


def to_binary(spans: list[Span]) -> bytes:
    """Packed binary spans via the :mod:`repro.trace.records` layout."""
    from repro.trace.records import SpanRecord, pack_span

    out = bytearray()
    for s in spans:
        detail = ";".join(f"{k}={v}" for k, v in sorted(s.args.items()))
        out += pack_span(SpanRecord(
            span_id=s.span_id, parent_id=s.parent_id, cycles=s.cycles,
            pid=s.pid, tid=s.tid, name=s.name, args=detail,
        ))
    return bytes(out)


def spans_from_binary(data: bytes) -> list[Span]:
    """Rebuild :class:`Span` objects from the packed record layout.

    The fixed-width args field is lossy (truncated at 64 bytes; JSON is
    the lossless format); surviving ``k=v`` items parse back as ints
    where possible, else strings.
    """
    from repro.trace.records import unpack_spans

    spans = []
    for r in unpack_spans(data):
        args: dict = {}
        for item in r.args.split(";") if r.args else ():
            k, _, v = item.partition("=")
            if not k:
                continue
            try:
                args[k] = int(v)
            except ValueError:
                args[k] = v
        spans.append(
            Span(r.span_id, r.parent_id, r.name, r.cycles, r.pid, r.tid, args)
        )
    return spans


def render_trace_text(recorder: "TraceRecorder") -> str:
    """The ``/proc/fpspy/trace`` rendering: a drop/retention-accounting
    header plus one line per surviving span, cycle-ordered."""
    rows = []
    for s in recorder.spans():
        detail = " ".join(f"{k}={v}" for k, v in sorted(s.args.items()))
        rows.append((
            s.cycles, s.span_id,
            f"{s.cycles} {s.pid}:{s.tid} #{s.span_id}<-{s.parent_id} "
            f"{s.name} {detail}".rstrip(),
        ))
    rows.sort(key=lambda r: (r[0], r[1]))
    st = recorder.stats()
    header = (
        f"# spans {recorder.recorded} dropped {recorder.dropped} "
        f"trees {recorder.trees_completed} open {recorder.open_trees()} "
        f"capacity {recorder.capacity}"
    )
    header += (
        f" retained {st['trees_retained_interesting']}"
        f"+{st['trees_retained_boring']}"
        f" discarded {st['trees_discarded']}"
        f" interesting_dropped {st['interesting_trees_dropped']}"
        f" sample {st['sample']}"
    )
    return header + "\n" + "\n".join(r[2] for r in rows) + ("\n" if rows else "")
