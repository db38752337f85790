"""The storm batch driver: whole trap storms as one batch operation.

Individual-mode monitoring of an exception-dense loop (the paper's
GROMACS packed-FMA case) turns every group of an :class:`FPBlock` into a
full Figure 5 round trip: precise SIGFPE, handler (mask + TF), masked
re-execution, fused SIGTRAP, handler (re-arm).  The per-event fast path
(DESIGN.md #7) already fuses the second trap and memoizes outcomes per
form, but it still walks the whole state machine one event at a time
through Python.

This driver (DESIGN.md #11) recognizes the storm as a *batch*: a run of
consecutive same-RIP groups whose outcomes one batch softfloat call
(:func:`repro.fp.batchfloat.execute_batch`) computes.  A batch mixes
two kinds of group, exactly as application traffic does: *faulting*
groups (an unmasked condition: a whole trap lifecycle) and *quiet*
groups (no unmasked condition: the group retires like any other
instruction, ORing any masked codes into the sticky status).  The driver
*replicates* -- rather than executes -- the per-event effects: trace
records are packed and appended in one write, the sticky status is
carried through the batch as the per-event path accumulates and clears
it, the cycle/time schedule is closed-form per group, every count the
per-event path would bump is bumped by the same amount, and every
flight-recorder span it would emit is emitted with identical contents
and cycle stamps.
Application windows hold about seven groups, where a NumPy call costs
more than its work, so everything around the one batch call -- the
per-group OR of lane codes included -- is plain Python over the block's
lane arrays and the batch's results and codes.

Admissibility is the whole game.  ``try_storm`` proves, before
committing anything, that the replicated story is *byte-identical* to
the per-event one: FPSpy's own handlers installed (any guest handler
bails), monitor live in ``AWAIT_FPE``, masks exactly the capture set,
equal faulting/masked contexts, no armed real timer, and -- bisecting
prefix lists over the batch window -- a run of groups that fits the
scheduler quantum, runs no further than the virtual timer's expiry, and
leaves headroom under ``maxcount``.  When the expiry falls strictly
inside a group's integer phase, that group ends the batch as a *tail*:
its FP instruction retires (its trap lifecycle too, if it faults) and
its integer phase runs up to the expiry, so the batch's vtime advance
posts the SIGVTALRM where the per-event path's integer chunk posts it;
the next step delivers it and finishes the phase precisely
(:meth:`~repro.machine.cpu.CPU.vtimer_split` holds the rule for this
driver and the blockexec chunk alike).  With the flight recorder on, the
run is faulting groups only of a :data:`~repro.fp.batchfloat.BATCH_KINDS`
form, entered with clear sticky status, and an armed virtual timer
rejects: the recorder stamps one ``storm`` span per batch, so there
batch boundaries are observable output.  Anything else takes the precise
path -- the bail-out is counted, never silent.
The ``"blockexec"`` rung of ``KernelConfig.fastpaths``, one below
``"storm"``, is the byte-identity oracle the ablation benchmark runs
against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING

from repro.fp import batchfloat
from repro.fp.batchfloat import BATCH_KINDS
from repro.fp.flags import ALL_CODES, MASK_SHIFT, UE
from repro.fp.mxcsr import MXCSR
from repro.guest.ops import FPBlock
from repro.kernel.signals import FPE_SICODE, Signal
from repro.kernel.task import Task
from repro.trace.records import RECORD_STRUCT

if TYPE_CHECKING:  # pragma: no cover
    from repro.fpspy.engine import FPSpyEngine
    from repro.machine.cpu import CPU

#: Minimum admissible batch.  Admission is a few bisections over
#: a window whose outcomes are already computed, so committing even one
#: group from it beats recomputing that group on the per-event path.
#: Under the flight recorder batch boundaries are output (one ``storm``
#: span per batch), so they stay where runs of two or more faulting
#: groups put them.
_MIN_GROUPS = 1
_MIN_TRACED_GROUPS = 2

#: Bound on first use: the fpspy package pulls in the loader, which
#: imports the machine package (cold when this module loads).
_Mode = _FPSpyEngine = _MonitorState = None


def _bind_fpspy() -> None:
    global _Mode, _FPSpyEngine, _MonitorState
    from repro.fpspy.config import Mode
    from repro.fpspy.engine import FPSpyEngine, MonitorState

    _Mode, _FPSpyEngine, _MonitorState = Mode, FPSpyEngine, MonitorState


def _reject(cpu: "CPU", reason: str) -> bool:
    bail = cpu.storm_stats["bailouts"]
    bail[reason] = bail.get(reason, 0) + 1
    return False


def try_storm(cpu: "CPU", task: Task, block: FPBlock) -> bool:
    """Batch-replicate a run of quiet and faulting groups if provably
    unobservable.

    Returns True having committed a whole batch (the CPU step is done),
    False to fall through to the precise scalar sub-step.  Mid-cycle
    states (current group's FP already retired, TF set, signals queued)
    return False without counting a bail-out: they are the *interior* of
    an event the scalar path is already executing, not a rejected storm.
    A batch ends at the virtual timer's expiry (in the expiring group,
    as a tail, when the expiry falls inside its integer phase; before
    it when the expiry lands on its FP retirement), where the scheduler
    quantum runs out, and before the faulting group that could reach
    ``maxcount``; the groups past those bounds take the per-event path.
    """
    if block.fp_done or task.trap_flag or task.pending_signals:
        return False
    if _FPSpyEngine is None:
        _bind_fpspy()
    kernel = cpu.kernel
    site = block.site
    form = site.form
    # The flight recorder stamps one span per batch, so under it batch
    # boundaries are output: keep them where faulting-only runs of the
    # host-loop kinds put them.
    quiet_ok = cpu._tr is None
    if not quiet_ok and form.kind not in BATCH_KINDS:
        return _reject(cpu, "uncovered")
    status = task.mxcsr.value & ALL_CODES
    base = task.mxcsr.value & ~ALL_CODES
    if status and not quiet_ok:
        # A traced fault's record carries the entering status but its
        # masked re-execution span carries only its own codes, and span
        # replication takes one codes list.  The status also comes from a
        # masked-only group, so the next group is likely another, which
        # a traced window would not admit anyway.
        return _reject(cpu, "status")
    vtimer = task.vtimer
    if kernel._timer_heap or (vtimer is not None and not quiet_ok):
        # A real timer's expiry depends on the cycle schedule and the
        # fusion fence: precise stepping only.  The virtual timer bounds
        # the batch below instead.
        return _reject(cpu, "timer")
    proc = task.process
    dfpe = proc.disposition(Signal.SIGFPE)
    if getattr(dfpe, "__func__", None) is not _FPSpyEngine._sigfpe_handler:
        return _reject(cpu, "disposition")
    engine: FPSpyEngine = dfpe.__self__
    dtrap = proc.disposition(Signal.SIGTRAP)
    if (
        getattr(dtrap, "__func__", None) is not _FPSpyEngine._sigtrap_handler
        or dtrap.__self__ is not engine
    ):
        return _reject(cpu, "disposition")
    if not engine.active or engine.config.mode is not _Mode.INDIVIDUAL:
        return _reject(cpu, "engine")
    mon = engine.monitors.get(task.tid)
    if (
        mon is None
        or mon.disabled
        or mon.state is not _MonitorState.AWAIT_FPE
        or not mon.sampling_on
    ):
        return _reject(cpu, "engine")
    capture = int(engine.config.capture)
    if ((base >> MASK_SHIFT) & ALL_CODES) != (ALL_CODES & ~capture):
        # Masks must be exactly "capture set unmasked": that is what the
        # sigtrap handler re-arms, so it is the storm's loop invariant.
        return _reject(cpu, "masks")
    ctx = task.mxcsr.context()
    if ctx != MXCSR(base | (ALL_CODES << MASK_SHIFT)).context():
        # The faulting execution and the handler's masked re-execution
        # must run under field-equal contexts so one batch serves both
        # (only differs when FTZ rides an unmasked Underflow).
        return _reject(cpu, "ctx")

    win = getattr(block, "_storm_cache", None)
    if (win is None or win.ctx != ctx or win.base != base
            or win.start > block.index):
        win = block._storm_cache = _Window(
            block, form, ctx, base, quiet_ok, cpu._prov)
        cpu.storm_stats["windows"] += 1
    rel = block.index - win.start

    # The eligible run: up to the next ineligible group.
    bad = win.bad
    j = bisect_left(bad, rel)
    k = (bad[j] if j < len(bad) else win.ng) - rel
    # Scheduler quantum: every group's slice needs must fit what is left.
    k = min(k, bisect_right(
        win.need_end, cpu.step_budget + win.steps[rel]) - rel)
    tail = 0
    if vtimer is not None:
        # Up to the expiry: whole groups, then the expiring group as a
        # tail when the expiry falls inside its integer phase, so the
        # batch's vtime advance posts the signal where the per-event
        # path's integer chunk does.  With no integer phase the expiry
        # lands on an FP retirement, where a fault's SIGTRAP cannot
        # fuse: that group goes per-event.
        whole, tail = cpu.vtimer_split(vtimer.remaining, block.interleave)
        if not block.interleave:
            whole -= 1
        k = min(k, whole + (tail > 0))
    maxcount = engine.config.maxcount
    if maxcount is not None:
        # Stay strictly below the cap: the disarm transition must run on
        # the per-event path (conservative: every fault might record).
        room = maxcount - mon.recorded - 1
        k = min(k, bisect_right(
            win.faults, win.faults[rel] + room) - 1 - rel)
    if k < (_MIN_GROUPS if quiet_ok else _MIN_TRACED_GROUPS):
        return _reject(cpu, "short")
    if tail and k <= whole:
        tail = 0  # another cap ends the batch before the expiring group
    _commit(cpu, task, block, engine, mon, win, rel, k, base, status, tail)
    return True


class _Window:
    """The block's remaining groups, batch-executed once under
    ``(ctx, base)`` (``base`` is status-free, so sticky status changes
    never rebuild the window): per-group outcomes plus the prefix lists
    admission reads, so each attempt is a few bisections.

    ``codes[g]`` is group ``g``'s OR of lane flags, ``pend[g]`` its
    unmasked part (nonzero exactly for faulting groups), and ``bad`` the
    ineligible groups in order: none untraced (a group raising only
    masked codes is quiet), the quiet ones under the flight recorder.
    ``steps[g]`` is the scheduler-slice
    units groups ``[0, g)`` of the window consume on the per-event path,
    and ``need_end[g]`` is ``steps[g]`` plus what group ``g`` needs left
    to run whole: a quiet group its own steps (1, or 2 interleaved), a
    faulting group 3 (its fused delivery needs a spare unit past the
    re-execution step).  ``need_end`` is nondecreasing, which is what
    makes the quantum cap a single bisection.  ``faults[g]`` counts
    faulting groups in ``[0, g)``.
    """

    __slots__ = ("ctx", "base", "start", "ng", "bits", "codes", "pend",
                 "bad", "steps", "need_end", "faults", "sus")

    def __init__(self, block: FPBlock, form, ctx, base: int, quiet_ok: bool,
                 prov=None) -> None:
        lanes = form.lanes
        lo = block.index * lanes
        ops = tuple(a[lo:] for a in block.arrays)
        res = batchfloat.execute_batch(form, ops, ctx)
        self.ctx, self.base, self.start = ctx, base, block.index
        self.ng = ng = block.n_groups - block.index
        self.bits = res.bits
        self.codes = codes = res.group_flags(lanes)
        unmasked = ~(base >> MASK_SHIFT) & ALL_CODES
        self.pend = pend = [c & unmasked for c in codes]
        if unmasked & UE and True in res.tiny:
            # Unmasked-UM corner: an exact-but-tiny result traps too.
            for i, t in enumerate(res.tiny):
                if t:
                    pend[i // lanes] |= UE
        w = 2 if block.interleave > 0 else 1
        self.bad = [] if quiet_ok else [g for g, p in enumerate(pend) if not p]
        self.need_end = need_end = []
        self.steps, self.faults = steps, faults = [0], [0]
        s = f = 0
        for p in pend:
            if p:
                need_end.append(s + 3)
                s += w + 1
                f += 1
            else:
                need_end.append(s + w)
                s += w
            steps.append(s)
            faults.append(f)
        # The provenance pre-scan of this whole window (one scan serves
        # every storm committed out of it).
        self.sus = None
        if prov is not None:
            self.sus = prov.scan_window(
                block.site, ops, res.bits, ng, lanes,
                block.take(block.n_groups - 1))


def _commit(
    cpu: "CPU", task: Task, block: FPBlock, engine: FPSpyEngine, mon,
    win: _Window, rel: int, k: int, base: int, status: int, tail: int = 0,
) -> None:
    """Replicate ``k`` groups -- whole trap lifecycles for the faulting
    ones, plain retirements for the quiet ones -- without stepping the
    machine.  A nonzero ``tail`` cuts the last group's integer phase to
    its first ``tail`` units (:meth:`CPU.vtimer_split`).

    Everything the per-event path writes -- records, counters, spans,
    cycle/time splits, the sticky status -- is produced here with
    identical contents; the per-group cycle schedule mirrors the fused
    path charge by charge.  ``base`` is ``%mxcsr`` without its sticky
    status, which enters as ``status``: quiet groups OR their masked
    codes into it, a faulting group's record sees it, and the group's
    SIGTRAP handler clears it.
    """
    kernel = cpu.kernel
    costs = cpu.costs
    site = block.site
    interleave = block.interleave
    pend, codes = win.pend, win.codes
    fi, fcodes = [], []  # faulting groups, their status at the fault
    acc = status
    for g in range(rel, rel + k):
        if pend[g]:
            fi.append(g)
            fcodes.append(acc | codes[g])
            acc = 0
        else:
            acc |= codes[g]
    kf = len(fi)
    # Which faults record: the engine's modular subsample, so fault ``j``
    # of the batch records iff ``(observed + 1 + j) % sample == 0``.
    sample = engine.config.sample
    obs = mon.observed
    first = -(obs + 1) % sample
    r = len(range(first, kf, sample))
    seq0 = mon.seq

    # Per-group cycle schedule.  Every group retires its FP instruction
    # and integer phase; a faulting one first takes fault entry, SIGFPE
    # delivery, handler (+record), sigreturn, then after the masked
    # re-execution the fused trap entry + delivery, handler, sigreturn
    # -- exactly the fused path.
    fault_c = costs.fault_entry
    deliv_c = costs.signal_deliver
    ret_c = costs.sigreturn
    huser_c = costs.handler_user
    tapp_c = costs.trace_append
    fp_c = costs.fp_instr
    retire_c = fp_c + interleave * costs.int_instr
    trap_c = 2 * (fault_c + deliv_c + ret_c) + 2 * huser_c
    rec_off = fault_c + deliv_c + huser_c  # fault start -> record stamp
    c0 = kernel.cycles
    # The tail's integer units the batch leaves to the precise path.
    cut = (interleave - tail) * costs.int_instr if tail else 0
    total = k * retire_c - cut + kf * trap_c + r * tapp_c

    def fstart(j: int, g: int) -> int:
        # Start cycle of fault ``j`` (group ``g``): the groups before it,
        # its earlier faults' lifecycles, one trace append per earlier
        # record.  Record stamps and observer events both read it.
        return (c0 + (g - rel) * retire_c + j * trap_c
                + ((obs + j) // sample - obs // sample) * tapp_c)

    # Trace records, byte-identical to the engine's per-event pack_record
    # calls, in one write.  Cycle counts stay below 2**53, so the
    # timestamp is the same IEEE division the per-event path does.
    rip = site.address
    if r:
        pack = RECORD_STRUCT.pack
        freq = kernel.config.freq_hz
        rsp = task.rsp
        insn = site.encoding[:16]
        insn_len = len(insn)
        insn = insn.ljust(16, b"\x00")
        mon.writer.append_packed(b"".join([
            pack(seq0 + i, (fstart(j, g) + rec_off) / freq, rip, rsp,
                 base | c, FPE_SICODE[pend[g]], c, insn_len, insn)
            for i, (j, g, c) in enumerate(zip(
                range(first, kf, sample), fi[first::sample],
                fcodes[first::sample]))
        ]), r)

    end_rip = rip + len(site.encoding)
    if kf and (cpu._tr is not None or cpu._prov is not None):
        fstarts = [fstart(j, g) for j, g in enumerate(fi)]
        _replicate_events(
            cpu, task, block, win, rel, k, base, fi, fcodes,
            [(obs + 1 + j) % sample == 0 for j in range(kf)], fstarts, c0,
            end_rip, seq0, (fault_c, deliv_c, huser_c, tapp_c, ret_c, fp_c,
                            trap_c + retire_c),
        )
    kernel.cycles = c0 + total
    task.stime_cycles += kf * 2 * (fault_c + deliv_c + ret_c)
    task.utime_cycles += k * retire_c - cut + kf * 2 * huser_c + r * tapp_c

    # Monitor bookkeeping.
    mon.observed = obs + kf
    mon.seq = seq0 + r
    mon.recorded += r

    # The counts the per-event path would have bumped.
    if kf:
        ev = engine.event_codes
        for c in fcodes:
            ev[c] += 1
        cpu.fused += kf
        sigs = cpu.signals_delivered
        sigs[Signal.SIGFPE] += kf
        sigs[Signal.SIGTRAP] += kf
        # The fused path raises one timer-defer fence per fault and the
        # scheduler clears it after the next check; the heap is empty
        # (admission), so replicate the count, and the floor itself
        # only when the batch's last step was a fused delivery (the last
        # group faults, so the batch ends with its lifecycle, and is no
        # tail, whose last step is its integer chunk).
        fences = kf
        if pend[rel + k - 1] and not tail:
            kernel.defer_timers_once(
                c0 + total - retire_c - trap_c + rec_off + ret_c + fp_c
                + fault_c)
            fences -= 1
        kernel.timer_defer_fences += fences

    if acc != status:
        task.mxcsr.value = base | acc
    # Writeback, identical to k precise retirements.  Admission kept the
    # vtime advance at or below any armed vtimer's expiry; a tail
    # reaches it.
    lanes = site.form.lanes
    cpu.commit_groups(
        task, block, win.bits[rel * lanes:(rel + k) * lanes],
        k - (tail > 0), tail)
    cpu.step_cost = win.steps[rel + k] - win.steps[rel]

    st = cpu.storm_stats
    st["batches"] += 1
    st["groups"] += k
    st["quiet"] += k - kf
    st["records"] += r


def _replicate_events(
    cpu: "CPU", task: Task, block: FPBlock, win: _Window, rel: int, k: int,
    base: int, fi: list, codes: list, rec: list, fstarts: list, c0: int,
    end_rip: int, seq0: int, cost_t: tuple,
) -> None:
    """Per-event observer replication for the flight recorder and the
    provenance tracker.

    Only runs when one of the two is live, so the plain storm hot path
    never enters this loop; the batch's counts are bumped in
    :func:`_commit` either way.  ``fi`` lists the batch's faulting
    groups (window-relative); ``codes`` (each fault's status), ``rec``
    and the start cycles ``fstarts`` run parallel to it, and
    ``cost_t`` is the cycle-cost tuple
    :meth:`TraceRecorder.replicate_trees` takes.  Both observers only
    ever see faulting-only batches entered with clear status (admission),
    so faulting event ``j`` is batch group ``j`` and its status is its
    own codes.  The loop itself performs only the per-event
    work that *must* be exact per event -- provenance observations at
    the masked-re-execution retirement cycle (``kernel.cycles`` is slid
    to each stamp because the tracker reads it directly).  The 14-span
    trap trees are emitted by one bulk
    :meth:`TraceRecorder.replicate_trees` call with identical ids,
    parents, cycles, and args to the per-event path -- and, with tail
    sampling on, boring trees are discarded *before* any span tuple is
    built, which is what keeps an always-on recorder affordable in a
    storm.
    """
    kernel = cpu.kernel
    site = block.site
    lanes = site.form.lanes
    tr = cpu._tr
    prov = cpu._prov
    rip = site.address
    fault_c, deliv_c, huser_c, tapp_c, ret_c, _, _ = cost_t
    pend = [win.pend[g] for g in fi]
    sic = [FPE_SICODE[p] for p in pend]

    if tr is not None:
        # One summary span *plus* full per-event trees: batching must
        # never under-count.
        tr.storm(task, rip, k, sum(rec))

    obs_off = fault_c + deliv_c + huser_c + ret_c  # SIGFPE delivery+handler
    marks = [0] * k
    try:
        if prov is not None:
            # The window's pre-scan: groups with only ordinary lanes can
            # neither create, propagate, nor sink a chain, so only the
            # exceptional (and partial-tail) groups replay through the
            # exact per-event observe -- in event order, at the exact
            # cycle the per-event path observes at (the masked
            # re-execution, after the recording handler returns).  The
            # scan covers the whole window once; each committed storm
            # just slices its k groups out of it.
            idxs = [j for j, s in enumerate(win.sus[rel:rel + k]) if s]
            prov.observed += k - len(idxs)
            for j in idxs:
                kernel.cycles = (
                    fstarts[j] + obs_off + (tapp_c if rec[j] else 0))
                g = block.index + j
                take = block.take(g)
                glo = (rel + j) * lanes
                marks[j] = prov.observe(
                    task, site, block.group(g)[:take],
                    win.bits[glo:glo + take], codes[j],
                )
        if tr is not None:
            tr.replicate_trees(
                task, rip, end_rip, site.encoding, task.rsp, base,
                base | (ALL_CODES << MASK_SHIFT), sic, pend, codes, rec, seq0,
                c0, cost_t, marks,
            )
    finally:
        kernel.cycles = c0
