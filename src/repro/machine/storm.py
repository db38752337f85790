"""The batch engine: a run of a block's groups as one batch operation.

An :class:`FPBlock` stands for a long per-instruction stream (DESIGN.md
#6).  Wherever that is provably unobservable, this module retires a run
of its groups -- a *batch* -- from one batch softfloat call
(:func:`repro.fp.batchfloat.execute_batch`) instead of stepping them;
otherwise :func:`repro.machine.blockexec.step_block` takes the precise
per-instruction sub-step.  A batch mixes two kinds of group, exactly as
application traffic does: *quiet* groups (no unmasked condition: the
group retires like any other instruction, ORing its masked codes into
the sticky status) and *faulting* groups (an unmasked condition: under
FPSpy's individual mode a whole Figure 5 round trip -- precise SIGFPE,
handler (mask + TF), masked re-execution, fused SIGTRAP, handler
(re-arm), the paper's GROMACS packed-FMA case).  The engine
*replicates* -- rather than executes -- the per-event effects: trace
records are packed and appended in one write, the sticky status is
carried through the batch as the per-event path accumulates and clears
it, the cycle/time schedule is closed-form per group, every count the
per-event path would bump is bumped by the same amount, and every
flight-recorder span it would emit is emitted with identical contents
and cycle stamps (DESIGN.md #11).
Application windows hold about seven groups, where a NumPy call costs
more than its work, so everything around the one batch call -- the
per-group OR of lane codes included -- is plain Python over the block's
lane arrays and the batch's results and codes.

Admissibility is the whole game.  ``try_storm``, the one admission
function, proves before committing anything that the batch is
*byte-identical* to precise stepping, through one of two arms:

* **Quiescent** (the ``"blockexec"`` rung of ``KernelConfig.fastpaths``
  and above): every exception masked, ``RFLAGS.TF`` clear, no FTZ/DAZ,
  any rounding mode -- FPSpy's aggregate mode, a sampler's OFF window,
  an unmonitored program.  No group can fault or trap, and sticky-flag
  OR is commutative, so every batch is all quiet groups.  It is capped
  by the scheduler quantum and by a real timer's budget as
  ``CPU.int_chunk`` caps integer runs.
* **FPSpy individual mode** (the ``"storm"`` rung): FPSpy's own
  handlers installed (any guest handler bails), monitor live in
  ``AWAIT_FPE``, masks exactly the capture set, equal faulting/masked
  contexts, no armed real timer, and -- bisecting prefix lists over the
  window -- a run of groups that fits the scheduler quantum and leaves
  headroom under ``maxcount``.  With the flight recorder on, the run is
  faulting groups only of a :data:`~repro.fp.batchfloat.BATCH_KINDS`
  form, entered with clear sticky status, and an armed virtual timer
  rejects: the recorder stamps one ``storm`` span per batch, so there
  batch boundaries are observable output.  A rejection is counted by
  reason, never silent.

Both arms end a batch at the virtual timer's expiry.  When it falls
strictly inside a group's integer phase, that group ends the batch as a
*tail*: its FP instruction retires (its trap lifecycle too, if it
faults) and its integer phase runs up to the expiry, so the batch's
vtime advance posts the SIGVTALRM where the per-event path's integer
chunk posts it; the next step delivers it and finishes the phase
precisely (:meth:`~repro.machine.cpu.CPU.vtimer_split`).  The quiescent
arm takes no tail while a real timer is armed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import reduce
from operator import or_
from typing import TYPE_CHECKING

from repro.fp import batchfloat
from repro.fp.batchfloat import BATCH_KINDS
from repro.fp.flags import ALL_CODES, MASK_SHIFT, UE
from repro.fp.mxcsr import MXCSR
from repro.guest.ops import FPBlock
from repro.kernel.signals import FPE_SICODE, Signal
from repro.kernel.task import Task
from repro.machine.fastpaths import STORM
from repro.trace.records import RECORD_STRUCT

if TYPE_CHECKING:  # pragma: no cover
    from repro.fpspy.engine import FPSpyEngine
    from repro.machine.cpu import CPU

#: Minimum admissible FPSpy-arm batch.  Admission is a few bisections
#: over a window whose outcomes are already computed, so committing even
#: one group from it beats recomputing that group on the per-event path.
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
    """Commit a batch of ``block``'s groups from its cursor if provably
    unobservable, through the quiescent or the FPSpy individual-mode arm.

    Returns True having committed a whole batch (the CPU step is done),
    False to fall through to the precise scalar sub-step.  Mid-cycle
    states (current group's FP already retired, TF set, signals queued)
    return False without counting a bail-out: they are the *interior* of
    an event the scalar path is already executing, not a rejected batch.
    So does a quiescent batch that the caps leave empty.  A batch ends at
    the virtual timer's expiry (in the expiring group, as a tail, when
    the expiry falls inside its integer phase; before it when the expiry
    lands on its FP retirement), where the scheduler quantum runs out,
    and before the faulting group that could reach ``maxcount``; the
    groups past those bounds take the per-event path.
    """
    if block.fp_done:
        return False
    kernel = cpu.kernel
    interleave = block.interleave
    # Scheduler-slice weight of a quiet group: per-instruction execution
    # spends one step on the FP instruction and (when interleaved) one on
    # its integer phase.
    w = 2 if interleave > 0 else 1
    mx = task.mxcsr.value
    status, base = mx & ALL_CODES, mx & ~ALL_CODES
    if task.fp_quiescent:
        # Quiescent arm: nothing can fault or trap, so only the quantum
        # and the timers cap the batch.
        k = min(block.n_groups - block.index, cpu.step_budget // w)
        tail = 0
        vt_budget, real_budget = kernel.timer_budgets(task)
        if real_budget is not None:
            k = min(k, real_budget // cpu.costs.block_group_cycles(interleave))
        if vt_budget is not None:
            whole, tail = cpu.vtimer_split(vt_budget, interleave)
            if k <= whole or real_budget is not None:
                # The block, the slice or a real timer ends the batch
                # first.  (A tail is sized by the virtual timer alone,
                # so none is taken while a real timer is armed.)
                tail = 0
            k = min(k, whole)
        if k <= 0 and not tail:
            # A timer expires on the next group's FP instruction, a real
            # timer inside the next group, or the slice has less than a
            # whole group's budget left: scalar sub-steps land signals
            # and preemption on the exact instruction.
            return False
        win = _window(cpu, block, task.mxcsr.context(), base)
        _commit(cpu, task, block, win, block.index - win.start,
                k + (tail > 0), base, status, tail)
        return True
    # FPSpy individual-mode arm.
    if cpu.rung < STORM or task.trap_flag or task.pending_signals:
        return False
    if _FPSpyEngine is None:
        _bind_fpspy()
    # The flight recorder stamps one span per batch, so under it batch
    # boundaries are output: keep them where faulting-only runs of the
    # host-loop kinds put them.
    quiet_ok = cpu._tr is None
    if not quiet_ok and block.site.form.kind not in BATCH_KINDS:
        return _reject(cpu, "uncovered")
    if status and not quiet_ok:
        # A traced fault's record carries the entering status but its
        # masked re-execution span carries only its own codes, and span
        # replication takes one codes list.  The status also comes from a
        # masked-only group, so the next group is likely another, which
        # a traced window would not admit anyway.
        return _reject(cpu, "status")
    vtimer = task.vtimer
    if kernel._timer_heap or (vtimer is not None and not quiet_ok):
        # A real timer's expiry depends on the cycle schedule, and the
        # timer-defer floor and fence replication assume none is armed:
        # precise stepping only.  The virtual timer bounds the batch
        # below instead.
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

    win = _window(cpu, block, ctx, base, cpu.storm_stats)
    rel = block.index - win.start

    if win.pend is None:
        # No faulting group: every group needs ``w`` slice units, and
        # under the flight recorder none is eligible.
        k = min(win.ng - rel, cpu.step_budget // w) if quiet_ok else 0
    else:
        # The eligible run: up to the next ineligible group.
        bad = win.bad
        j = bisect_left(bad, rel)
        k = (bad[j] if j < len(bad) else win.ng) - rel
        # Scheduler quantum: every group's slice needs must fit what is
        # left.
        k = min(k, bisect_right(
            win.need_end, cpu.step_budget + win.steps[rel]) - rel)
        maxcount = engine.config.maxcount
        if maxcount is not None:
            # Stay strictly below the cap: the disarm transition must run
            # on the per-event path (conservative: every fault might
            # record).  A live monitor has recorded fewer than maxcount.
            room = maxcount - mon.recorded - 1
            k = min(k, bisect_right(
                win.faults, win.faults[rel] + room) - 1 - rel)
    tail = 0
    if vtimer is not None:
        # Up to the expiry: whole groups, then the expiring group as a
        # tail when the expiry falls inside its integer phase, so the
        # batch's vtime advance posts the signal where the per-event
        # path's integer chunk does.  With no integer phase the expiry
        # lands on an FP retirement, where a fault's SIGTRAP cannot
        # fuse: that group goes per-event.
        whole, tail = cpu.vtimer_split(vtimer.remaining, interleave)
        if not interleave:
            whole -= 1
        k = min(k, whole + (tail > 0))
    if k < (_MIN_GROUPS if quiet_ok else _MIN_TRACED_GROUPS):
        return _reject(cpu, "short")
    if tail and k <= whole:
        tail = 0  # another cap ends the batch before the expiring group
    _commit(cpu, task, block, win, rel, k, base, status, tail, engine, mon)
    return True


def _window(cpu: "CPU", block: FPBlock, ctx, base: int,
            stats: dict | None = None) -> "_Window":
    """``block``'s window under the status-free ``%mxcsr`` ``base``
    (which fixes ``ctx``), built from the cursor on at the first batch
    under it and counted in ``stats``.  A block's cursor only moves
    forward, so a cached window always covers it, and keeping one per
    ``base`` lets a sampler's OFF window batch the block without
    discarding the FPSpy arm's."""
    wins = block.windows
    if wins is None:
        wins = block.windows = {}
    win = wins.get(base)
    if win is None:
        win = wins[base] = _Window(block, ctx, base, cpu._tr is None,
                                   cpu._prov)
        if stats is not None:
            stats["windows"] += 1
    return win


class _Window:
    """The block's groups from ``start`` to its end, batch-executed once
    under ``ctx`` for ``%mxcsr`` ``base`` (status-free, so sticky status
    changes never rebuild the window): per-group outcomes, plus the
    prefix lists FPSpy-arm admission reads when some group faults, so
    each attempt is a few bisections.  Every batch committed out of the
    window -- across quantum cuts and timer expiries -- reuses its one
    batch call and its one provenance pre-scan (``sus``).

    ``flags`` holds the batch's lane codes, which a group ORs.  With no
    faulting group the per-group lists keep their class default, None: a
    group needs ``w`` slice units (1, or 2 interleaved), so the quantum
    cap is ``step_budget // w``.  Otherwise ``codes[g]`` is group
    ``g``'s OR of lane codes, ``pend[g]`` its unmasked part (nonzero
    exactly for faulting groups), and ``bad`` the ineligible groups in
    order: none untraced (a group raising only masked codes is quiet),
    the quiet ones under the flight recorder.  ``steps[g]`` is the
    scheduler-slice units groups ``[0, g)`` of the window consume on the
    per-event path, and ``need_end[g]`` is ``steps[g]`` plus what group
    ``g`` needs left to run whole: a quiet group its ``w``, a faulting
    group 3 (its fused delivery needs a spare unit past the
    re-execution step).  ``need_end`` is nondecreasing, which is what
    makes the quantum cap a single bisection.  ``faults[g]`` counts
    faulting groups in ``[0, g)``.
    """

    codes = pend = bad = steps = need_end = faults = sus = None

    def __init__(self, block: FPBlock, ctx, base: int, quiet_ok: bool,
                 prov=None) -> None:
        site = block.site
        lanes = site.form.lanes
        self.start = start = block.index
        # A window from the block's first group takes its arrays as they
        # are.
        ops = (tuple(a[start * lanes:] for a in block.arrays) if start
               else block.arrays)
        res = batchfloat.execute_batch(site.form, ops, ctx)
        self.ng = ng = block.n_groups - start
        self.bits = res.bits
        self.flags = res.flags
        unmasked = ~(base >> MASK_SHIFT) & ALL_CODES
        if unmasked:
            codes = res.group_flags(lanes)
            pend = [c & unmasked for c in codes]
            if unmasked & UE and True in res.tiny:
                # Unmasked-UM corner: an exact-but-tiny result traps too.
                for i, t in enumerate(res.tiny):
                    if t:
                        pend[i // lanes] |= UE
            if any(pend):
                w = 2 if block.interleave > 0 else 1
                self.codes, self.pend = codes, pend
                self.bad = ([] if quiet_ok
                            else [g for g, p in enumerate(pend) if not p])
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
        # every batch committed out of it).
        if prov is not None:
            self.sus = prov.scan_window(
                site, ops, res.bits, ng, lanes,
                block.take(block.n_groups - 1))


def _commit(
    cpu: "CPU", task: Task, block: FPBlock, win: _Window, rel: int, k: int,
    base: int, status: int, tail: int = 0, engine: FPSpyEngine = None,
    mon=None,
) -> None:
    """Retire window groups ``[rel, rel + k)`` as one batch -- plain
    retirements for the quiet groups, whole trap lifecycles for the
    faulting ones (FPSpy arm: ``engine`` and the task's monitor
    ``mon``; None in the quiescent arm) -- without stepping the machine.
    A nonzero ``tail`` cuts the last group's integer phase to its first
    ``tail`` units (:meth:`CPU.vtimer_split`).

    Everything the per-event path writes -- records, counters, spans,
    cycle/time splits, the sticky status -- is produced here with
    identical contents.  ``base`` is ``%mxcsr`` without its sticky
    status, which enters as ``status``.  From a window with no faulting
    group the batch is one sticky-status OR, one writeback and ``k``
    retirement charges; otherwise :func:`_commit_faults` replicates the
    lifecycles.
    """
    kernel = cpu.kernel
    costs = cpu.costs
    interleave = block.interleave
    site = block.site
    lanes = site.form.lanes
    # Every group retires its FP instruction and integer phase; a tail
    # leaves the rest of its phase to the precise path.
    retire_c = costs.fp_instr + interleave * costs.int_instr
    c0 = kernel.cycles
    total = k * retire_c - ((interleave - tail) * costs.int_instr if tail
                            else 0)
    if win.pend is None:
        acc = reduce(or_, win.flags[rel * lanes:(rel + k) * lanes], status)
        kf = r = 0
        if cpu._prov is not None:
            _replicate_events(cpu, task, block, win, rel, k, base, (), (),
                              (), (c0, retire_c, 0, 0, 0, 1), 0, None)
        task.utime_cycles += total
        cpu.step_cost = k * (1 + (interleave > 0))
    else:
        acc, kf, r, total = _commit_faults(
            cpu, task, block, win, rel, k, base, status, tail, engine, mon,
            c0, retire_c, total)
        cpu.step_cost = win.steps[rel + k] - win.steps[rel]

    if acc != status:
        task.mxcsr.value = base | acc
    # Writeback, identical to k precise retirements: the whole groups,
    # then a tail's FP instruction and its first ``tail`` integer units,
    # which leave the cursor on its group with the rest of the phase to
    # run.  Only the block's final group carries padding.  Admission
    # kept the vtime advance at or below any armed vtimer's expiry; a
    # tail reaches it.
    whole = k - (tail > 0)
    lo = block.index * lanes
    valid = min(k * lanes, block.n_elements - lo)
    block.results[lo:lo + valid] = win.bits[rel * lanes:rel * lanes + valid]
    block.index += whole
    task.last_rip = site.address + len(site.encoding)
    units = whole * (1 + interleave)
    if tail:
        block.fp_done = True
        block.int_remaining = interleave - tail
        units += 1 + tail
    task.advance_vtime(units)
    if block.done:
        task.pending_op = None
        task.send_value = block.results
    if mon is None:
        tr = cpu._tr
        if tr is not None and whole:
            # A quiescent batch stamps one coarse span for its whole
            # groups, after their retirement (nothing in it can fault or
            # trap).  A tail stamps nothing, as its precise sub-steps
            # would not.
            kernel.cycles = c0 + whole * retire_c
            tr.chunk(task, site.address, whole)
        cpu.blk_chunks += 1
        cpu.blk_groups += k
        cpu._note_block_mode(task, True)
    else:
        st = cpu.storm_stats
        st["batches"] += 1
        st["groups"] += k
        st["quiet"] += k - kf
        st["records"] += r
    kernel.cycles = c0 + total


def _commit_faults(
    cpu: "CPU", task: Task, block: FPBlock, win: _Window, rel: int, k: int,
    base: int, status: int, tail: int, engine: FPSpyEngine, mon, c0: int,
    retire_c: int, total: int,
) -> tuple[int, int, int, int]:
    """The trap lifecycles of a batch from a window with faulting groups:
    the sticky status carried through the batch, the records, observer
    events, cycle/time splits, monitor bookkeeping and per-event counts.
    ``total`` is the batch's retirement cycles; returns the status the
    batch leaves, its fault and record counts and its total cycles.

    A quiet group ORs its masked codes into the status, a faulting
    group's record sees it, and the group's SIGTRAP handler clears it.
    The per-group cycle schedule mirrors the fused path charge by
    charge: a faulting group first takes fault entry, SIGFPE delivery,
    handler (+record), sigreturn, then after the masked re-execution the
    fused trap entry + delivery, handler, sigreturn.
    """
    kernel = cpu.kernel
    costs = cpu.costs
    site = block.site
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
    if not kf:
        task.utime_cycles += total
        return acc, 0, 0, total

    # Which faults record: the engine's modular subsample, so fault ``j``
    # of the batch records iff ``(observed + 1 + j) % sample == 0``.
    sample = engine.config.sample
    obs = mon.observed
    first = -(obs + 1) % sample
    r = len(range(first, kf, sample))
    seq0 = mon.seq
    fault_c = costs.fault_entry
    deliv_c = costs.signal_deliver
    ret_c = costs.sigreturn
    huser_c = costs.handler_user
    tapp_c = costs.trace_append
    fp_c = costs.fp_instr
    trap_c = 2 * (fault_c + deliv_c + ret_c) + 2 * huser_c
    rec_off = fault_c + deliv_c + huser_c  # fault start -> record stamp
    sys_c = kf * 2 * (fault_c + deliv_c + ret_c)
    total += kf * trap_c + r * tapp_c

    if r:
        # Trace records, byte-identical to the engine's per-event
        # pack_record calls, in one write.  Record ``i`` (fault ``j``,
        # group ``g``) is stamped after the groups before it, the
        # earlier faults' lifecycles and ``i`` trace appends.  Cycle
        # counts stay below 2**53, so the timestamp is the same IEEE
        # division the per-event path does.
        pack = RECORD_STRUCT.pack
        freq = kernel.config.freq_hz
        rip = site.address
        rsp = task.rsp
        insn = site.encoding[:16]
        insn_len = len(insn)
        insn = insn.ljust(16, b"\x00")
        mon.writer.append_packed(b"".join([
            pack(seq0 + i, (c0 + (g - rel) * retire_c + j * trap_c
                            + i * tapp_c + rec_off) / freq,
                 rip, rsp, base | c, FPE_SICODE[pend[g]], c, insn_len, insn)
            for i, (j, g, c) in enumerate(zip(
                range(first, kf, sample), fi[first::sample],
                fcodes[first::sample]))
        ]), r)

    if cpu._tr is not None or cpu._prov is not None:
        _replicate_events(
            cpu, task, block, win, rel, k, base, fi, fcodes,
            [(obs + 1 + j) % sample == 0 for j in range(kf)],
            (c0, retire_c, trap_c, tapp_c, obs, sample), seq0,
            (fault_c, deliv_c, huser_c, tapp_c, ret_c, fp_c,
             trap_c + retire_c),
        )
    task.stime_cycles += sys_c
    task.utime_cycles += total - sys_c

    # Monitor bookkeeping.
    mon.observed = obs + kf
    mon.seq = seq0 + r
    mon.recorded += r
    # The counts the per-event path would have bumped.
    ev = engine.event_codes
    for c in fcodes:
        ev[c] += 1
    cpu.fused += kf
    sigs = cpu.signals_delivered
    sigs[Signal.SIGFPE] += kf
    sigs[Signal.SIGTRAP] += kf
    # The fused path raises one timer-defer fence per fault and the
    # scheduler clears it after the next check; the heap is empty
    # (admission), so replicate the count, and the floor itself only
    # when the batch's last step was a fused delivery (the last group
    # faults, so the batch ends with its lifecycle, and is no tail,
    # whose last step is its integer chunk).
    fences = kf
    if pend[rel + k - 1] and not tail:
        kernel.defer_timers_once(
            c0 + total - retire_c - trap_c + rec_off + ret_c + fp_c
            + fault_c)
        fences -= 1
    kernel.timer_defer_fences += fences
    return acc, kf, r, total


def _replicate_events(
    cpu: "CPU", task: Task, block: FPBlock, win: _Window, rel: int, k: int,
    base: int, fi: list, codes: list, rec: list, sched: tuple, seq0: int,
    cost_t: tuple,
) -> None:
    """Per-event observer replication for the flight recorder and the
    provenance tracker.

    Only runs when one of the two is live, so the plain batch hot path
    never enters this loop; the batch's counts are bumped in
    :func:`_commit` either way.  ``fi`` lists the batch's faulting
    groups (window-relative); ``codes`` (each fault's status) and
    ``rec`` run parallel to it, ``sched`` is the batch's cycle schedule
    ``(c0, retire_c, trap_c, tapp_c, observed, sample)``, and ``cost_t``
    is the cycle-cost tuple :meth:`TraceRecorder.replicate_trees` takes.
    The flight recorder only ever sees faulting-only batches entered
    with clear status (admission), so each fault's status is its own
    codes.
    The loop itself performs only the per-event work that *must* be
    exact per event -- provenance observations, a quiet group's at its
    retirement start and a faulting group's at its masked re-execution
    (``kernel.cycles`` is slid to each stamp because the tracker reads
    it directly).  The 14-span trap trees are emitted by one bulk
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
    c0, retire_c, trap_c, tapp_c, obs, sample = sched
    kf = len(fi)
    if kf:
        fault_c, deliv_c, huser_c, _, ret_c, _, _ = cost_t
        # SIGFPE delivery and handler, before the masked re-execution.
        obs_off = fault_c + deliv_c + huser_c + ret_c
        pend = [win.pend[g] for g in fi]
        if tr is not None:
            # One summary span *plus* full per-event trees: batching
            # must never under-count.
            tr.storm(task, rip, k, sum(rec))

    marks = [0] * kf
    try:
        if prov is not None:
            # The window's pre-scan: groups with only ordinary lanes can
            # neither create, propagate, nor sink a chain, so only the
            # exceptional (and partial-tail) groups replay through the
            # exact per-event observe -- in event order, at the exact
            # cycle the per-event path observes at.
            idxs = [g for g, s in enumerate(win.sus[rel:rel + k], rel) if s]
            prov.observed += k - len(idxs)
            faults = win.faults
            for g in idxs:
                # Group ``g`` starts after the groups before it, the ``j``
                # faults' lifecycles before it and their records'
                # trace appends.
                j = 0 if faults is None else faults[g] - faults[rel]
                kernel.cycles = (
                    c0 + (g - rel) * retire_c + j * trap_c
                    + ((obs + j) // sample - obs // sample) * tapp_c)
                faulting = win.pend is not None and win.pend[g]
                if faulting:
                    kernel.cycles += obs_off + (tapp_c if rec[j] else 0)
                    flags = codes[j]
                else:
                    flags = reduce(or_, win.flags[g * lanes:(g + 1) * lanes])
                take = block.take(win.start + g)
                glo = g * lanes
                mark = prov.observe(
                    task, site, block.group(win.start + g)[:take],
                    win.bits[glo:glo + take], flags,
                )
                if faulting:
                    marks[j] = mark
        if kf and tr is not None:
            tr.replicate_trees(
                task, rip, rip + len(site.encoding), site.encoding,
                task.rsp, base, base | (ALL_CODES << MASK_SHIFT),
                [FPE_SICODE[p] for p in pend], pend, codes, rec, seq0, c0,
                cost_t, marks,
            )
    finally:
        kernel.cycles = c0
