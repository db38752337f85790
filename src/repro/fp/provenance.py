"""NaN/Inf/denorm provenance: origin -> propagation -> kill-site "coils".

FlowFPX and Herbgrind (PAPERS.md) show that the actionable view of an
exceptional value is its *coil*: the instruction that first produced it
(origin), how far it propagated through subsequent operations, and
where it was killed (overwritten by a normal value) or sank into a
non-float result (compare, float->int convert).  The simulated
substrate can provide this exactly: every scalar softfloat retirement
reports its operand and result bit patterns, so tagging and following
exceptional values needs no guest cooperation and perturbs nothing.

Tags are keyed by *bit pattern* in a small per-task map.  On x64 a NaN
propagates by forwarding the first NaN operand (quieted), so a payload
identifies its chain; infinities and denormals are likewise stable bit
patterns between operations.  Two independent origins that produce the
same bit pattern in the same task alias to the most recent producer --
a documented limitation (DESIGN.md decision #10), harmless in practice
because distinct fault sites almost always differ in payload, sign, or
magnitude.

Coverage and counts do not depend on the path taken.  The batch engine
(``repro.machine.storm``, both of its arms) runs one plain-Python
pre-scan over each window's operand and result lanes,
:meth:`ProvenanceTracker.scan_window`, observe every group
it flags (a NaN/Inf/denorm bit pattern as an input or a result) at the
cycle its per-instruction retirement would read, and count the rest as
observed.  The other hook is the CPU's one precise retirement
(``CPU._retire``), which every ``FPInstruction``, block sub-step and
handler-emulated writeback goes through: it observes each operation at
the cycle the retirement starts, before its ``fp_instr`` charge -- the
same cycle the batched paths stamp, so a chain's origin, propagation
and sink cycles are equal whichever path retired it.
Lanes of ``execute_batch``'s host tiers (the host loop and the EFT
tier) need no rule of their own: a certified lane can neither consume
nor produce an exceptional value (the :mod:`repro.fp.fastpath` operand
windows exclude non-normals and the result windows bound every result
away from overflow and underflow), and each tier recomputes every other
lane exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.isa.forms import INT_RESULT_KINDS, OpKind
from repro.trace.records import CLS_ORIGIN, CLS_SINK

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task

#: Per-task tag map capacity; FIFO eviction (oldest tag forgotten first).
TAG_CAP = 4096

#: Per-coil cap on individually remembered sink sites (the count keeps
#: incrementing past the cap).
SINK_CAP = 8

#: fmt -> (shifted exponent mask, mantissa mask): the two-AND exceptional
#: pre-test :meth:`ProvenanceTracker.observe` inlines on its hot loop
#: (ordinary values fail both branches without a method call).
_FMT_MASKS: dict = {}


def _fmt_masks(fmt) -> tuple[int, int]:
    m = _FMT_MASKS.get(fmt)
    if m is None:
        m = _FMT_MASKS[fmt] = (
            fmt.exp_mask << fmt.mant_bits, fmt.mant_mask
        )
    return m


#: form -> (in_emask, in_mmask, res_emask, res_mmask), with ``None``
#: masks for positions that have no float format (integer results,
#: int->float sources).  Catalogue forms are singletons that hash by
#: identity, so the probe costs one pointer hash.
_FORM_MASKS: dict = {}


def _form_masks(form) -> tuple:
    m = _FORM_MASKS.get(form)
    if m is not None:
        return m
    kind = form.kind
    in_fmt = None if kind is OpKind.CVT_I2F else form.fmt
    if kind in INT_RESULT_KINDS:
        # Integer results: exceptional float inputs can only sink here.
        res_fmt = None
    elif kind in (OpKind.CVT_F2F, OpKind.CVT_I2F):
        res_fmt = form.dst_fmt
    else:
        res_fmt = form.fmt
    ie, im = _fmt_masks(in_fmt) if in_fmt is not None else (None, None)
    re_, rm = _fmt_masks(res_fmt) if res_fmt is not None else (None, None)
    m = _FORM_MASKS[form] = (ie, im, re_, rm)
    return m


def classify(fmt, bits: int) -> str | None:
    """``"nan"``, ``"inf"``, ``"denorm"``, or ``None`` for ordinary values."""
    if fmt.exp_field(bits) == fmt.exp_mask:
        return "nan" if fmt.mant_field(bits) != 0 else "inf"
    if fmt.is_subnormal(bits):
        return "denorm"
    return None


@dataclass
class Origin:
    """Where an exceptional value first appeared.

    ``consumed`` marks consumption origins: the exceptional bits arrived
    as an *input* from outside the tracked window (e.g. program data),
    and this RIP is merely the first instruction seen touching them.
    """

    oid: int
    rip: int
    mnemonic: str
    kind: str  #: "nan" | "inf" | "denorm"
    cycle: int
    pid: int
    tid: int
    flags: int  #: exception flags raised by the producing operation
    consumed: bool = False


@dataclass
class Coil:
    """One origin's life story: propagation length and kill/sink sites."""

    origin: Origin
    propagations: int = 0
    last_cycle: int = 0
    sink_count: int = 0
    sinks: list = field(default_factory=list)  #: first SINK_CAP (rip, cycle)

    def add_sink(self, rip: int, cycle: int) -> None:
        self.sink_count += 1
        if len(self.sinks) < SINK_CAP:
            self.sinks.append((rip, cycle))
        self.last_cycle = cycle


class ProvenanceTracker:
    """Tags exceptional register values and accumulates coils.

    One tracker per kernel, enabled alongside the flight recorder
    (``KernelConfig.tracing``).  The CPU pre-fetches it as ``self._prov``
    (``None`` when disabled) and calls :meth:`observe` on every precise
    FP retirement.
    """

    def __init__(self, kernel: "Kernel | None" = None, tag_cap: int = TAG_CAP):
        self.kernel = kernel
        self.tag_cap = int(tag_cap)
        #: task -> {result bits -> Origin}
        self._tags: dict = {}
        self._coils: dict[int, Coil] = {}
        self._next_oid = 1
        self.observed = 0  #: operations inspected
        self.tag_evictions = 0
        # The flight recorder's tail sampler retains every tree that
        # touches an exceptional value: origins, propagations, and sinks
        # all mark the task's open trap tree (the kernel constructs the
        # tracer before this tracker, so the prefetch is safe).
        self._tr = getattr(kernel, "tracer", None)

    # ------------------------------------------------------------ tagging

    def _origin(self, task, rip: int, mnemonic: str, kind: str,
                flags: int, consumed: bool) -> Origin:
        oid = self._next_oid
        self._next_oid += 1
        cycles = self.kernel.cycles if self.kernel is not None else 0
        org = Origin(
            oid=oid, rip=rip, mnemonic=mnemonic, kind=kind, cycle=cycles,
            pid=task.process.pid, tid=task.tid, flags=flags,
            consumed=consumed,
        )
        self._coils[oid] = Coil(origin=org, last_cycle=cycles)
        return org

    def _tag(self, task, bits: int, origin: Origin) -> None:
        tags = self._tags.get(task)
        if tags is None:
            tags = self._tags[task] = {}
        if bits not in tags and len(tags) >= self.tag_cap:
            tags.pop(next(iter(tags)))
            self.tag_evictions += 1
        tags[bits] = origin

    def observe(self, task: "Task", site, inputs, results,
                flags: int) -> int:
        """Inspect one retired operation's operands and results.

        ``inputs`` is the per-lane operand tuple the instruction
        consumed, ``results`` the per-lane result bits (relation codes /
        integers for compare and float->int kinds).  Must be called with
        take-truncated lanes so padding never creates phantom coils.

        Returns the flight-recorder retention bits this operation earned
        (``CLS_ORIGIN`` for origins/propagations, ``CLS_SINK`` for
        kills/sinks, 0 for ordinary operations).  The same bits are also
        applied to the task's open trap tree via ``note_mark``; the
        return value exists for the storm driver, which replays events
        with no tree open and forwards marks to the bulk replicator.
        """
        self.observed += 1
        form = site.form
        in_emask, in_mmask, res_emask, res_mmask = _form_masks(form)
        tags = self._tags.get(task)
        cycles = self.kernel.cycles if self.kernel is not None else 0
        rip = site.address
        mark = 0

        for lane, operands in enumerate(inputs):
            # What flowed in: the first tagged exceptional operand wins
            # (mirrors the x64 first-NaN forwarding rule), else note any
            # untagged exceptional operand as an outside arrival.  The
            # exceptional test is inlined (two masked compares) because
            # this loop runs on every scalar retirement and ordinary
            # values must fall through at integer-AND speed.
            tagged = None
            arrived = None
            if in_emask is not None:
                for bits in operands:
                    e = bits & in_emask
                    if e == in_emask:
                        cls = "nan" if bits & in_mmask else "inf"
                    elif e == 0 and bits & in_mmask:
                        cls = "denorm"
                    else:
                        continue
                    org = tags.get(bits) if tags is not None else None
                    if org is not None:
                        tagged = org
                        break
                    if arrived is None:
                        arrived = (bits, cls)

            res = results[lane] if lane < len(results) else None
            res_cls = None
            if res_emask is not None and res is not None:
                e = res & res_emask
                if e == res_emask:
                    res_cls = "nan" if res & res_mmask else "inf"
                elif e == 0 and res & res_mmask:
                    res_cls = "denorm"

            if res_cls is not None:
                mark |= CLS_ORIGIN
                if tagged is not None:
                    # Propagation: the chain grows one link.
                    coil = self._coils[tagged.oid]
                    coil.propagations += 1
                    coil.last_cycle = cycles
                    self._tag(task, res, tagged)
                elif arrived is not None:
                    # Exceptional in, exceptional out, no known origin:
                    # this RIP is the consumption origin of the chain.
                    org = self._origin(
                        task, rip, form.mnemonic, arrived[1], flags,
                        consumed=True,
                    )
                    self._tag(task, arrived[0], org)
                    self._tag(task, res, org)
                else:
                    # Ordinary operands produced an exceptional result:
                    # a fresh production origin (the Herbgrind case).
                    org = self._origin(
                        task, rip, form.mnemonic, res_cls, flags,
                        consumed=False,
                    )
                    self._tag(task, res, org)
            elif tagged is not None:
                # Exceptional in, ordinary (or integer) out: the chain
                # was killed or sank here.
                self._coils[tagged.oid].add_sink(rip, cycles)
                mark |= CLS_SINK
        if mark and self._tr is not None:
            self._tr.note_mark(task, mark)
        return mark

    def scan_window(self, site, ops, results, ng: int, lanes: int,
                    last_take: int) -> list[bool]:
        """Pre-scan of ``ng`` groups of one block: which groups *might*
        touch provenance state?

        The one pre-scan of the batch engine, once per window.  ``ops``
        are the groups' operand sequences (one per operand position,
        ``ng * lanes`` flat elements each) and ``results`` the matching
        results.  Tags only ever hold
        exceptional bit patterns, so a group whose operand and result
        lanes are all ordinary can neither create, propagate, nor sink a
        chain -- the caller skips its :meth:`observe` entirely and adds
        it to :attr:`observed`, so the count is the same whichever path
        retired the group.  Returns an ``ng``-long list of bools;
        ``True`` means "replay this group through observe exactly".
        Integer operand and result positions (``cvtsi2s*`` sources,
        compare and float-to-int results) are never exceptional and are
        skipped.  The batch engine computes this once per window and
        slices it per committed batch, so the whole remaining block
        costs one plain-Python pass per operand position.  The final
        group is conservatively flagged when partial (``last_take <
        lanes``), because its padding lanes are unverified.

        The per-lane test is two compares on ``x = bits & (emask |
        mmask)``: NaN/Inf iff ``x >= emask`` (the exponent field is
        saturated exactly when the masked value reaches ``emask``), and
        denorm iff ``0 < x <= mmask`` (a zero exponent field, a nonzero
        mantissa).
        """
        ie, im, re_, rm = _form_masks(site.form)
        sus = [False] * ng
        for emask, mmask, seqs in ((ie, im, ops), (re_, rm, (results,))):
            if emask is None:
                continue
            both = emask | mmask
            for a in seqs:
                for i, v in enumerate(a):
                    x = v & both
                    if x >= emask or 0 < x <= mmask:
                        sus[i // lanes] = True
        if last_take < lanes and ng:
            sus[-1] = True
        return sus

    # ------------------------------------------------------------- views

    def coils(self) -> list[Coil]:
        """All coils, longest propagation first (ties by origin id)."""
        return sorted(
            self._coils.values(),
            key=lambda c: (-c.propagations, -c.sink_count, c.origin.oid),
        )

    def top(self) -> list[dict]:
        """Figure-style rollup: one row per (origin RIP, kind), ranked by
        total propagation length."""
        rows: dict[tuple, dict] = {}
        for coil in self._coils.values():
            key = (coil.origin.rip, coil.origin.kind)
            row = rows.get(key)
            if row is None:
                row = rows[key] = {
                    "rip": coil.origin.rip,
                    "kind": coil.origin.kind,
                    "mnemonic": coil.origin.mnemonic,
                    "origins": 0,
                    "propagations": 0,
                    "sinks": 0,
                }
            row["origins"] += 1
            row["propagations"] += coil.propagations
            row["sinks"] += coil.sink_count
        return sorted(
            rows.values(),
            key=lambda r: (-r["propagations"], -r["sinks"], r["rip"], r["kind"]),
        )

    def rollup_rows(self) -> tuple[tuple, ...]:
        """The :meth:`top` rollup as plain tuples for campaign merging:
        ``(rip, kind, mnemonic, origins, propagations, sinks)``."""
        return tuple(
            (r["rip"], r["kind"], r["mnemonic"], r["origins"],
             r["propagations"], r["sinks"])
            for r in self.top()
        )


def verify_attribution(coils: list, expected: dict) -> tuple[int, int]:
    """Check kill-site -> origin attribution against an expectation map.

    ``expected`` maps a kill-site RIP to ``(origin_rip, kind)`` (the
    shape :func:`repro.validation.programs.provenance_program` returns).
    Returns ``(attributed, total)`` -- the nanchain "3/3" acceptance
    check shared by ``repro.study trace coils`` and the overhead
    benchmark.
    """
    attributed = 0
    for sink_rip, (origin_rip, kind) in expected.items():
        if any(
            c.origin.rip == origin_rip
            and c.origin.kind == kind
            and any(rip == sink_rip for rip, _ in c.sinks)
            for c in coils
        ):
            attributed += 1
    return attributed, len(expected)


def merge_rollups(per_run: list) -> list[tuple]:
    """Merge :meth:`ProvenanceTracker.rollup_rows` across runs, summing
    counts by (rip, kind, mnemonic); deterministic order."""
    acc: dict[tuple, list] = {}
    for rows in per_run:
        for rip, kind, mnemonic, origins, props, sinks in rows:
            key = (rip, kind, mnemonic)
            row = acc.get(key)
            if row is None:
                acc[key] = [origins, props, sinks]
            else:
                row[0] += origins
                row[1] += props
                row[2] += sinks
    merged = [
        (rip, kind, mnemonic, o, p, s)
        for (rip, kind, mnemonic), (o, p, s) in acc.items()
    ]
    merged.sort(key=lambda r: (-r[4], -r[5], r[0], r[1]))
    return merged
