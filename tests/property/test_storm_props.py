"""The storm batch driver must be byte-identical to per-event stepping.

The ``"storm"`` rung of ``KernelConfig.fastpaths`` adds DESIGN.md
decision #11 over the ``"blockexec"`` rung below it: batches of
consecutive same-RIP groups -- faulting ones with their whole trap
lifecycles, quiet ones as plain retirements -- are replicated from one
array-kernel pass instead of being stepped one event at a time, bounded
by the scheduler quantum and the virtual timer.  Nothing
architecturally observable may change: trace
files (every record field, including the float timestamp), cycle
counts, user/system splits, virtual time, ``%mxcsr``, results.  The
host-side observers must not under-count either: every count the
per-event path bumps is bumped by the same amount, and flight-recorder
span trees are replicated stamp for stamp.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.flags import UE, Flag
from repro.fp.formats import float_to_bits32, float_to_bits64
from repro.fpspy import fpspy_env
from repro.guest.ops import LibcCall
from repro.guest.program import KernelBuilder
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.signals import FPE_SICODE, SIG_IGN, Signal
from repro.telemetry import flatten_snapshot
from repro.trace.records import unpack_records

_SPECIALS32 = [
    0x00000000, 0x80000000,  # +-0
    0x7F800000, 0xFF800000,  # +-inf
    0x7FC00000, 0x7FA00000,  # qNaN, sNaN
    0x00000001, 0x00800000,  # subnormal, min normal
    0x7F000000, 0x7F7FFFFF,  # overflow boundaries
    0x3F800000, 0xBF000000,  # 1.0, -0.5
]

bits32 = st.one_of(
    st.sampled_from(_SPECIALS32),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)

_SPECIALS64 = [
    0x0000000000000000, 0x8000000000000000,  # +-0
    0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
    0x7FF8000000000000, 0x7FF4000000000000,  # qNaN, sNaN
    0x0000000000000001, 0x0010000000000000,  # subnormal, min normal
    0x47EFFFFFE0000000, 0x3810000000000000,  # binary32 max and min normal
    0x41E0000000000000, 0xC1E0000000000001,  # just past the int32 range
    0x3FF8000000000000, 0xBFE0000000000000,  # 1.5, -0.5
]

bits64 = st.one_of(
    st.sampled_from(_SPECIALS64),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)

#: ``cvtsi2sd`` sources: int64 extremes and the integers past 2**53.
int64s = st.one_of(
    st.sampled_from([0, -1, (1 << 53) + 1, (1 << 63) - 1, -(1 << 63)]),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
)

#: (mnemonic, one operand strategy per position): the packed FMA storm
#: (8 lanes, the paper's GROMACS case), scalar arithmetic shapes (1
#: lane, padded tails), and the kinds the per-form executor batches --
#: compares, rounds, conversions and dot products, in binary32, binary64
#: and from int64.
_FORMS = [
    ("vfmaddps", (bits32,) * 3), ("addss", (bits32,) * 2),
    ("divss", (bits32,) * 2), ("sqrtss", (bits32,)),
    ("ucomiss", (bits32,) * 2), ("roundss", (bits32,)),
    ("cvttss2si", (bits32,)), ("vdpps", (bits32,) * 2),
    ("vcvtps2dq", (bits32,)),
    ("cvtsd2ss", (bits64,)), ("cvttsd2si", (bits64,)),
    ("roundsd", (bits64,)), ("dppd", (bits64,) * 2),
    ("cvtsi2sd", (int64s,)),
]


def _run(mnemonic, streams, interleave, storm, *, config=None,
         prelude=(), **env):
    kb = KernelBuilder()
    site = kb.site(mnemonic, key="storm")
    k = Kernel(KernelConfig(fastpaths="storm" if storm else "blockexec",
                            **(config or {})))
    out = {}

    def main():
        for op in prelude:
            yield op
        out["results"] = yield from kb.emit(
            site, *streams, interleave=interleave
        )

    proc = k.exec_process(
        main, env=fpspy_env("individual", **env), name="stormy"
    )
    k.run()
    task = proc.main_task
    return k, {
        "results": list(out["results"]),
        # Trace/meta files are the guest-visible record contract.  The
        # /proc/fpspy introspection mounts are host observability and
        # differ by design (extra storm spans, scheduler counters);
        # their no-under-count invariants are asserted explicitly below.
        "state": {
            p: k.vfs.read(p)
            for p in k.vfs.listdir("")
            if not p.startswith("/proc/")
        },
        "vtime": task.vtime,
        "mxcsr": task.mxcsr.value,
        "utime": task.utime_cycles,
        "stime": task.stime_cycles,
        "cycles": k.cycles,
    }


@settings(max_examples=90, deadline=None)
@given(
    form=st.sampled_from(_FORMS),
    data=st.data(),
    n=st.integers(min_value=1, max_value=96),
    interleave=st.sampled_from([0, 2]),
    sample=st.sampled_from([1, 3]),
)
def test_storm_byte_identical_to_per_event_path(
    form, data, n, interleave, sample
):
    mnemonic, operands = form
    streams = [
        data.draw(st.lists(ops, min_size=n, max_size=n)) for ops in operands
    ]
    _, on = _run(mnemonic, streams, interleave, True, sample=sample)
    _, off = _run(mnemonic, streams, interleave, False, sample=sample)
    assert on == off


def test_storm_narrowing_to_an_exact_tiny_value_traps_under_unmasked_ue():
    """With Underflow unmasked, a narrowing whose result is tiny traps
    even when it is exact (2**-130 fits binary32 as a subnormal).  The
    executor kinds carry a group's tininess on its first lane, so a tiny
    second lane of ``cvtpd2ps`` must fault its group too; storm must
    batch these lifecycles and equal the per-event path."""
    tiny, one, inexact = (float_to_bits64(v) for v in (2.0**-130, 1.0, 0.1))
    pattern = [tiny, one, one, tiny, inexact, one, one, one]
    for mnemonic in ("cvtsd2ss", "cvtpd2ps"):
        streams = [pattern * 6]
        kf, on = _run(mnemonic, streams, 2, True)
        _, off = _run(mnemonic, streams, 2, False)
        assert on == off, mnemonic
        assert kf.cpu.storm_stats["groups"] >= 1, mnemonic
        [trace] = [d for p, d in on["state"].items() if p.endswith(".ind")]
        sicodes = [r.sicode for r in unpack_records(trace)]
        assert len(sicodes) == 18, mnemonic
        assert sicodes.count(FPE_SICODE[UE]) == 12, mnemonic


def test_storm_rejects_executor_kinds_under_the_recorder():
    """Under the flight recorder, where each batch stamps a ``storm``
    span, the kinds off batchfloat's host loop still take the per-event
    path and count an ``uncovered`` bail-out; untraced they batch."""
    streams = [[float_to_bits32(1.1 + 0.3 * i) for i in range(64)]] * 2
    kf, on = _run("ucomiss", streams, 2, True, config={"tracing": True})
    _, off = _run("ucomiss", streams, 2, False, config={"tracing": True})
    assert on == off
    assert kf.cpu.storm_stats["batches"] == 0
    assert kf.cpu.storm_stats["bailouts"]["uncovered"] >= 1
    kf, _ = _run("ucomiss", streams, 2, True)
    assert kf.cpu.storm_stats["batches"] >= 1
    assert "uncovered" not in kf.cpu.storm_stats["bailouts"]


@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=8, max_value=64),
    maxcount=st.integers(min_value=1, max_value=12),
)
def test_storm_respects_maxcount_disarm(data, n, maxcount):
    """The maxcount disarm transition must land on the exact event the
    per-event path disarms at (the batch headroom cap is conservative,
    so the transition itself always runs per-event)."""
    streams = [
        data.draw(st.lists(bits32, min_size=n, max_size=n)) for _ in range(3)
    ]
    _, on = _run("vfmaddps", streams, 2, True, maxcount=maxcount)
    _, off = _run("vfmaddps", streams, 2, False, maxcount=maxcount)
    assert on == off


def _storm_streams(n):
    a = [float_to_bits32(1.1 + (i % 24) * 0.3) for i in range(n)]
    b = [float_to_bits32(0.7 + (i % 12) * 0.21) for i in range(n)]
    c = [float_to_bits32(-0.033 * (1 + i % 6)) for i in range(n)]
    return [a, b, c]


def test_storm_batches_actually_engage():
    """Guard against silently testing a driver that never admits."""
    k, _ = _run("vfmaddps", _storm_streams(256), 2, True)
    st_ = k.cpu.storm_stats
    assert st_["batches"] >= 1
    assert st_["groups"] >= 16


#: Small powers of four: sums, products, quotients and square roots of
#: these are exact, so a group built from them raises no condition.
_EXACT32 = [float_to_bits32(2.0 ** e) for e in (-4, -2, 0, 2, 4)]
_INEXACT32 = [float_to_bits32(v) for v in (1.1, 0.7, -0.033, 3.3, 0.21)]
#: Signaling NaNs: every covered form raises Invalid and nothing else.
_SNAN32 = [0x7FA00000, 0xFFA00001]
_POOLS = {"q": _EXACT32, "f": _INEXACT32, "i": _SNAN32}

#: Group kinds: quiet (exact operands), Inexact only, Invalid only, or
#: random bit patterns (specials, NaNs, denormals: anything may fault).
#: Capturing everything, "f" and "i" fault; under ``except_list=
#: "Invalid"`` an "f" group raises masked codes only and leaves them in
#: the sticky status.
_group = st.one_of(
    st.tuples(st.sampled_from("qqffi"), st.integers(0, 4)),
    st.tuples(st.just("?"), st.lists(bits32, min_size=1, max_size=3)),
)


def _group_streams(groups, lanes, arity):
    streams = [[] for _ in range(arity)]
    for kind, arg in groups:
        for lane in range(lanes):
            for pos in range(arity):
                i = lane * arity + pos
                if kind == "?":
                    b = arg[i % len(arg)]
                else:
                    pool = _POOLS[kind]
                    b = pool[(arg + i) % len(pool)]
                streams[pos].append(b)
    return streams


#: Snapshot keys (and key prefixes, ending in ".") that the per-event
#: path and a storm batch must agree on: what FPSpy observed and
#: recorded, per-flag events, delivered signals, fused traps and
#: timer-defer fences.
_PARITY_KEYS = (
    "fpspy.observed", "fpspy.recorded", "fpspy.events.",
    "kernel.signals.delivered.", "cpu.trapfusion.fused",
    "kernel.timers.defer_fences",
)


def _parity_counts(k):
    flat = flatten_snapshot(k.telemetry.snapshot())
    return {key: v for key, v in flat.items()
            if key.startswith(_PARITY_KEYS)}


def test_storm_telemetry_does_not_undercount():
    """The snapshot's counts must match the per-event path's: fpspy
    observed/recorded, per-flag events, delivered-signal counts,
    fused-trap count and timer-defer fences --
    on a pure storm and on a stream that mixes quiet groups in, where
    quiet groups ride the batches."""
    cfg = {"telemetry": True}
    assert _check_telemetry_parity(_storm_streams(192), cfg) == 0
    mixed = _group_streams(
        [(kind, 0) for kind in "fqqfffqfqqqqffqfqfqqf" * 3], 8, 3)
    assert _check_telemetry_parity(mixed, cfg) >= 1


def _check_telemetry_parity(streams, cfg):
    kf, on = _run("vfmaddps", streams, 2, True, config=cfg)
    ks, off = _run("vfmaddps", streams, 2, False, config=cfg)
    assert kf.cpu.storm_stats["batches"] >= 1
    assert on == off

    counts = _parity_counts(kf)
    assert counts == _parity_counts(ks)
    assert counts["fpspy.observed"] > 0
    assert counts["kernel.signals.delivered.SIGFPE"] > 0
    cpu_snap = kf.telemetry.snapshot()["scopes"]["cpu"]
    assert cpu_snap["storm.quiet"] == kf.cpu.storm_stats["quiet"]
    return kf.cpu.storm_stats["quiet"]


def test_storm_span_trees_replicated():
    """With the flight recorder on, every per-event lifecycle tree the
    precise path stamps must appear -- same names, cycle stamps, and
    args -- plus exactly one extra ``storm`` summary span per batch.
    Second case: capturing Invalid only, an Inexact-only group leaves
    masked status in front of a faulting run; a traced batch must not
    start on it, because the faulting group's masked re-execution span
    holds only its own codes while its record holds the carried ones."""
    cfg = {"tracing": True, "trace_capacity": 1 << 20}

    def shape(k, drop_storm):
        spans = []
        for s in k.tracer.spans():
            if drop_storm and s.name == "storm":
                continue
            spans.append((s.name, s.cycles, s.pid, s.tid, tuple(
                sorted(s.args.items())
            )))
        return spans

    masked = _group_streams([_INVALID, ("f", 0)] + [_INVALID] * 6, 8, 3)
    for streams, env in ((_storm_streams(96), {}),
                         (masked, {"except_list": "Invalid"})):
        kf, on = _run("vfmaddps", streams, 2, True, config=cfg, **env)
        ks, off = _run("vfmaddps", streams, 2, False, config=cfg, **env)
        assert on == off
        assert kf.cpu.storm_stats["batches"] >= 1

        storm_spans = [s for s in kf.tracer.spans() if s.name == "storm"]
        assert len(storm_spans) == kf.cpu.storm_stats["batches"]
        assert sum(s.args["groups"] for s in storm_spans) == \
            kf.cpu.storm_stats["groups"]
        assert shape(kf, True) == shape(ks, False)
        assert kf.tracer.open_trees() == 0
        assert kf.tracer.trees_completed == ks.tracer.trees_completed


def test_storm_off_matches_under_poisson_sampler():
    """An armed virtual timer bounds each batch instead of rejecting it:
    the batch runs up to the expiry, ending in the expiring group as a
    tail when the expiry falls inside its integer phase, so the
    sampler's SIGVTALRM lands on the exact instruction.  A
    Poisson-sampled run must stay byte-identical while batching."""
    streams = _storm_streams(1024)
    kf, on = _run(
        "vfmaddps", streams, 2, True,
        poisson="150:100", timer="virtual", seed=7,
    )
    _, off = _run(
        "vfmaddps", streams, 2, False,
        poisson="150:100", timer="virtual", seed=7,
    )
    assert on == off
    assert kf.cpu.storm_stats["batches"] >= 1
    assert "timer" not in kf.cpu.storm_stats["bailouts"]


def test_storm_armed_timer_rejects_when_traced_or_real():
    """Two armed-timer cases still reject every batch ("timer"
    bail-out) and stay byte-identical by falling back: a real timer,
    whose expiry races the cycle schedule, and a virtual timer under the
    flight recorder, where batch boundaries are output (one ``storm``
    span per batch)."""
    streams = _storm_streams(1024)
    # Real-timer periods are microseconds: the whole run is about half a
    # millisecond of simulated time, so the phases must be shorter.
    for timer, config, poisson in (
        ("real", None, "1:0.01"),
        ("virtual", {"tracing": True}, "150:100"),
    ):
        env = dict(poisson=poisson, timer=timer, seed=7)
        kf, on = _run("vfmaddps", streams, 2, True, config=config, **env)
        _, off = _run("vfmaddps", streams, 2, False, config=config, **env)
        assert on == off, timer
        assert kf.cpu.storm_stats["batches"] == 0, timer
        assert kf.cpu.storm_stats["bailouts"].get("timer", 0) >= 1, timer


@settings(max_examples=40, deadline=None)
@given(
    form=st.sampled_from([("vfmaddps", 3), ("addss", 2), ("divss", 2)]),
    tasks=st.lists(st.lists(_group, min_size=10, max_size=48),
                   min_size=2, max_size=2),
    # Small quanta put slice ends inside batches; large ones let a batch
    # run a whole block.
    quantum=st.one_of(st.integers(min_value=4, max_value=12),
                      st.integers(min_value=4, max_value=128)),
    interleave=st.sampled_from([0, 2]),
    sample=st.integers(min_value=1, max_value=3),
    maxcount=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    # Mean on/off periods in instructions; a task retires at most 147.
    poisson=st.one_of(
        st.none(),
        st.tuples(st.integers(min_value=4, max_value=120),
                  st.integers(min_value=1, max_value=30)),
    ),
    telemetry=st.booleans(),
)
def test_storm_mixed_quiet_and_faulting_groups_byte_identical(
    form, tasks, quantum, interleave, sample, maxcount, poisson, telemetry
):
    """Batches spanning quiet and faulting groups, two interleaved tasks,
    any quantum, subsampling, ``maxcount`` and a Poisson virtual timer:
    the ``"storm"`` rung must equal ``"blockexec"`` in every
    guest-visible byte and, with telemetry on, in every per-event count
    of the snapshot."""
    mnemonic, arity = form
    lanes = 8 if mnemonic == "vfmaddps" else 1
    # A leading quiet group: each task's first batch attempt opens its
    # first slice, so without a sampler it batches quiet work.
    streams_per_task = [
        _group_streams([("q", 0)] + groups, lanes, arity) for groups in tasks
    ]
    env = dict(sample=sample, maxcount=maxcount, seed=11)
    if poisson is not None:
        env.update(poisson=f"{poisson[0]}:{poisson[1]}", timer="virtual")

    def run(fastpaths):
        k = Kernel(KernelConfig(
            fastpaths=fastpaths, quantum=quantum, telemetry=telemetry))
        outs = []
        for t, streams in enumerate(streams_per_task):
            kb = KernelBuilder()
            site = kb.site(mnemonic, key="mixed")
            out = {}

            def main(kb=kb, site=site, out=out, streams=streams):
                out["results"] = yield from kb.emit(
                    site, *streams, interleave=interleave)

            proc = k.exec_process(
                main, env=fpspy_env("individual", **env), name=f"mixed{t}")
            outs.append((proc, out))
        k.run()
        per_task = [
            (list(out["results"]), p.main_task.vtime,
             p.main_task.mxcsr.value, p.main_task.utime_cycles,
             p.main_task.stime_cycles)
            for p, out in outs
        ]
        counts = _parity_counts(k) if telemetry else None
        state = {p: k.vfs.read(p) for p in k.vfs.listdir("")
                 if not p.startswith("/proc/")}
        return k, (k.cycles, per_task, counts, state)

    kf, on = run("storm")
    _, off = run("blockexec")
    assert on == off
    if poisson is None:
        assert kf.cpu.storm_stats["quiet"] >= 1


# ------------------------------------------------------ admission bounds
#
# Each admission cap is a bisection over the window's prefix lists (or,
# for the virtual timer, one division).  These cases sit exactly on a
# cap's boundary, so an off-by-one in either direction changes how many
# groups the driver commits; the byte-identity oracle alone cannot see a
# cap that is one group too tight.

#: All eight lanes raise Invalid and nothing else (inf * 0 + 1).
_INVALID = ("?", [0x7F800000, 0x00000000, 0x3F800000])


def _admitted(groups, *, interleave=2, config=None, prelude=(), **env):
    """Storm on must equal off; returns the storm-on batch counters."""
    streams = _group_streams(
        [g if isinstance(g, tuple) else (g, 0) for g in groups], 8, 3)
    kf, on = _run("vfmaddps", streams, interleave, True, config=config,
                  prelude=prelude, **env)
    _, off = _run("vfmaddps", streams, interleave, False, config=config,
                  prelude=prelude, **env)
    assert on == off
    return kf.cpu.storm_stats


def test_storm_quantum_cap_admits_a_group_ending_on_the_budget():
    """Interleaved faulting groups need 3 slice units each, so a
    12-unit quantum fits exactly 4: ``need_end`` of the fourth equals
    the budget and must be admitted, every slice."""
    st_ = _admitted("f" * 40, config={"quantum": 12})
    assert (st_["groups"], st_["batches"]) == (40, 10)
    assert st_["bailouts"] == {}


def _vtimer(initial):
    # The guest arms its own one-shot virtual timer and ignores the
    # signal; the setitimer call retires one unit after arming.
    return (LibcCall("signal", (int(Signal.SIGVTALRM), SIG_IGN)),
            LibcCall("setitimer", ("virtual", initial)))


def test_storm_vtimer_cap_of_zero_and_one_group():
    """A batch runs up to the virtual timer's expiry.  Each interleaved
    group retires 3 units: with 3 left the expiry falls on the first
    group's last unit, so that group batches whole; with 6 left two
    groups do.  The rest batch once the timer fired, and no group goes
    per-event.  (An expiry on a group's FP retirement, where the cap is
    zero groups, is the ``b == 1`` case of the tail test below.)"""
    st_ = _admitted("f" * 20, prelude=_vtimer(4))
    assert (st_["groups"], st_["batches"]) == (20, 2)
    assert st_["bailouts"] == {}
    st_ = _admitted("f" * 20, prelude=_vtimer(7))
    assert (st_["groups"], st_["batches"]) == (20, 2)
    assert st_["bailouts"] == {}


def test_storm_vtimer_tail_boundaries():
    """The expiring group rides the batch as a tail exactly when the
    expiry falls strictly inside its integer phase.  Interleave 4 makes
    groups of ``u = 5`` units, and the prelude leaves ``b`` units from
    the first group's start to the expiry.  ``b = 1`` lands on that
    group's FP retirement, where a fault's SIGTRAP cannot fuse: it goes
    per-event (``short``), one sub-step for its FP instruction (two when
    it faults: the fault, then the masked re-execution) and one for its
    integer phase.  ``b = 2`` and ``b = u - 1`` end the first batch in a
    tail, and one sub-step runs the rest of its phase after the
    SIGVTALRM.  ``b = u`` ends the group on its last unit, so it batches
    whole.  The rest of the block batches once the one-shot timer fired.
    Faulting and quiet tails alike."""
    for kind, per_event in (("f", 3), ("q", 2)):
        for b, want in (
            (1, (19, 1, {"short": 1}, per_event)),
            (2, (20, 2, {}, 1)),
            (4, (20, 2, {}, 1)),
            (5, (20, 2, {}, 0)),
        ):
            streams = _group_streams([(kind, 0)] * 20, 8, 3)
            env = dict(prelude=_vtimer(b + 1))
            kf, on = _run("vfmaddps", streams, 4, True, **env)
            _, off = _run("vfmaddps", streams, 4, False, **env)
            assert on == off, (kind, b)
            st_ = kf.cpu.storm_stats
            got = (st_["groups"], st_["batches"], st_["bailouts"],
                   kf.cpu.blk_substeps)
            assert got == want, (kind, b)


def test_storm_vtimer_expiry_on_a_retirement_without_integer_phase():
    """With no integer phase every group's last unit is its FP
    retirement, so an expiry there is the ``b == 1`` case: a faulting
    group's re-execution posts the SIGVTALRM before its SIGTRAP, whose
    delivery then cannot fuse.  The group goes per-event.  Batching it
    would leave the guest-visible bytes equal but replicate one fused
    trap (and timer-defer fence) the per-event path never takes, so the
    per-event counts must match too."""
    streams = _group_streams([("f", 0)] * 20, 8, 3)
    env = dict(prelude=_vtimer(2), config={"telemetry": True})
    kf, on = _run("vfmaddps", streams, 0, True, **env)
    ks, off = _run("vfmaddps", streams, 0, False, **env)
    assert on == off
    assert _parity_counts(kf) == _parity_counts(ks)
    st_ = kf.cpu.storm_stats
    assert (st_["groups"], st_["batches"], st_["bailouts"]) == (
        19, 1, {"short": 1})


def test_storm_maxcount_room_of_zero_and_one():
    """Headroom under ``maxcount`` counts faulting groups only.  Room 1
    admits one faulting group; room 0 still admits the quiet groups
    before the next fault."""
    st_ = _admitted("f" * 12, maxcount=2)
    assert (st_["groups"], st_["batches"], st_["quiet"]) == (1, 1, 0)
    st_ = _admitted("qqq" + "f" * 9, maxcount=1)
    assert (st_["groups"], st_["batches"], st_["quiet"]) == (3, 1, 3)


def test_storm_masked_only_groups_ride_the_batch():
    """With only Invalid captured, an Inexact-only group raises masked
    codes alone: it rides the batch as a quiet group and leaves PE in
    the sticky status.  The next fault's record carries it in both its
    mxcsr and codes fields, that fault's SIGTRAP handler clears it, and
    the batch ends with the status its trailing groups left."""
    ie, pe = int(Flag.IE), int(Flag.PE)
    groups = [_INVALID, "f", _INVALID, "q", "f", "f", _INVALID, _INVALID,
              "f", "q"]
    streams = _group_streams(
        [g if isinstance(g, tuple) else (g, 0) for g in groups], 8, 3)
    kf, on = _run("vfmaddps", streams, 2, True, except_list="Invalid")
    _, off = _run("vfmaddps", streams, 2, False, except_list="Invalid")
    assert on == off
    st_ = kf.cpu.storm_stats
    assert (st_["groups"], st_["batches"]) == (10, 1)
    assert st_["bailouts"] == {}
    [trace] = [d for p, d in on["state"].items() if p.endswith(".ind")]
    records = unpack_records(trace)
    assert [r.codes for r in records] == [ie, ie | pe, ie | pe, ie]
    assert [r.mxcsr & 0x3F for r in records] == [ie, ie | pe, ie | pe, ie]
    assert on["mxcsr"] & 0x3F == pe


@settings(max_examples=30, deadline=None)
@given(
    form=st.sampled_from([("vfmaddps", 3), ("addss", 2), ("divss", 2)]),
    groups=st.lists(_group, min_size=4, max_size=48),
    # Masked codes the guest raises before the loop, so the first batch
    # enters with dirty sticky status.
    raised=st.integers(0, 0x3F).map(lambda b: b & ~int(Flag.IE)),
    quantum=st.integers(min_value=4, max_value=64),
    interleave=st.sampled_from([0, 2]),
    sample=st.integers(min_value=1, max_value=3),
)
def test_storm_carries_sticky_status_byte_identical(
    form, groups, raised, quantum, interleave, sample
):
    """Under ``except_list="Invalid"`` quiet groups OR masked codes into
    the sticky status, faulting groups record it and clear it: storm on
    must equal off in trace bytes, cycles and the final ``%mxcsr``, and
    in the snapshot's per-event counts (``fpspy.events.*`` is keyed by
    each fault's accumulated codes)."""
    mnemonic, arity = form
    lanes = 8 if mnemonic == "vfmaddps" else 1
    streams = _group_streams(groups, lanes, arity)
    prelude = (LibcCall("feraiseexcept", (raised,)),) if raised else ()
    # FPSpy steps aside on fenv calls unless told otherwise.
    env = dict(except_list="Invalid", sample=sample,
               extra={"FPE_DISABLE": "signals"})
    cfg = {"telemetry": True, "quantum": quantum}
    kf, on = _run(mnemonic, streams, interleave, True, config=cfg,
                  prelude=prelude, **env)
    ks, off = _run(mnemonic, streams, interleave, False, config=cfg,
                   prelude=prelude, **env)
    assert on == off
    assert _parity_counts(kf) == _parity_counts(ks)
    assert "status" not in kf.cpu.storm_stats["bailouts"]
