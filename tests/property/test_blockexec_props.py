"""The FPBlock engine must be architecturally indistinguishable from the
per-instruction stream.

Each example streams random operands -- including NaNs, infinities,
subnormals, and boundary magnitudes, i.e. lanes the host-EFT tier of
``execute_batch`` cannot certify -- through one code site three ways:

* ``fastpaths="storm"``: the batch fast path (when quiescent);
* ``fastpaths="trapfast"``: the block's precise sub-step engine;
* ``block=False``: the legacy one-``FPInstruction``-per-group stream,
  which is the ground-truth oracle.

A drawn *capture set* of unmasked exceptions turns on an FPSpy
individual-mode-style handler pair (SIGFPE masks-all and sets TF; the
following SIGTRAP restores the capture set and clears TF), so examples
exercise the quiescence transitions and fault-before-writeback replay,
and the observable record -- results, fault/trap landing points in
virtual time, sticky flags, cycle counts -- must match bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.formats import BINARY32, float_to_bits64
from repro.guest.ops import LibcCall
from repro.guest.program import KernelBuilder
from repro.isa.forms import form as form_of
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.signals import Signal

_SPECIALS64 = [
    0x0000000000000000, 0x8000000000000000,  # +-0
    0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
    0x7FF8000000000000,  # qNaN
    0x7FF4000000000000,  # sNaN
    0x0000000000000001, 0x800FFFFFFFFFFFFF,  # subnormals
    0x0010000000000000, 0x7FEFFFFFFFFFFFFF,  # min/max normal
    0x3FF0000000000000, 0xBFE0000000000000,  # 1.0, -0.5
]

bits64 = st.one_of(
    st.sampled_from(_SPECIALS64),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)

#: (mnemonic, arity) over both scalar and packed binary64 forms, so both
#: the 1-lane and 2-lane (tail-padded) group shapes are covered.
_FORMS64 = [
    ("addsd", 2), ("subsd", 2), ("mulsd", 2), ("divsd", 2),
    ("minsd", 2), ("maxsd", 2), ("sqrtsd", 1),
    ("addpd", 2), ("mulpd", 2), ("divpd", 2), ("sqrtpd", 1),
]

#: FE_* exception sets a guest may unmask (glibc bit values; the MXCSR
#: mask bits are these shifted left 7).  Empty = stays quiescent.
_CAPTURE_SETS = [0x00, 0x20, 0x1D, 0x3F]


def _run(mnemonic, streams, interleave, capture, *, fastpaths, block):
    """Execute the stream; return every architecturally observable fact."""
    kb = KernelBuilder()
    site = kb.site(mnemonic)
    k = Kernel(KernelConfig(fastpaths=fastpaths))
    events = []
    out = {}

    def on_fpe(signo, info, uctx):
        events.append(("fpe", info.code, info.addr, k.current_task.vtime,
                       uctx.mcontext.mxcsr))
        uctx.mcontext.mxcsr |= 0x1F80  # mask everything, single-step
        uctx.mcontext.trap_flag = True

    def on_trap(signo, info, uctx):
        events.append(("trap", k.current_task.vtime))
        uctx.mcontext.mxcsr &= ~(capture << 7)  # restore the capture set
        uctx.mcontext.trap_flag = False

    def main():
        yield LibcCall("sigaction", (int(Signal.SIGFPE), on_fpe))
        yield LibcCall("sigaction", (int(Signal.SIGTRAP), on_trap))
        if capture:
            yield LibcCall("feenableexcept", (capture,))
        out["results"] = yield from kb.emit(
            site, *streams, interleave=interleave, block=block
        )

    proc = k.exec_process(main, env={}, name="prop")
    k.run()
    task = proc.main_task
    return {
        "results": list(out["results"]),
        "events": events,
        "vtime": task.vtime,
        "mxcsr": task.mxcsr.value,
        "utime": task.utime_cycles,
        "stime": task.stime_cycles,
        "cycles": k.cycles,
    }


@settings(max_examples=40, deadline=None)
@given(
    form=st.sampled_from(_FORMS64),
    data=st.data(),
    n=st.integers(min_value=1, max_value=24),
    interleave=st.sampled_from([0, 3]),
    capture=st.sampled_from(_CAPTURE_SETS),
)
def test_block_engine_bit_equivalent_to_instruction_stream(
    form, data, n, interleave, capture
):
    mnemonic, arity = form
    streams = [
        data.draw(st.lists(bits64, min_size=n, max_size=n))
        for _ in range(arity)
    ]
    oracle = _run(mnemonic, streams, interleave, capture,
                  fastpaths="trapfast", block=False)
    substep = _run(mnemonic, streams, interleave, capture,
                   fastpaths="trapfast", block=True)
    fast = _run(mnemonic, streams, interleave, capture,
                fastpaths="storm", block=True)
    assert substep == oracle
    assert fast == oracle


_SPECIALS32 = [
    0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
    0x7FC00000, 0x7FA00000, 0x00000001, 0x00800000, 0x3F800000,
]

bits32 = st.one_of(
    st.sampled_from(_SPECIALS32),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)


#: ``cvtsi2sd`` sources: signed 64-bit integers, weighted toward the
#: sign boundary and the magnitudes past 2**53 where the convert rounds.
int64s = st.one_of(
    st.sampled_from([
        0, 1, -1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, -(1 << 53) - 1,
        (1 << 62) + 3, (1 << 63) - 1, -(1 << 63),
    ]),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
)

#: Forms off batchfloat's host loop, with one operand strategy per
#: operand position: compares, converts (float<->int, both float
#: widths), round and the 2-lane dot product.
_EXECUTOR_FORMS = [
    ("ucomisd", (bits64, bits64)),
    ("comisd", (bits64, bits64)),
    ("cvtsd2si", (bits64,)),
    ("cvttsd2si", (bits64,)),
    ("cvtsd2ss", (bits64,)),
    ("cvtss2sd", (bits32,)),
    ("roundsd", (bits64,)),
    ("dppd", (bits64, bits64)),
    ("cvtsi2sd", (int64s,)),
]


@settings(max_examples=90, deadline=None)
@given(
    form=st.sampled_from(_EXECUTOR_FORMS),
    data=st.data(),
    n=st.integers(min_value=1, max_value=12),
    capture=st.sampled_from([0x00, 0x3F]),
)
def test_non_vectorizable_forms_use_group_path_equivalently(
    form, data, n, capture
):
    """Forms off batchfloat's host loop commit their quiescent chunks
    through ``execute_batch``'s per-form executor tier, one executor call
    per group, and write integer results (compare relation codes,
    converted integers) and take integer sources (``cvtsi2sd``) through
    the same block arrays; same contract."""
    mnemonic, operands = form
    streams = [
        data.draw(st.lists(ops, min_size=n, max_size=n)) for ops in operands
    ]
    oracle = _run(mnemonic, streams, 2, capture,
                  fastpaths="trapfast", block=False)
    substep = _run(mnemonic, streams, 2, capture,
                   fastpaths="trapfast", block=True)
    fast = _run(mnemonic, streams, 2, capture, fastpaths="storm", block=True)
    assert substep == oracle
    assert fast == oracle


# ------------------------------------------------ one lane format, two inputs

#: Binary32 and binary64 forms, scalar and packed (tail-padded), FMA.
_LANE_FORMS = [
    ("addss", 2), ("vmulps", 2), ("sqrtss", 1), ("vfmaddps", 3),
    ("addsd", 2), ("divpd", 2), ("sqrtsd", 1),
]


def _run_fpspy(mnemonic, streams, *, fastpaths):
    """FPSpy individual mode over one block: storm windows at the
    ``"storm"`` rung, per-event trap lifecycles at ``"precise"``."""
    from repro.fpspy import fpspy_env

    kb = KernelBuilder()
    site = kb.site(mnemonic)
    k = Kernel(KernelConfig(fastpaths=fastpaths))
    out = {}

    def main():
        out["results"] = yield from kb.emit(site, *streams, interleave=2)

    proc = k.exec_process(main, env=fpspy_env("individual"), name="spy")
    k.run()
    task = proc.main_task
    return {
        "results": list(out["results"]),
        "state": {p: k.vfs.read(p) for p in k.vfs.listdir("")},
        "vtime": task.vtime,
        "mxcsr": task.mxcsr.value,
        "cycles": k.cycles,
    }


@settings(max_examples=30, deadline=None)
@given(
    form=st.sampled_from(_LANE_FORMS),
    data=st.data(),
    n=st.integers(min_value=1, max_value=20),
    capture=st.sampled_from(_CAPTURE_SETS),
)
def test_numpy_and_int_list_streams_retire_identically(
        form, data, n, capture):
    """A block emitted from a NumPy float stream (``SimApp.stream``'s
    ``encode_bits`` path) and one emitted from the equal list of ints
    (``stream_ints`` and hand-written guests) hold the same lanes, and
    retire identical results, sticky status and cycle counts at the
    ``"precise"`` and ``"storm"`` rungs, under the mask-and-single-step
    handler pair and under FPSpy's individual mode."""
    mnemonic, arity = form
    fmt = form_of(mnemonic).fmt
    narrow = fmt is BINARY32
    ints = [data.draw(st.lists(bits32 if narrow else bits64,
                               min_size=n, max_size=n))
            for _ in range(arity)]
    utype, ftype = (np.uint32, np.float32) if narrow else (np.uint64,
                                                          np.float64)
    floats = [np.array(col, utype).view(ftype) for col in ints]
    encoded = [KernelBuilder.encode_bits(col, fmt) for col in floats]
    assert [a.tolist() for a in encoded] == ints
    for fastpaths in ("precise", "storm"):
        want = _run(mnemonic, ints, 2, capture,
                    fastpaths=fastpaths, block=True)
        got = _run(mnemonic, encoded, 2, capture,
                   fastpaths=fastpaths, block=True)
        assert got == want, fastpaths
        assert _run_fpspy(mnemonic, encoded, fastpaths=fastpaths) == (
            _run_fpspy(mnemonic, ints, fastpaths=fastpaths)), fastpaths


# --------------------------------------------- sampler off-phase windows


def test_sampler_off_phase_is_block_eligible():
    """A Poisson-sampled individual-mode thread starts (and periodically
    re-enters) the OFF phase with everything masked and TF clear: the
    task must then satisfy the block engine's quiescence gate, and its
    control word must map to the *interned* default context so the memo
    keys of the fast path line up."""
    from repro.fpspy import fpspy_env
    from repro.guest.ops import IntWork

    k = Kernel()

    def main():
        yield IntWork(1)

    proc = k.exec_process(
        main,
        env=fpspy_env("individual", poisson="50:50", timer="virtual", seed=1),
        name="offphase",
    )
    task = proc.main_task
    # init_thread ran in the constructor: OFF phase, capture set masked.
    assert task.fp_quiescent
    assert task.mxcsr.context() is task.mxcsr.context()
    k.run()


def _run_poisson(fastpaths, streams, interleave):
    """An FPSpy-monitored run whose sampler toggles mid-block."""
    from repro.fpspy import fpspy_env

    kb = KernelBuilder()
    site = kb.site("mulpd")
    k = Kernel(KernelConfig(fastpaths=fastpaths))

    def main():
        yield from kb.emit(site, *streams, interleave=interleave)

    proc = k.exec_process(
        main,
        env=fpspy_env("individual", poisson="60:40", timer="virtual", seed=9),
        name="sampled",
    )
    k.run()
    task = proc.main_task
    return {
        "state": {p: k.vfs.read(p) for p in k.vfs.listdir("")},
        "vtime": task.vtime,
        "mxcsr": task.mxcsr.value,
        "cycles": k.cycles,
    }


@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=16, max_value=64),
    interleave=st.sampled_from([0, 3]),
)
def test_off_phase_windows_batch_equivalently(data, n, interleave):
    """Mid-individual-run OFF windows re-enter the vectorized fast path;
    toggling the block engine must not perturb traces or the clock."""
    streams = [
        data.draw(st.lists(bits64, min_size=n, max_size=n)) for _ in range(2)
    ]
    fast = _run_poisson("storm", streams, interleave)
    oracle = _run_poisson("trapfast", streams, interleave)
    assert fast == oracle


def _run_vtimer(fastpaths, initial):
    """A quiescent block of 20 ``mulpd`` groups, interleave 4 (groups of
    five units), under a one-shot virtual timer the guest arms with
    ``initial`` units; its handler notes the vtime it lands at."""
    kb = KernelBuilder()
    site = kb.site("mulpd")
    k = Kernel(KernelConfig(fastpaths=fastpaths))
    landed = []
    out = {}

    def on_alarm(signo, info, uctx):
        landed.append(k.current_task.vtime)

    streams = [[float_to_bits64(1.5 + i) for i in range(40)],
               [float_to_bits64(0.1 * (i + 1)) for i in range(40)]]

    def main():
        yield LibcCall("sigaction", (int(Signal.SIGVTALRM), on_alarm))
        yield LibcCall("setitimer", ("virtual", initial))
        out["results"] = yield from kb.emit(site, *streams, interleave=4)

    proc = k.exec_process(main, env={}, name="vtimer")
    k.run()
    task = proc.main_task
    return k, {
        "results": list(out["results"]),
        "landed": landed,
        "vtime": task.vtime,
        "mxcsr": task.mxcsr.value,
        "utime": task.utime_cycles,
        "cycles": k.cycles,
    }


def test_quiescent_chunk_tail_boundaries():
    """A quiescent chunk ends at the virtual timer's expiry.  The
    setitimer call retires one unit after arming, so ``initial = b + 1``
    leaves ``b`` units from the first group's start to the expiry.
    ``b = 1`` lands on the group's FP retirement: that group takes two
    precise sub-steps (the FP instruction, then its integer phase after
    the SIGVTALRM).  ``b = 2`` and ``b = u - 1 = 4`` end the chunk in a
    tail, and one sub-step runs the rest of its phase.  ``b = u = 5``
    ends the group on its last unit, so it retires whole in the chunk.
    Every case equals the ``"precise"`` machine, handler landing vtime
    included."""
    for b, substeps in ((1, 2), (2, 1), (4, 1), (5, 0)):
        kf, fast = _run_vtimer("blockexec", b + 1)
        _, precise = _run_vtimer("precise", b + 1)
        assert fast == precise, b
        assert fast["landed"] == [2 + b], b
        assert kf.cpu.blk_substeps == substeps, b


# ------------------------------------------- provenance stamps, three ways


def _chain_provenance(streams, capture, *, fastpaths, block,
                      interleaves=(3, 2, 1)):
    """Run a ``divsd`` -> ``addsd`` -> ``ucomisd`` chain under the flight
    recorder and return what provenance saw: the observed count and
    every coil down to its origin, propagation, sink and last cycles.

    ``streams`` are the dividends, divisors, addends and compare
    operands; the quotients feed the add, its sums the compare.  A
    nonempty ``capture`` unmasks those exceptions under the same
    mask-and-single-step handler pair as :func:`_run`, so precise
    sub-steps and fault replays retire the chain too."""
    kb = KernelBuilder()
    div, add, cmp = kb.site("divsd"), kb.site("addsd"), kb.site("ucomisd")
    k = Kernel(KernelConfig(tracing=True, fastpaths=fastpaths))
    num, den, addend, other = streams
    il_div, il_add, il_cmp = interleaves

    def on_fpe(signo, info, uctx):
        uctx.mcontext.mxcsr |= 0x1F80
        uctx.mcontext.trap_flag = True

    def on_trap(signo, info, uctx):
        uctx.mcontext.mxcsr &= ~(capture << 7)
        uctx.mcontext.trap_flag = False

    def main():
        if capture:
            yield LibcCall("sigaction", (int(Signal.SIGFPE), on_fpe))
            yield LibcCall("sigaction", (int(Signal.SIGTRAP), on_trap))
            yield LibcCall("feenableexcept", (capture,))
        q = yield from kb.emit(div, num, den, interleave=il_div, block=block)
        s = yield from kb.emit(add, q, addend, interleave=il_add, block=block)
        yield from kb.emit(cmp, s, other, interleave=il_cmp, block=block)

    k.exec_process(main, env={}, name="chain")
    k.run()
    prov = k.provenance
    return {
        "observed": prov.observed,
        "coils": [
            (c.origin.rip, c.origin.kind, c.origin.cycle, c.origin.consumed,
             c.origin.flags, c.propagations, c.sink_count, c.sinks,
             c.last_cycle)
            for c in prov.coils()
        ],
    }


def _three_ways(streams, capture, **kw):
    return [
        _chain_provenance(streams, capture, fastpaths=fp, block=bl, **kw)
        for fp, bl in (("storm", True), ("trapfast", True),
                       ("trapfast", False))
    ]


def test_provenance_stamps_equal_on_every_path_repro():
    """Two ``0/0`` quotients, each plus 1.0, each compared with 1.0
    (interleave 3/2/1).  Every path observes at the cycle a retirement
    starts: the second quotient's origin at 7 (one 7-cycle ``divsd``
    group in), its two ``ucomisd`` sinks at 26 and 31.  The
    ``FPInstruction`` stream once stamped them a ``fp_instr`` later
    (11, 30 and 35) than the block chunk and the block sub-step."""
    zero, one = 0x0000000000000000, 0x3FF0000000000000
    streams = ([zero, zero], [zero, zero], [one, one], [one, one])
    fast, substep, oracle = _three_ways(streams, 0)
    assert fast == substep == oracle
    # The second 0/0 re-originates the same NaN bits, so the first
    # quotient's coil is aliased away before the add reads it.
    live, aliased = oracle["coils"]
    _, kind, cycle, _, _, props, n_sinks, sinks, last = live
    assert (kind, cycle, props, n_sinks, last) == ("nan", 7, 2, 2, 31)
    assert [c for _, c in sinks] == [26, 31]
    assert aliased[2] == 0 and aliased[5:] == (0, 0, [], 0)
    assert oracle["observed"] == 6


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=8),
    capture=st.sampled_from(_CAPTURE_SETS),
    interleaves=st.sampled_from([(3, 2, 1), (0, 0, 0), (1, 0, 2)]),
)
def test_provenance_stamps_equal_on_every_path(data, n, capture, interleaves):
    """The blockexec chunk (``fastpaths="storm"``), the block's precise
    sub-step (``fastpaths="trapfast"``) and the ``FPInstruction`` stream
    (``block=False``) stamp every chain alike: equal observed counts
    and equal coils, origin cycle, propagations, sinks with their
    cycles and ``last_cycle`` included."""
    streams = [
        data.draw(st.lists(bits64, min_size=n, max_size=n)) for _ in range(4)
    ]
    fast, substep, oracle = _three_ways(
        streams, capture, interleaves=interleaves)
    assert substep == oracle
    assert fast == oracle
