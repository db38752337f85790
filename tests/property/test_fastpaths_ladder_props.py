"""Every fast path together must be byte-identical to none of them.

``KernelConfig.fastpaths`` is a ladder: ``"trapfast"`` fuses the
single-step trap into the faulting step and memoizes outcomes per form,
``"blockexec"`` commits quiescent chunks of a block as one batch, and
``"storm"`` replicates whole trap lifecycles from one batch call.  Each
rung has its own property against the rung below it; this one runs a
random block program at all four rungs at once, so paths that only meet
in combination -- a storm batch ending where a sampler OFF window opens a
chunk, a fused trap at a quantum boundary -- are held to the
``"precise"`` machine too.

The program is one to three ``KernelBuilder.emit`` blocks of a drawn
form, interleave and operand stream (stratified over NaNs, infinities,
subnormals and ordinary values), run by two FPSpy-monitored processes in
individual mode under a drawn capture set (empty: quiescent), quantum,
with or without the Poisson virtual-timer sampler, and with the flight
recorder and provenance tracker (``KernelConfig.tracing``) on or off.
Every rung must leave equal FPSpy trace bytes, cycles, per-task
user/system cycles, delivered signal counts, final ``%mxcsr`` and
results, and, traced, equal provenance coils, rollup rows and
``observed`` count.  The flight recorder's span stream is left out: it
stamps one coarse span per batch (``block_chunk`` for a quiescent batch,
``storm`` for an FPSpy individual-mode one), so it differs by rung by
design until the recorder records the guest rather than the fast path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.formats import float_to_bits32, float_to_bits64
from repro.fpspy import fpspy_env
from repro.guest.program import KernelBuilder
from repro.kernel.kernel import Kernel, KernelConfig
from repro.machine.fastpaths import FASTPATHS

_NANS = {32: [0x7FC00000, 0x7FA00000, 0xFFC00001],
         64: [0x7FF8000000000000, 0x7FF4000000000000, 0xFFF8000000000001]}
_INFS = {32: [0x7F800000, 0xFF800000],
         64: [0x7FF0000000000000, 0xFFF0000000000000]}
_SUBNORMALS = {32: [0x00000001, 0x807FFFFF, 0x00400000],
               64: [0x0000000000000001, 0x800FFFFFFFFFFFFF,
                    0x0008000000000000]}
_TO_BITS = {32: float_to_bits32, 64: float_to_bits64}
#: The flight recorder's span stream, present only when traced.
_SPAN_STREAM = "/proc/fpspy/trace"


def _operands(width):
    """One operand of a ``width``-bit format, from one of four strata."""
    ordinary = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, width=width).map(_TO_BITS[width])
    return st.one_of(
        st.sampled_from(_NANS[width]), st.sampled_from(_INFS[width]),
        st.sampled_from(_SUBNORMALS[width]), ordinary, ordinary, ordinary,
    )


#: (mnemonic, arity, operand width): the packed FMA storm, scalar and
#: packed arithmetic of both formats, a compare and a conversion.
_FORMS = [
    ("vfmaddps", 3, 32), ("mulpd", 2, 64), ("addsd", 2, 64),
    ("divss", 2, 32), ("sqrtsd", 1, 64), ("ucomisd", 2, 64),
    ("cvtsd2ss", 1, 64),
]

#: ``FPE_EXCEPT_LIST`` values; empty captures nothing, so the task
#: stays quiescent and the block engine may chunk.
_CAPTURES = ["", "Inexact", "Invalid,DivideByZero,Overflow",
             "Invalid,Denorm,DivideByZero,Overflow,Underflow,Inexact"]


@st.composite
def _segments(draw):
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        mnemonic, arity, width = draw(st.sampled_from(_FORMS))
        n = draw(st.integers(min_value=1, max_value=40))
        streams = [draw(st.lists(_operands(width), min_size=n, max_size=n))
                   for _ in range(arity)]
        # A long integer phase (8) lets the sampler's expiries fall at
        # many depths inside it, so batches end in tails of every size.
        out.append((mnemonic, streams, draw(st.sampled_from([0, 1, 3, 8]))))
    return out


def _machine(segments, capture, quantum, poisson, tracing, fastpaths):
    """Run the program in two processes at rung ``fastpaths``; return the
    kernel and everything the rungs must agree on."""
    k = Kernel(KernelConfig(fastpaths=fastpaths, quantum=quantum,
                            tracing=tracing))
    sampler = dict(poisson="60:40", timer="virtual") if poisson else {}
    env = fpspy_env("individual", except_list=capture, seed=5, **sampler)
    procs = []
    for name in ("one", "two"):
        kb = KernelBuilder()
        sites = [kb.site(m, key=str(i)) for i, (m, _, _) in
                 enumerate(segments)]
        out = []

        def main(kb=kb, sites=sites, out=out):
            for site, (_, streams, interleave) in zip(sites, segments):
                res = yield from kb.emit(site, *streams,
                                         interleave=interleave)
                out.append(res.tolist())

        procs.append((k.exec_process(main, env=env, name=name), out))
    k.run()
    prov = k.provenance
    return k, {
        "vfs": {p: k.vfs.read(p) for p in k.vfs.listdir("")
                if p != _SPAN_STREAM},
        "cycles": k.cycles,
        "tasks": [(p.main_task.utime_cycles, p.main_task.stime_cycles,
                   p.main_task.mxcsr.value, out) for p, out in procs],
        "signals": list(k.cpu.signals_delivered),
        "provenance": prov and (prov.coils(), prov.rollup_rows(),
                                prov.observed),
    }


def _ladder(segments, capture, quantum, poisson, tracing=False):
    """Run every rung; assert each equals ``"precise"``; return the
    ``"storm"`` kernel."""
    kernels = {}
    outs = {}
    for rung in FASTPATHS:
        kernels[rung], outs[rung] = _machine(
            segments, capture, quantum, poisson, tracing, rung)
    for rung in FASTPATHS[1:]:
        assert outs[rung] == outs["precise"], rung
    return kernels["storm"]


@settings(max_examples=60, deadline=None)
@given(
    segments=_segments(),
    capture=st.sampled_from(_CAPTURES),
    quantum=st.one_of(st.integers(min_value=4, max_value=16),
                      st.integers(min_value=4, max_value=128)),
    poisson=st.booleans(),
    tracing=st.booleans(),
)
def test_every_rung_matches_precise(segments, capture, quantum, poisson,
                                    tracing):
    _ladder(segments, capture, quantum, poisson, tracing)


def test_every_rung_matches_precise_with_storms_and_chunks():
    """A fixed program on which the top rung really takes both batched
    paths -- storm batches in the sampler's ON windows, block chunks in
    its OFF windows -- so the property cannot pass by never engaging."""
    n = 160
    a = [float_to_bits32(1.1 + (i % 24) * 0.3) for i in range(n)]
    b = [float_to_bits32(0.7 + (i % 12) * 0.21) for i in range(n)]
    c = [float_to_bits32(-0.033 * (1 + i % 6)) for i in range(n)]
    segments = [("vfmaddps", [a, b, c], 1), ("mulpd", [
        [float_to_bits64(1.5 + i) for i in range(48)],
        [float_to_bits64(0.1 * (i + 1)) for i in range(48)]], 0)]
    k = _ladder(segments, "Inexact", 128, True)
    assert k.cpu.storm_stats["batches"] >= 1
    assert k.cpu.blk_chunks >= 1
