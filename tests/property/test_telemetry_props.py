"""Telemetry must be architecturally invisible (DESIGN.md decision #8).

The bus's cardinal rule: instrumentation never charges cycles and never
touches guest-visible state.  Each example runs a random workload --
random operand bit patterns (specials included), random capture sets
driving an FPSpy-style handler pair, both block-engine regimes -- twice,
with telemetry on and off, and requires the entire observable record to
be byte-identical: results, fault/trap events with their virtual-time
landing points, ``%mxcsr``, the cycle clock, and every VFS file outside
the synthetic ``/proc/fpspy/`` tree (which only exists when telemetry is
on, and is rendered, not stored).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpspy import fpspy_env
from repro.guest.ops import LibcCall
from repro.guest.program import KernelBuilder
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.signals import Signal
from repro.telemetry.procfs import PROC_ROOT

_SPECIALS64 = [
    0x0000000000000000, 0x8000000000000000,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0x7FF4000000000000,
    0x0000000000000001, 0x800FFFFFFFFFFFFF,
    0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
    0x3FF0000000000000, 0xBFE0000000000000,
]

bits64 = st.one_of(
    st.sampled_from(_SPECIALS64),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)


def _guest_state(k):
    """Every guest-visible VFS byte; ``/proc/fpspy/`` is host-synthetic
    and legitimately exists only when telemetry is on."""
    return {
        p: k.vfs.read(p)
        for p in k.vfs.listdir("")
        if not p.startswith(PROC_ROOT)
    }


def _run(mnemonic, streams, interleave, capture, *, telemetry):
    kb = KernelBuilder()
    site = kb.site(mnemonic)
    k = Kernel(KernelConfig(telemetry=telemetry))
    events = []
    out = {}

    def on_fpe(signo, info, uctx):
        events.append(("fpe", info.code, info.addr, k.current_task.vtime,
                       uctx.mcontext.mxcsr))
        uctx.mcontext.mxcsr |= 0x1F80
        uctx.mcontext.trap_flag = True

    def on_trap(signo, info, uctx):
        events.append(("trap", k.current_task.vtime))
        uctx.mcontext.mxcsr &= ~(capture << 7)
        uctx.mcontext.trap_flag = False

    def main():
        yield LibcCall("sigaction", (int(Signal.SIGFPE), on_fpe))
        yield LibcCall("sigaction", (int(Signal.SIGTRAP), on_trap))
        if capture:
            yield LibcCall("feenableexcept", (capture,))
        out["results"] = yield from kb.emit(
            site, *streams, interleave=interleave
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
        "state": _guest_state(k),
    }


@settings(max_examples=25, deadline=None)
@given(
    mnemonic=st.sampled_from(["addsd", "mulsd", "divsd", "sqrtpd", "mulpd"]),
    data=st.data(),
    n=st.integers(min_value=1, max_value=24),
    interleave=st.sampled_from([0, 3]),
    capture=st.sampled_from([0x00, 0x20, 0x3F]),
)
def test_telemetry_is_architecturally_invisible(
    mnemonic, data, n, interleave, capture
):
    arity = 1 if mnemonic == "sqrtpd" else 2
    streams = [
        data.draw(st.lists(bits64, min_size=n, max_size=n))
        for _ in range(arity)
    ]
    off = _run(mnemonic, streams, interleave, capture, telemetry=False)
    on = _run(mnemonic, streams, interleave, capture, telemetry=True)
    assert on == off


def _run_fpspy(n, seed, *, telemetry):
    """A full FPSpy individual-mode run with the Poisson sampler, so the
    engine's handlers, trace writers, and sampler toggles all execute
    with instrumentation live."""
    kb = KernelBuilder()
    site = kb.site("mulpd")
    a = [0x3FF199999999999A + (i % 13) for i in range(n)]
    b = [0x3FE6666666666666 + (i % 7) for i in range(n)]

    def main():
        yield from kb.emit(site, a, b, interleave=2)

    k = Kernel(KernelConfig(telemetry=telemetry))
    k.exec_process(
        main,
        env=fpspy_env("individual", poisson="60:40", timer="virtual",
                      seed=seed),
        name="sampled",
    )
    k.run()
    return {"cycles": k.cycles, "state": _guest_state(k)}


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=16, max_value=64),
    seed=st.integers(min_value=0, max_value=999),
)
def test_fpspy_traces_byte_identical_with_telemetry(n, seed):
    off = _run_fpspy(n, seed, telemetry=False)
    on = _run_fpspy(n, seed, telemetry=True)
    assert on == off
