"""Tail-based sampling retention properties (DESIGN.md #12).

Three guarantees the flight recorder's tail sampler must uphold on
arbitrary workloads, not just the ones the unit tests pin down:

* **interesting trees are never sampled away**: every trap tree that
  touches a NaN/Inf provenance origin is classified retained no matter
  the sample period, sampler seed, or operand interleave;
* **no silent loss under ring pressure**: when the ring is small enough
  to evict committed trees, every evicted interesting tree is counted
  in ``interesting_trees_dropped`` -- retained-in-ring plus counted-
  dropped always equals the classification total;
* **guest invisibility survives the sampler**: an aggressively sampled,
  pressure-cooked recorder still leaves every guest-visible byte and
  the cycle clock identical to a tracing-off run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.formats import float_to_bits64 as b64
from repro.fpspy import fpspy_env
from repro.guest.program import KernelBuilder
from repro.kernel.kernel import Kernel, KernelConfig
from repro.telemetry.procfs import PROC_ROOT

#: Boring divisor: 1.0/3.0 traps (precision) but stays ordinary.
#: Interesting divisor: 1.0/0.0 traps (zero-divide) and births an Inf
#: provenance origin, which the tail classifier must always keep.
_BORING = b64(3.0)
_ZERO = b64(0.0)

_BORING_KEEPS = {"sampled"}


def _run_mix(zeros, interleave, sample, seed, capacity):
    """One individual-mode run over a boring/interesting operand mix.

    ``zeros`` is a boolean per op: True -> divide by zero
    (interesting), False -> inexact divide (boring).
    """
    kb = KernelBuilder()
    site = kb.site("divsd")
    a = [b64(1.0)] * len(zeros)
    bb = [_ZERO if z else _BORING for z in zeros]

    def main():
        yield from kb.emit(site, a, bb, interleave=interleave)

    k = Kernel(KernelConfig(
        tracing=True, trace_capacity=capacity, trace_sample=sample,
        trace_seed=seed))
    k.exec_process(main, env=fpspy_env("individual"), name="mix")
    k.run()
    return k


def _interesting_roots(tracer):
    """Root spans whose retention label is an interesting class."""
    return [
        s for s in tracer.spans()
        if s.parent_id == 0 and s.args.get("keep")
        and s.args["keep"] not in _BORING_KEEPS
    ]


@settings(max_examples=40, deadline=None)
@given(
    zeros=st.lists(st.booleans(), min_size=1, max_size=24),
    interleave=st.sampled_from([0, 1, 3]),
    sample=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=999),
)
def test_interesting_trees_always_retained(zeros, interleave, sample, seed):
    """Sampler period/seed/interleave never cost an interesting tree."""
    k = _run_mix(zeros, interleave, sample, seed, capacity=65536)
    stats = k.tracer.stats()
    n_interesting = sum(zeros)
    assert stats["trees_completed"] == len(zeros)
    # Classification is sampler-independent: exactly the zero-divides.
    assert stats["trees_retained_interesting"] == n_interesting
    assert stats["interesting_trees_dropped"] == 0
    # And they are actually in the ring, labeled with why they stayed.
    assert len(_interesting_roots(k.tracer)) == n_interesting
    # Every completed tree is accounted for exactly once.
    assert stats["trees_completed"] == (
        stats["trees_retained_interesting"]
        + stats["trees_retained_boring"]
        + stats["trees_discarded"]
    )


@settings(max_examples=25, deadline=None)
@given(
    zeros=st.lists(st.booleans(), min_size=4, max_size=24),
    interleave=st.sampled_from([0, 2]),
    seed=st.integers(min_value=0, max_value=99),
    capacity=st.integers(min_value=16, max_value=128),
)
def test_no_silent_interesting_loss_under_ring_pressure(
    zeros, interleave, seed, capacity
):
    """A tiny ring may evict interesting trees -- but never silently."""
    k = _run_mix(zeros, interleave, sample=2, seed=seed, capacity=capacity)
    stats = k.tracer.stats()
    n_interesting = sum(zeros)
    assert stats["trees_retained_interesting"] == n_interesting
    in_ring = len(_interesting_roots(k.tracer))
    assert in_ring + stats["interesting_trees_dropped"] == n_interesting


def _guest_state(k):
    return {
        p: k.vfs.read(p)
        for p in k.vfs.listdir("")
        if not p.startswith(PROC_ROOT)
    }


def _run_fpspy(n, seed, *, config):
    kb = KernelBuilder()
    site = kb.site("mulpd")
    a = [0x3FF199999999999A + (i % 13) for i in range(n)]
    bb = [0x3FE6666666666666 + (i % 7) for i in range(n)]

    def main():
        yield from kb.emit(site, a, bb, interleave=2)

    k = Kernel(config)
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
    sample=st.sampled_from([1, 2, 16]),
    capacity=st.sampled_from([64, 65536]),
)
def test_sampled_recorder_is_guest_invisible(n, seed, sample, capacity):
    """Aggressive tail sampling + ring pressure: still invisible."""
    off = _run_fpspy(n, seed, config=KernelConfig(tracing=False))
    on = _run_fpspy(n, seed, config=KernelConfig(
        tracing=True, trace_capacity=capacity, trace_sample=sample,
        trace_seed=seed))
    assert on == off
