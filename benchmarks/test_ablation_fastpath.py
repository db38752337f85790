"""Ablation: host-FPU fast path vs canonical integer softfloat
(DESIGN.md decisions #1 and #15).

The fast path must win decisively on mid-range arithmetic for the
design to be worth its fallback complexity; these benches measure both
implementations on identical binary64 and binary32 operand streams.
"""

import numpy as np
import pytest

from repro.fp.fastpath import FastSoftFPU
from repro.fp.formats import BINARY32, BINARY64
from repro.fp.softfloat import SoftFPU

FAST = FastSoftFPU()
SLOW = SoftFPU()

rng = np.random.default_rng(42)
_RAW = rng.random(256) * 100 + 0.5
VALUES = {
    BINARY64: [int(v) for v in _RAW.view(np.uint64)],
    BINARY32: [int(v) for v in _RAW.astype(np.float32).view(np.uint32)],
}
FORMATS = {"binary64": BINARY64, "binary32": BINARY32}


def _sweep(fpu, op, fmt=BINARY64):
    vals = VALUES[fmt]
    out = 0
    for i in range(0, 254):
        if op == "add":
            out ^= fpu.add(fmt, vals[i], vals[i + 1]).bits
        elif op == "mul":
            out ^= fpu.mul(fmt, vals[i], vals[i + 1]).bits
        elif op == "div":
            out ^= fpu.div(fmt, vals[i], vals[i + 1]).bits
        else:
            out ^= fpu.sqrt(fmt, vals[i]).bits
    return out


@pytest.mark.parametrize("impl", ["canonical", "fastpath"])
@pytest.mark.parametrize("op", ["add", "mul", "div", "sqrt"])
@pytest.mark.parametrize("fmt", ["binary64", "binary32"])
def test_fpu_sweep(benchmark, impl, op, fmt):
    fpu = FAST if impl == "fastpath" else SLOW
    result = benchmark(_sweep, fpu, op, FORMATS[fmt])
    # Bit-identical outputs across implementations.
    assert result == _sweep(SLOW if impl == "fastpath" else FAST, op,
                            FORMATS[fmt])


@pytest.mark.parametrize("fmt", ["binary64", "binary32"])
def test_fastpath_speedup_is_real(benchmark, fmt):
    """Head-to-head inside one test: fast add beats canonical add."""
    import time

    def timeit(fn, n=20):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return time.perf_counter() - t0

    def compare():
        slow = timeit(lambda: _sweep(SLOW, "add", FORMATS[fmt]))
        fast = timeit(lambda: _sweep(FAST, "add", FORMATS[fmt]))
        return slow, fast

    slow, fast = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert fast < slow
