"""A memoizing softfloat layered under :class:`repro.fp.fastpath.FastSoftFPU`.

Trap-heavy monitoring replays the *same* static instruction on the *same*
operand bits over and over: FPSpy's individual mode executes every
faulting instruction twice (once to fault, once single-stepped under the
handler's masked context), and hot loop bodies in the paper's workloads
(Miniaero/LAMMPS inner kernels) recycle a small working set of operand
values.  Softfloat operations are pure functions of
``(op, format, operand bits, rounding/FTZ/DAZ control)`` -- the
:class:`~repro.fp.softfloat.FPContext` captures every control input, and
results (:class:`~repro.fp.softfloat.OpResult` / ``(value, flags)``
tuples) are immutable -- so a bounded cache returns bit-identical results
including NaN payloads, signed zeros, denormal behavior, and the exact
condition-code set.

Eviction is FIFO over dict insertion order: O(1), deterministic, and
plenty for the intended access pattern (a small hot working set with a
long random tail).  ``hits``/``misses`` counters feed the ablation
benchmark's report.  On the end-to-end workloads the hit rate is about
3% of lookups (DESIGN.md decision #16).
"""

from __future__ import annotations

from repro.fp.fastpath import FastSoftFPU
from repro.fp.flags import Flag
from repro.fp.formats import BinaryFormat
from repro.fp.rounding import RoundingMode
from repro.fp.softfloat import DEFAULT_CONTEXT, FPContext, OpResult


class MemoSoftFPU(FastSoftFPU):
    """Bit-identical to :class:`FastSoftFPU`, with a bounded result cache.

    Keys hold strong references to their :class:`BinaryFormat` and
    :class:`FPContext` objects (both frozen/hashable), so cache entries
    can never be confused across formats or control states, even for
    dynamically created arbitrary-precision formats.
    """

    def __init__(self, capacity: int = 1 << 16) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._cache: dict[tuple, object] = {}

    def _insert(self, key: tuple, out):
        self.misses += 1
        cache = self._cache
        if len(cache) >= self.capacity:
            cache.pop(next(iter(cache)))
            self.evictions += 1
        cache[key] = out
        return out

    @property
    def occupancy(self) -> int:
        """Entries currently resident in the FIFO."""
        return len(self._cache)

    def stats(self) -> dict[str, int]:
        """Point-in-time cache statistics (telemetry bus / benchmarks)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "occupancy": len(self._cache),
            "capacity": self.capacity,
        }

    # ------------------------------------------------------- arithmetic

    def add(self, fmt: BinaryFormat, a: int, b: int,
            ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        key = ("add", fmt, a, b, ctx)
        out = self._cache.get(key)
        if out is None:
            return self._insert(key, super().add(fmt, a, b, ctx))
        self.hits += 1
        return out

    def sub(self, fmt: BinaryFormat, a: int, b: int,
            ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        key = ("sub", fmt, a, b, ctx)
        out = self._cache.get(key)
        if out is None:
            return self._insert(key, super().sub(fmt, a, b, ctx))
        self.hits += 1
        return out

    def mul(self, fmt: BinaryFormat, a: int, b: int,
            ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        key = ("mul", fmt, a, b, ctx)
        out = self._cache.get(key)
        if out is None:
            return self._insert(key, super().mul(fmt, a, b, ctx))
        self.hits += 1
        return out

    def div(self, fmt: BinaryFormat, a: int, b: int,
            ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        key = ("div", fmt, a, b, ctx)
        out = self._cache.get(key)
        if out is None:
            return self._insert(key, super().div(fmt, a, b, ctx))
        self.hits += 1
        return out

    def sqrt(self, fmt: BinaryFormat, a: int,
             ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        key = ("sqrt", fmt, a, ctx)
        out = self._cache.get(key)
        if out is None:
            return self._insert(key, super().sqrt(fmt, a, ctx))
        self.hits += 1
        return out

    def fma(self, fmt: BinaryFormat, a: int, b: int, c: int,
            ctx: FPContext = DEFAULT_CONTEXT,
            negate_product: bool = False, negate_c: bool = False) -> OpResult:
        key = ("fma", fmt, a, b, c, ctx, negate_product, negate_c)
        out = self._cache.get(key)
        if out is None:
            return self._insert(
                key, super().fma(fmt, a, b, c, ctx,
                                 negate_product=negate_product,
                                 negate_c=negate_c))
        self.hits += 1
        return out

    def min(self, fmt: BinaryFormat, a: int, b: int,
            ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        key = ("min", fmt, a, b, ctx)
        out = self._cache.get(key)
        if out is None:
            return self._insert(key, super().min(fmt, a, b, ctx))
        self.hits += 1
        return out

    def max(self, fmt: BinaryFormat, a: int, b: int,
            ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        key = ("max", fmt, a, b, ctx)
        out = self._cache.get(key)
        if out is None:
            return self._insert(key, super().max(fmt, a, b, ctx))
        self.hits += 1
        return out

    # ------------------------------------------------ compare / converts

    def compare(self, fmt: BinaryFormat, a: int, b: int,
                ctx: FPContext = DEFAULT_CONTEXT,
                signal_qnan: bool = False) -> tuple[int, Flag]:
        key = ("compare", fmt, a, b, ctx, signal_qnan)
        out = self._cache.get(key)
        if out is None:
            return self._insert(key, super().compare(fmt, a, b, ctx,
                                                     signal_qnan=signal_qnan))
        self.hits += 1
        return out

    def convert(self, src_fmt: BinaryFormat, dst_fmt: BinaryFormat, a: int,
                ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        key = ("convert", src_fmt, dst_fmt, a, ctx)
        out = self._cache.get(key)
        if out is None:
            return self._insert(key, super().convert(src_fmt, dst_fmt, a, ctx))
        self.hits += 1
        return out

    def from_int(self, fmt: BinaryFormat, value: int,
                 ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        key = ("from_int", fmt, value, ctx)
        out = self._cache.get(key)
        if out is None:
            return self._insert(key, super().from_int(fmt, value, ctx))
        self.hits += 1
        return out

    def to_int(self, fmt: BinaryFormat, a: int,
               ctx: FPContext = DEFAULT_CONTEXT,
               width: int = 32, truncate: bool = False) -> tuple[int, Flag]:
        key = ("to_int", fmt, a, ctx, width, truncate)
        out = self._cache.get(key)
        if out is None:
            return self._insert(
                key, super().to_int(fmt, a, ctx, width=width, truncate=truncate))
        self.hits += 1
        return out

    def round_to_integral(self, fmt: BinaryFormat, a: int,
                          ctx: FPContext = DEFAULT_CONTEXT,
                          rmode: RoundingMode | None = None,
                          suppress_inexact: bool = False) -> OpResult:
        key = ("round", fmt, a, ctx, rmode, suppress_inexact)
        out = self._cache.get(key)
        if out is None:
            return self._insert(
                key, super().round_to_integral(
                    fmt, a, ctx, rmode=rmode, suppress_inexact=suppress_inexact))
        self.hits += 1
        return out
