"""PARSEC 3.0: the 25-benchmark suite of Figure 10.

Paper profile:

* 3.5M lines of C/C++ across the benchmarks; depends on GSL and Intel
  TBB; pthread parallelism; "simlarge" inputs, 2m30s unencumbered.
* Static analysis (suite-wide union, Figure 8): ``fork``, ``clone``,
  ``pthread_create``, ``sigaction``, ``feenableexcept``, ``fesetround``,
  ``SIGTRAP``, ``SIGFPE`` -- none executed dynamically in the study.
* PARSEC is the only suite that produces **every** event class
  (Figure 9): Invalid in the LU decompositions, DivideByZero in
  Cholesky, Denorm/Underflow in canneal/blackscholes/water_nsquared,
  Overflow at one problem size (the Figure 10 caption notes the
  simlarge-size runs did not reproduce it).

Each benchmark is a small genuine kernel; the distinctive ones
(blackscholes' closed form, Cholesky's zero pivot, LU's NaN pivot,
canneal's temperature annealing, x264's cost metric) are implemented
explicitly, the remaining throughput benchmarks share a generic
rounding workload with benchmark-specific instruction forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

import numpy as np

from repro.apps.base import CVT_I2F, SimApp, spawn_threads
from repro.fp.formats import float_to_bits32, float_to_bits64
from repro.guest.ops import IntWork
from repro.isa.forms import OpKind
from repro.isa.instruction import FPInstruction

SNAN32 = 0x7F800001
SNAN64 = 0x7FF0000000000005
QNAN64 = 0x7FF8000000000001

#: The kinds the generic workload branches on, bound once (see
#: :data:`repro.apps.base.CVT_I2F`).
_F2I = (OpKind.CVT_F2I, OpKind.CVT_F2I_TRUNC)
_COMPARES = (OpKind.UCOMI, OpKind.COMI)

#: Suite-wide static symbol inventory (Figure 8's PARSEC row).
PARSEC_STATIC_SYMBOLS = frozenset(
    {"fork", "clone", "pthread_create", "sigaction", "feenableexcept",
     "fesetround", "SIGTRAP", "SIGFPE"}
)


@dataclass(frozen=True)
class BenchSpec:
    """Static description of one PARSEC benchmark."""

    name: str
    forms: tuple[str, ...]  #: generic-workload instruction forms
    iters: int = 30  #: hot-loop iterations at scale 1.0
    width: int = 12  #: elements per streamed op
    threads: int = 2
    int_per_fp: int = 700
    special: str | None = None  #: name of a special-kernel hook


def _spec(name, forms, **kw):
    return BenchSpec(name=name, forms=tuple(forms), **kw)


#: The 25 benchmarks of Figure 10, in table order.
PARSEC_SPECS: tuple[BenchSpec, ...] = (
    _spec("ext/barnes", ["subsd", "mulsd", "addsd", "divsd", "sqrtsd"]),
    _spec("blackscholes", ["mulss", "addss", "subss", "divss", "sqrtss"],
          special="blackscholes"),
    _spec("bodytrack", ["mulss", "addss", "subss", "roundss", "cvtsi2ss",
                        "cvttss2si"], special="bodytrack"),
    _spec("canneal", ["subsd", "mulsd", "addsd", "minsd", "maxsd"],
          special="canneal"),
    _spec("ext/cholesky", ["mulpd", "subpd", "divsd", "sqrtsd", "addsd"],
          special="cholesky"),
    _spec("dedup", ["cvtsi2sd", "divsd", "mulsd", "cvttsd2si", "cvtsd2si",
                    "addsd"], special="dedup"),
    _spec("facesim", ["addpd", "subpd", "mulpd", "divpd", "sqrtpd",
                      "roundpd"], special="facesim"),
    _spec("ferret", ["mulsd", "addsd", "sqrtsd", "dppd", "subsd"],
          special="ferret"),
    _spec("fluidanimate", ["divsd", "sqrtsd", "mulsd", "addsd", "subsd"]),
    _spec("ext/fmm", ["mulpd", "addpd", "divsd", "subsd", "mulsd"]),
    _spec("freqmine", ["cvtsi2sd", "divsd", "addsd", "mulsd"]),
    _spec("ext/lu_cb", ["mulsd", "subsd", "divsd", "addsd"], special="lu_cb"),
    _spec("ext/lu_ncb", ["mulsd", "subsd", "divsd", "addsd"], special="lu_ncb"),
    _spec("ext/ocean_cp", ["addsd", "mulsd", "subsd", "divsd"]),
    _spec("ext/ocean_ncp", ["addsd", "mulsd", "subsd", "divsd"]),
    _spec("ext/radiosity", ["mulsd", "addsd", "divsd", "subsd", "sqrtsd"]),
    _spec("ext/radix", ["cvtsi2sd", "mulsd", "cvtpd2dq", "addsd"],
          special="radix"),
    _spec("raytrace", ["mulsd", "addsd", "subsd", "sqrtsd", "divsd"]),
    _spec("streamcluster", ["subsd", "mulsd", "addsd", "roundsd", "sqrtsd"],
          special="streamcluster"),
    _spec("swaptions", ["mulsd", "addsd", "subsd", "cvtpd2ps", "sqrtsd"],
          special="swaptions"),
    _spec("vips", ["mulss", "addss", "cvtsd2ss", "subss", "divss"]),
    _spec("ext/volrend", ["mulss", "addss", "subss", "divss"]),
    _spec("ext/water_nsquared", ["mulss", "addss", "subss", "divss",
                                 "sqrtss"], special="water_nsquared"),
    _spec("ext/water_spatial", ["mulsd", "addsd", "subsd", "divsd",
                                "sqrtsd"]),
    _spec("x.264", ["mulss", "addss", "subss", "minss", "maxss",
                    "ucomiss"], special="x264"),
)

PARSEC_BENCHMARKS: tuple[str, ...] = tuple(s.name for s in PARSEC_SPECS)
_SPEC_BY_NAME = {s.name: s for s in PARSEC_SPECS}


class ParsecBenchmark(SimApp):
    """One PARSEC benchmark instantiated from its spec."""

    languages = ("C", "C++")
    dependencies = ("GSL", "Intel TBB")
    problem = "Simlarge"
    parallelism = "pthreads"
    static_symbols = PARSEC_STATIC_SYMBOLS

    def __init__(self, spec: BenchSpec, scale: float = 1.0,
                 variant: str = "default", seed: int = 1234):
        self.spec = spec
        self.name = f"parsec_{spec.name.replace('/', '_').replace('.', '')}"
        self.display_name = spec.name
        self.INT_PER_FP = spec.int_per_fp
        super().__init__(scale=scale, variant=variant, seed=seed)

    def _build_sites(self) -> None:
        spec = self.spec
        self.hot = [self.kb.site(m, key=f"hot{i}") for i, m in enumerate(spec.forms)]
        self.cold = self.cold_sites(list(spec.forms) + ["addsd", "mulsd"], 40)
        self._special_sites()

    # ----------------------------------------------------- special sites

    def _special_sites(self) -> None:
        kb = self.kb
        s = self.spec.special
        if s == "blackscholes":
            self.s_expuf = kb.site("mulss", key="expu")  # exp tail underflow
        elif s == "canneal":
            self.s_cool = kb.site("mulsd", key="cool")
            self.s_cmp = kb.site("minsd", key="cmpmin")
            self.s_cmp2 = kb.site("maxsd", key="cmpmax")
            self.s_pmin = kb.site("minpd", key="pmin")
            self.s_pmax = kb.site("maxpd", key="pmax")
            self.s_widen = kb.site("cvtps2pd", key="widen")
            self.s_wss = kb.site("cvtss2sd", key="widess")
            self.s_coms = kb.site("comiss", key="coms")
            self.s_heat = kb.site("mulsd", key="heat")  # overflow variant
        elif s == "cholesky":
            self.s_pivdiv = kb.site("divsd", key="pivdiv")
        elif s in ("lu_cb", "lu_ncb"):
            self.s_pivot = kb.site("divsd", key="pivot")
            self.s_cmp = kb.site(
                "comisd" if s == "lu_cb" else "ucomisd", key="lucmp"
            )
        elif s == "x264":
            self.s_sad = kb.site("subss", key="sad")
            self.s_min = kb.site("minss", key="costmin")
            self.s_max = kb.site("maxss", key="costmax")
            self.s_cmp = kb.site("ucomiss", key="x264cmp")
        elif s == "water_nsquared":
            self.s_lj = kb.site("mulss", key="ljuf")

    # -------------------------------------------------- special kernels

    def _special_phase(self, it: int) -> Generator:
        s = self.spec.special
        rng = self.nprng
        if s == "blackscholes":
            # Deep out-of-the-money option tails: float32 exp() series
            # terms underflow.
            a = np.full(8, 2.5e-30, dtype=np.float32)
            b = (rng.random(8) * 2e-10 + 1e-11).astype(np.float32)
            _ = yield from self.stream(self.s_expuf, a, b)  # UE|PE
        elif s == "canneal":
            # Annealing temperature cools into the denormal range; the
            # acceptance tests then compare/route denormal doubles.
            t = np.full(4, 3e-310)
            cooled = yield from self.stream(self.s_cool, t, np.full(4, 0.3))
            _ = yield from self.stream(self.s_cmp, cooled, np.full(4, 1e-5))
            _ = yield from self.stream(self.s_cmp2, cooled, np.full(4, 0.0))
            _ = yield from self.stream(self.s_pmin, cooled, t)
            _ = yield from self.stream(self.s_pmax, cooled, t)
            # Routing costs arrive as denormal float32 and get widened.
            tiny32 = np.full(4, 2e-42, dtype=np.float32)
            _ = yield from self.stream(self.s_widen, tiny32)
            _ = yield from self.stream(self.s_wss, tiny32[:1])
            _ = yield from self.stream(
                self.s_coms, tiny32[:1], np.ones(1, dtype=np.float32)
            )
            if self.variant == "native" and it % 6 == 1:
                # At the native problem size the temperature model
                # overflows once (the Figure 9 / Figure 10 discrepancy).
                h = np.array([1e200])
                for _ in range(3):
                    h = yield from self.stream(self.s_heat, h, h)
        elif s == "cholesky":
            # Singular leading minor: the pivot is exactly zero.
            col = rng.random(6) + 0.5
            _ = yield from self.stream(self.s_pivdiv, col, np.zeros(6))  # ZE
        elif s in ("lu_cb", "lu_ncb"):
            # A NaN pivot from an earlier 0/0 propagates into the
            # elimination compare and divide: Invalid events.  comisd
            # signals on any NaN; ucomisd needs the signaling kind.
            nan = QNAN64 if s == "lu_cb" else SNAN64
            _ = yield FPInstruction(
                self.s_cmp, ((nan, float_to_bits64(1.0)),)
            )
            _ = yield FPInstruction(
                self.s_pivot, ((float_to_bits64(0.0), float_to_bits64(0.0)),)
            )
        elif s == "x264":
            # Cost metric fed an uninitialized (signaling NaN) block.
            good = float_to_bits32(float(rng.random() + 1.0))
            _ = yield FPInstruction(self.s_sad, ((SNAN32, good),))
            _ = yield FPInstruction(self.s_min, ((SNAN32, good),))
            _ = yield FPInstruction(self.s_max, ((good, SNAN32),))
            _ = yield FPInstruction(self.s_cmp, ((SNAN32, good),))
        elif s == "water_nsquared":
            # Far-field LJ energies underflow in single precision.
            a = np.full(8, 1.5e-25, dtype=np.float32)
            b = (rng.random(8) * 1e-16 + 1e-17).astype(np.float32)
            _ = yield from self.stream(self.s_lj, a, b)  # UE|PE

    def _generic_values(self, width: int):
        rng = self.nprng
        return rng.random(width) * 3.0 + 0.3, rng.random(width) * 2.0 + 0.7

    def _run_generic(self, it: int) -> Generator:
        """One pass over the benchmark-specific form set."""
        width = self.spec.width
        a, b = self._generic_values(width)
        acc = a
        for site in self.hot:
            form = site.form
            kind = form.kind
            if kind is CVT_I2F:
                ints = [(1 << 54) + 2 * (it * 7 + k) + 1 for k in range(width)]
                acc = yield from self.stream_ints(site, ints)
            elif form.arity == 1:
                operand = np.abs(np.asarray(acc, dtype=np.float64)) + 0.01
                f2i = kind in _F2I
                if f2i:
                    # Table lookups convert bounded indices, not raw sums.
                    operand = np.mod(operand, 997.0) + 0.5
                acc = yield from self.stream(site, operand)
                if f2i:
                    acc = a  # integer result: restart the float chain
            elif form.arity == 2:
                res = yield from self.stream(site, np.abs(acc[:width]) + 0.01, b)
                if kind not in _COMPARES:
                    acc = np.asarray(res, dtype=np.float64)
            else:  # pragma: no cover - no 3-operand forms in PARSEC specs
                raise AssertionError(form)
            if acc.dtype.kind != "f":
                acc = a
        return None

    def _worker(self, tid: int):
        def gen() -> Generator:
            iters = self.n(self.spec.iters)
            for it in range(iters):
                yield from self._run_generic(it)
                if tid == 0 and it % 3 == 1:
                    yield from self._special_phase(it)

        return gen

    def main(self) -> Generator:
        yield from self.touch_cold(self.cold, self.nprng.random(64) + 0.4)
        if self.spec.threads > 1:
            yield from spawn_threads(self.spec.threads, self._worker)
        else:
            yield from self._worker(0)()
        yield IntWork(10)


def make_parsec_benchmark(name: str, **kwargs) -> ParsecBenchmark:
    return ParsecBenchmark(_SPEC_BY_NAME[name], **kwargs)


class PARSECSuite:
    """Suite-level facade: run all 25 benchmarks as one 'application'."""

    name = "parsec"
    loc = 3_500_000
    languages = ("C", "C++")
    dependencies = ("GSL", "Intel TBB")
    problem = "Simlarge"
    parallelism = "pthreads"
    paper_exec_time = "2m 30.178s"
    static_symbols = PARSEC_STATIC_SYMBOLS

    def __init__(self, scale: float = 1.0, variant: str = "default", seed: int = 1234):
        self.scale = scale
        self.variant = variant
        self.seed = seed

    def benchmarks(self) -> list[ParsecBenchmark]:
        return [
            make_parsec_benchmark(
                n, scale=self.scale, variant=self.variant, seed=self.seed
            )
            for n in PARSEC_BENCHMARKS
        ]
