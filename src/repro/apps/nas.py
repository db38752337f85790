"""NAS Parallel Benchmarks 3.0 (Problem Size 1).

Paper profile:

* ~21k lines of Fortran/C, no external dependencies; 4m50s unencumbered.
* Static analysis: none of the intercepted symbols (Figure 8).
* Events: Inexact only -- "all of the NAS benchmarks behave well"
  (section 5.3); the paper contrasts this cleanliness against PARSEC to
  argue benchmarks may be unrepresentative of real applications.

Eight kernels, each a faithful miniature of the original's numeric core:
well-conditioned double-precision arithmetic that rounds and does
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.apps.base import CVT_I2F, SimApp


@dataclass(frozen=True)
class NasSpec:
    name: str
    forms: tuple[str, ...]
    iters: int = 24
    width: int = 12
    int_per_fp: int = 500


NAS_SPECS: tuple[NasSpec, ...] = (
    NasSpec("bt", ("mulsd", "addsd", "subsd", "divsd")),        # block tri
    NasSpec("cg", ("mulsd", "addsd", "subsd", "sqrtsd")),       # conj grad
    NasSpec("ep", ("mulsd", "addsd", "sqrtsd", "subsd")),       # embar. par.
    NasSpec("ft", ("mulsd", "addsd", "subsd", "mulpd")),        # 3-D FFT
    NasSpec("is", ("cvtsi2sd", "mulsd", "addsd")),              # int sort
    NasSpec("lu", ("mulsd", "subsd", "divsd", "addsd")),        # LU solver
    NasSpec("mg", ("addsd", "mulsd", "subsd", "addpd")),        # multigrid
    NasSpec("sp", ("mulsd", "addsd", "divsd", "subsd")),        # scalar penta
)

NAS_KERNELS: tuple[str, ...] = tuple(s.name for s in NAS_SPECS)
_SPEC_BY_NAME = {s.name: s for s in NAS_SPECS}


class NasKernel(SimApp):
    """One NAS kernel."""

    languages = ("Fortran", "C")
    dependencies = ()
    problem = "Problem Size 1"
    parallelism = "openmp"
    static_symbols = frozenset()

    def __init__(self, spec: NasSpec, scale: float = 1.0,
                 variant: str = "default", seed: int = 1234):
        self.spec = spec
        self.name = f"nas_{spec.name}"
        self.display_name = spec.name.upper()
        self.INT_PER_FP = spec.int_per_fp
        super().__init__(scale=scale, variant=variant, seed=seed)

    def _build_sites(self) -> None:
        self.hot = [
            self.kb.site(m, key=f"hot{i}") for i, m in enumerate(self.spec.forms)
        ]
        self.cold = self.cold_sites(list(self.spec.forms), 25)

    def main(self) -> Generator:
        yield from self.touch_cold(self.cold, self.nprng.random(32) + 0.6)
        width = self.spec.width
        a = self.nprng.random(width) * 2.0 + 0.5
        b = self.nprng.random(width) * 1.5 + 0.8
        acc = a
        for it in range(self.n(self.spec.iters)):
            for site in self.hot:
                form = site.form
                if form.kind is CVT_I2F:
                    ints = [(1 << 56) + 2 * (it * 5 + k) + 1 for k in range(width)]
                    acc = yield from self.stream_ints(site, ints)
                    acc = acc * 1e-16
                elif form.arity == 1:
                    acc = yield from self.stream(site, np.abs(acc) + 0.05)
                else:
                    acc = yield from self.stream(
                        site, np.abs(np.asarray(acc)[:width]) + 0.05, b
                    )
            acc = np.clip(np.abs(acc), 0.1, 50.0)


class NASSuite:
    """Suite facade for the eight kernels."""

    name = "nas"
    loc = 21_000
    languages = ("Fortran", "C")
    dependencies = ()
    problem = "Problem Size 1"
    parallelism = "openmp"
    paper_exec_time = "4m 50.443s"
    static_symbols = frozenset()

    def __init__(self, scale: float = 1.0, variant: str = "default", seed: int = 1234):
        self.scale = scale
        self.variant = variant
        self.seed = seed

    def benchmarks(self) -> list[NasKernel]:
        return [make_nas_kernel(n, scale=self.scale, variant=self.variant,
                                seed=self.seed) for n in NAS_KERNELS]


def make_nas_kernel(name: str, **kwargs) -> NasKernel:
    return NasKernel(_SPEC_BY_NAME[name], **kwargs)
