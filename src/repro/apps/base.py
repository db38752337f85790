"""Shared machinery for the synthetic applications."""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Generator, Iterable, Sequence

import numpy as np

from repro.fp.formats import (
    BINARY32, BINARY64, float_to_bits32, float_to_bits64)
from repro.guest.ops import IntWork, LibcCall
from repro.guest.program import GuestProgram, KernelBuilder
from repro.isa.forms import INT_RESULT_KINDS, OpKind
from repro.isa.instruction import CodeSite, FPInstruction

#: Bound once: each ``OpKind.X`` read goes through the enum metaclass's
#: ``__getattr__`` hook, so per-block guest code compares against this.
CVT_I2F = OpKind.CVT_I2F


class SimApp(GuestProgram):
    """Base class for the study's synthetic applications.

    Parameters
    ----------
    scale:
        Workload multiplier.  1.0 is the study default; benchmarks use
        smaller values for quick runs.
    variant:
        Problem-configuration tag.  The paper's passes were separate runs
        (sometimes with different problem sizes -- see the Figure 10
        caption and section 5.3), and a few rare events are
        configuration-dependent; variants model that honestly.
    seed:
        Deterministic RNG seed for operand generation.
    """

    #: Reference wall-clock of the real run, for the Figure 7 table.
    paper_exec_time: str = ""

    def __init__(self, scale: float = 1.0, variant: str = "default", seed: int = 1234):
        self.scale = scale
        self.variant = variant
        self.seed = seed
        self.kb = KernelBuilder()
        self.rng = random.Random(f"{self.name}:{seed}")
        # hashlib, not hash(): builtin str hashing is salted per process
        # (PYTHONHASHSEED), which would give every worker process its own
        # operand stream, so the same spec would yield different cycles
        # and traces per process (tests/integration/test_hashseed.py).
        digest = hashlib.sha256(f"{self.name}:{seed}".encode()).digest()
        self.nprng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        self._build_sites()

    # Subclasses allocate their static code sites here so addresses are
    # stable regardless of control flow.
    def _build_sites(self) -> None:
        raise NotImplementedError

    def main(self) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover

    def n(self, base: int, minimum: int = 1) -> int:
        """Scale an iteration count."""
        return max(minimum, int(base * self.scale))

    def idle(self, units: int, chunk: int = 2000) -> Generator:
        """Non-FP work, yielded in chunks so virtual timers stay accurate."""
        units = int(units)
        while units > 0:
            step = min(chunk, units)
            yield IntWork(step)
            units -= step

    # ------------------------------------------------------- common idioms

    def cold_sites(self, mnemonics: Sequence[str], count: int) -> list[CodeSite]:
        """Allocate ``count`` distinct single-use sites (init/setup code).

        Real applications have thousands of static FP instructions that
        execute a handful of times (mesh setup, I/O conversion, ...); these
        populate the long tail of the Figure 19 address distribution.
        """
        return [self.kb.site(self.rng.choice(mnemonics)) for _ in range(count)]

    def touch_cold(self, sites: Iterable[CodeSite], values: np.ndarray) -> Generator:
        """Execute each cold site once on successive operand values."""
        vals = np.asarray(values, dtype=np.float64).tolist()
        i = 0
        for site in sites:
            form = site.form
            if form.kind is CVT_I2F:
                conv = None
            elif (form.fmt or BINARY64) is BINARY32:
                conv = float_to_bits32
            else:
                conv = float_to_bits64
            ops = []
            for _lane in range(form.lanes):
                lane = []
                for _k in range(form.arity):
                    v = vals[i % len(vals)]
                    i += 1
                    lane.append(int(abs(v) * 100) + 1 if conv is None
                                else conv(v))
                ops.append(tuple(lane))
            yield FPInstruction(site, tuple(ops))

    #: Default per-instruction integer work (loads, index math, loop
    #: control).  Calibrates the event *rate* per app (Figure 15).
    INT_PER_FP: int = 500

    def stream(
        self, site: CodeSite, *arrays: np.ndarray, spread: int | None = None
    ) -> Generator:
        """Stream numpy arrays through a site; returns result floats.

        ``spread`` is the integer work interleaved after each instruction
        (default: the app's ``INT_PER_FP``).  Pass ``spread=0`` for
        burst phenomena: tight loops whose events are clustered in time
        (LAGHOS's re-zoning, GROMACS's collapse phases).
        """
        form = site.form
        fmt = form.fmt or BINARY64
        interleave = self.INT_PER_FP if spread is None else spread
        # Raw bit arrays (any shape, flattened in C order): no
        # per-element Python conversion on the hot path.
        encoded = [self.kb.encode_bits(a, fmt) for a in arrays]
        bits = yield from self.kb.emit(site, *encoded, interleave=interleave)
        if form.kind in INT_RESULT_KINDS:
            return np.frombuffer(bits, dtype=np.int64)
        return self.kb.decode_array(bits, form.dst_fmt or fmt)

    def stream_ints(
        self, site: CodeSite, values: Sequence[int], spread: int | None = None
    ) -> Generator:
        """Stream integer operands through an int->float convert site."""
        interleave = self.INT_PER_FP if spread is None else spread
        bits = yield from self.kb.emit(
            site, [int(v) for v in values], interleave=interleave
        )
        return self.kb.decode_array(bits, site.form.dst_fmt or BINARY64)


class AppRegistry:
    """Name -> factory registry used by the study harness."""

    def __init__(self) -> None:
        self._factories: dict[str, Callable[..., SimApp]] = {}

    def register(self, name: str, factory: Callable[..., SimApp]) -> None:
        self._factories[name] = factory

    def create(self, name: str, **kwargs) -> SimApp:
        return self._factories[name](**kwargs)

    def names(self) -> list[str]:
        return list(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories


#: The seven applications of Figure 7 (suites register separately).
APPLICATIONS = AppRegistry()


def spawn_threads(nthreads: int, worker_factory, join_work: int = 50):
    """Guest idiom: start ``nthreads`` workers then do a little work.

    The process exits when every thread finishes (the simulated kernel's
    equivalent of joining).
    """

    def gen():
        for i in range(nthreads):
            yield LibcCall("pthread_create", (worker_factory(i), (), f"worker{i}"))
        yield IntWork(join_work)

    return gen()


def mpi_launch(kernel, app_factory, nranks: int, env: dict[str, str], name: str):
    """``mpirun``-style indirect launch: a launcher process forks ranks.

    Each rank is a full process inheriting the launcher's environment --
    which is precisely why the env-var interface lets FPSpy instrument
    MPI jobs without touching ``mpirun`` (paper section 3.1).
    """

    def launcher_main():
        for rank in range(nranks):
            app = app_factory(rank)
            yield LibcCall("fork", (app.main, f"{name}-rank{rank}"))
        yield IntWork(10)

    return kernel.exec_process(
        launcher_main, env=env, name=f"mpirun-{name}", argv=("mpirun", name)
    )
