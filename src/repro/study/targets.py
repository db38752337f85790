"""Study targets: the nine rows of the paper's tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.apps import APPLICATIONS, ENZO, LAGHOS, LAMMPS
from repro.apps.base import mpi_launch
from repro.apps.nas import NASSuite
from repro.apps.parsec import PARSECSuite
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.trace.reader import TraceSet


@dataclass
class RunResult:
    """Everything one target run produced."""

    name: str
    kernel: Kernel
    traces: TraceSet
    wall_seconds: float
    user_seconds: float
    system_seconds: float
    processes: list[Process] = field(default_factory=list)


def _collect(name: str, kernel: Kernel) -> RunResult:
    procs = list(kernel.processes.values())
    freq = kernel.config.freq_hz
    user = sum(t.utime_cycles for p in procs for t in p.tasks.values()) / freq
    system = sum(t.stime_cycles for p in procs for t in p.tasks.values()) / freq
    return RunResult(
        name=name,
        kernel=kernel,
        traces=TraceSet.from_vfs(kernel.vfs),
        wall_seconds=kernel.now_seconds,
        user_seconds=user,
        system_seconds=system,
        processes=procs,
    )


@dataclass(frozen=True)
class StudyTarget:
    """One table row: how to build and launch it."""

    name: str  #: display name, e.g. "LAGHOS"
    kind: str  #: "process" | "mpi" | "suite"
    launch: Callable[[Kernel, dict, float, str, int], None]
    static_symbols: frozenset[str] = frozenset()
    meta: dict = field(default_factory=dict)

    def run(
        self,
        env: dict[str, str],
        scale: float = 1.0,
        variant: str = "default",
        seed: int = 1234,
    ) -> RunResult:
        kernel = Kernel()
        self.launch(kernel, env, scale, variant, seed)
        kernel.run()
        return _collect(self.name, kernel)


def _process_target(display: str, regname: str) -> StudyTarget:
    cls = APPLICATIONS._factories[regname]

    def launch(kernel, env, scale, variant, seed):
        app = APPLICATIONS.create(regname, scale=scale, variant=variant, seed=seed)
        kernel.exec_process(app.main, env=env, name=app.name)

    return StudyTarget(
        name=display, kind="process", launch=launch,
        static_symbols=cls.static_symbols,
        meta={"cls": cls},
    )


def _mpi_target(display: str, cls, nranks: int = 2) -> StudyTarget:
    def launch(kernel, env, scale, variant, seed):
        mpi_launch(
            kernel,
            lambda r: cls(scale=scale, variant=variant, seed=seed, rank=r,
                          nranks=nranks),
            nranks, env, cls.name,
        )

    return StudyTarget(
        name=display, kind="mpi", launch=launch,
        static_symbols=cls.static_symbols, meta={"cls": cls},
    )


def _suite_target(display: str, suite_cls) -> StudyTarget:
    def launch(kernel, env, scale, variant, seed):
        suite = suite_cls(scale=scale, variant=variant, seed=seed)
        for bench in suite.benchmarks():
            kernel.exec_process(bench.main, env=env, name=bench.name)

    return StudyTarget(
        name=display, kind="suite", launch=launch,
        static_symbols=suite_cls.static_symbols, meta={"cls": suite_cls},
    )


#: Table row order used throughout the paper.
TARGET_NAMES: tuple[str, ...] = (
    "Miniaero", "LAMMPS", "LAGHOS", "MOOSE", "WRF", "ENZO",
    "PARSEC 3.0", "NAS 3.0", "GROMACS",
)


def make_targets() -> dict[str, StudyTarget]:
    """Build all nine study targets, keyed by display name."""
    return {
        "Miniaero": _process_target("Miniaero", "miniaero"),
        "LAMMPS": _mpi_target("LAMMPS", LAMMPS),
        "LAGHOS": _mpi_target("LAGHOS", LAGHOS),
        "MOOSE": _process_target("MOOSE", "moose"),
        "WRF": _process_target("WRF", "wrf"),
        "ENZO": _mpi_target("ENZO", ENZO),
        "PARSEC 3.0": _suite_target("PARSEC 3.0", PARSECSuite),
        "NAS 3.0": _suite_target("NAS 3.0", NASSuite),
        "GROMACS": _process_target("GROMACS", "gromacs"),
    }
