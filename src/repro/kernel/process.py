"""Processes: address-space containers with shared signal dispositions.

Environment variables are the configuration channel for FPSpy (paper
Figure 2): they are inherited across ``fork`` and ``pthread_create``, so
a single job launch wrapped with ``[FPSPY_VARS] app args...`` transitively
instruments the whole process tree -- including ``mpirun``-style indirect
launches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.kernel.signals import SIG_DFL, Signal
from repro.kernel.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.loader.ldso import Loader


class Process:
    """One guest process."""

    def __init__(
        self,
        pid: int,
        kernel: "Kernel",
        env: dict[str, str],
        argv: tuple[str, ...] = (),
        parent: Optional["Process"] = None,
        name: str = "",
    ) -> None:
        self.pid = pid
        self.kernel = kernel
        self.env = dict(env)
        self.argv = tuple(argv)
        self.parent = parent
        self.name = name or (argv[0] if argv else f"proc{pid}")

        self.tasks: dict[int, Task] = {}
        self._next_tid = 1
        #: Signal dispositions shared by all threads of the process.
        self.sighandlers: dict[Signal, object] = {}
        self.loader: "Loader | None" = None
        self.exit_code: int | None = None
        self.killed_by: Signal | None = None
        self.children: list[Process] = []

    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.exit_code is None and self.killed_by is None

    @property
    def main_task(self) -> Task:
        return self.tasks[1]

    def getenv(self, key: str, default: str | None = None) -> str | None:
        return self.env.get(key, default)

    def sigaction(self, signo: Signal, handler: object) -> object:
        """Install a handler, returning the previous disposition."""
        prev = self.sighandlers.get(signo, SIG_DFL)
        self.sighandlers[signo] = handler
        if (
            handler is not prev
            and prev is not SIG_DFL
            and signo in (Signal.SIGFPE, Signal.SIGTRAP)
        ):
            # Replacing a *live* FPE/TRAP disposition mid-run (an app
            # hooking over FPSpy, or FPSpy untangling itself) is one of
            # the flight recorder's interesting sink classes; initial
            # installs over SIG_DFL are routine and stay unmarked.
            tr = self.kernel.tracer
            cur = self.kernel.current_task
            if tr is not None and cur is not None and cur.process is self:
                tr.note_disposition(cur)
        return prev

    def disposition(self, signo: Signal) -> object:
        return self.sighandlers.get(signo, SIG_DFL)

    def new_task(self, genfunc: Callable[[], Generator], name: str = "") -> Task:
        """Create a runnable task executing ``genfunc()``."""
        tid = self._next_tid
        self._next_tid += 1
        task = Task(tid=tid, process=self, gen=genfunc(), name=name)
        self.tasks[tid] = task
        self.kernel.enqueue(task)
        return task

    def live_tasks(self) -> list[Task]:
        return [t for t in self.tasks.values() if t.alive]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Process {self.pid} {self.name!r}>"
