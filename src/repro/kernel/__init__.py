"""The simulated Linux kernel.

Provides exactly the kernel contract FPSpy depends on (paper Figure 4):

* signal delivery (``SIGFPE``, ``SIGTRAP``, ``SIGALRM``/``SIGVTALRM``)
  with a ``ucontext``/``mcontext`` the handler can read *and write*
  (FPSpy rewrites ``fpregs->mxcsr`` and the ``REG_EFL`` trap bit);
* processes and threads with environment inheritance across ``fork`` and
  ``clone``/``pthread_create``;
* interval timers in real and virtual (instructions-executed) time;
* an append-only file system for trace logs.
"""

from repro.kernel.signals import (
    Signal,
    SigInfo,
    MContext,
    UContext,
    SIG_DFL,
    SIG_IGN,
    FPE_SICODE,
)
from repro.kernel.task import Task, TaskState
from repro.kernel.process import Process
from repro.kernel.vfs import VFS
from repro.kernel.kernel import Kernel, KernelConfig

__all__ = [
    "Signal",
    "SigInfo",
    "MContext",
    "UContext",
    "SIG_DFL",
    "SIG_IGN",
    "FPE_SICODE",
    "Task",
    "TaskState",
    "Process",
    "VFS",
    "Kernel",
    "KernelConfig",
]
