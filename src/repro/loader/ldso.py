"""The dynamic linker: symbol resolution, interposition, ctors/dtors.

``LD_PRELOAD`` in the process environment lists preload libraries
(comma- or colon-separated).  Each name resolves through the preload
registry; the canonical entry is ``"fpspy.so"``.  A preload library may
interpose on any libc symbol -- subsequent guest calls resolve to the
wrapper, which can itself chain to the real symbol via
:meth:`Loader.real` (the ``dlsym(RTLD_NEXT, ...)`` idiom real FPSpy uses).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

from repro.loader.libc import LIBC_SYMBOLS

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.process import Process
    from repro.kernel.task import Task


class PreloadLibrary(Protocol):
    """The shared-object contract: install wrappers, then ctor/dtor."""

    def install(self, loader: "Loader") -> None:  # pragma: no cover
        ...

    def constructor(self, task: "Task") -> None:  # pragma: no cover
        ...

    def destructor(self, task: "Task") -> None:  # pragma: no cover
        ...


#: name -> factory(process) for preloadable shared objects.
_PRELOAD_REGISTRY: dict[str, Callable[["Process"], PreloadLibrary]] = {}


def register_preload(name: str, factory: Callable[["Process"], PreloadLibrary]) -> None:
    _PRELOAD_REGISTRY[name] = factory


def _lookup_preload(name: str) -> Callable[["Process"], PreloadLibrary]:
    if name in _PRELOAD_REGISTRY:
        return _PRELOAD_REGISTRY[name]
    if name == "fpspy.so":
        # Lazy default: importing the package registers the factory.
        import repro.fpspy.preload  # noqa: F401

        return _PRELOAD_REGISTRY[name]
    raise KeyError(f"unknown preload library {name!r}")


class Loader:
    """Per-process dynamic linker state."""

    def __init__(self, process: "Process") -> None:
        self.process = process
        self._base: dict[str, Callable] = dict(LIBC_SYMBOLS)
        self._interposed: dict[str, Callable] = {}
        self.preloads: list[PreloadLibrary] = []

    # ----------------------------------------------------------- loading

    def load(self) -> None:
        """Process ``LD_PRELOAD`` and install each preload's wrappers."""
        raw = self.process.getenv("LD_PRELOAD", "") or ""
        for token in raw.replace(":", ",").split(","):
            name = token.strip()
            if not name:
                continue
            factory = _lookup_preload(name)
            lib = factory(self.process)
            lib.install(self)
            self.preloads.append(lib)

    def run_constructors(self, task: "Task") -> None:
        for lib in self.preloads:
            lib.constructor(task)

    def run_destructors(self, task: "Task") -> None:
        for lib in reversed(self.preloads):
            lib.destructor(task)

    # -------------------------------------------------------- resolution

    def resolve(self, name: str) -> Callable:
        """What a guest PLT call binds to (interposers shadow libc)."""
        fn = self._interposed.get(name)
        if fn is not None:
            return fn
        try:
            return self._base[name]
        except KeyError:
            raise KeyError(f"undefined symbol {name!r}") from None

    def real(self, name: str) -> Callable:
        """``dlsym(RTLD_NEXT, name)``: skip interposers."""
        return self._base[name]

    def interpose(self, name: str, wrapper: Callable) -> None:
        if name not in self._base:
            raise KeyError(f"cannot interpose on undefined symbol {name!r}")
        self._interposed[name] = wrapper

    def uninterpose(self, name: str) -> None:
        self._interposed.pop(name, None)
