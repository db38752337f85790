"""Unit tests for the dynamic linker and libc symbol surface."""

import pytest

from repro.kernel.kernel import Kernel
from repro.loader.fenv import (
    FE_ALL_EXCEPT,
    FE_DFL_ENV,
    FE_DIVBYZERO,
    FE_INEXACT,
    FE_INVALID,
    FEnv,
    fe_to_flags,
    flags_to_fe,
)
from repro.fp.flags import Flag
from repro.kernel.signals import SigInfo, SiCode, Signal
from repro.loader.ldso import Loader, register_preload
from repro.loader.libc import FENV_SYMBOLS, LIBC_SYMBOLS
from repro.machine.cpu import GuestCallContext


def make_process(env=None):
    k = Kernel()

    def main():
        yield from ()

    return k.exec_process(main, env=env or {}, name="t")


class TestFenvConstants:
    def test_fe_macros_match_flag_bits(self):
        assert FE_INVALID == int(Flag.IE)
        assert FE_DIVBYZERO == int(Flag.ZE)
        assert FE_INEXACT == int(Flag.PE)
        assert FE_ALL_EXCEPT == 0x3F

    def test_fe_flag_conversions(self):
        assert fe_to_flags(FE_INVALID | FE_INEXACT) == Flag.IE | Flag.PE
        assert flags_to_fe(Flag.ZE) == FE_DIVBYZERO
        assert fe_to_flags(flags_to_fe(Flag.OE | Flag.UE)) == Flag.OE | Flag.UE

    def test_default_env(self):
        assert FE_DFL_ENV == FEnv(mxcsr=0x1F80)


class TestLibcCatalogue:
    def test_figure8_functions_present(self):
        for name in (
            "fork", "clone", "pthread_create", "pthread_exit", "signal",
            "sigaction", "feenableexcept", "fedisableexcept", "fegetexcept",
            "feclearexcept", "fegetexceptflag", "feraiseexcept",
            "fesetexceptflag", "fetestexcept", "fegetround", "fesetround",
            "fegetenv", "feholdexcept", "fesetenv", "feupdateenv",
        ):
            assert name in LIBC_SYMBOLS, name

    def test_fenv_symbol_set(self):
        assert "fesetenv" in FENV_SYMBOLS
        assert "fork" not in FENV_SYMBOLS
        assert all(s.startswith("fe") for s in FENV_SYMBOLS)


class TestLoader:
    def test_resolve_base_symbol(self):
        proc = make_process()
        assert proc.loader.resolve("getpid") is LIBC_SYMBOLS["getpid"]

    def test_undefined_symbol(self):
        proc = make_process()
        with pytest.raises(KeyError, match="undefined symbol"):
            proc.loader.resolve("nothing")

    def test_interposition_shadows_base(self):
        proc = make_process()
        marker = lambda ctx: "wrapped"  # noqa: E731
        proc.loader.interpose("getpid", marker)
        assert proc.loader.resolve("getpid") is marker
        # dlsym(RTLD_NEXT) still reaches the real one.
        assert proc.loader.real("getpid") is LIBC_SYMBOLS["getpid"]

    def test_cannot_interpose_undefined(self):
        proc = make_process()
        with pytest.raises(KeyError):
            proc.loader.interpose("made_up", lambda ctx: None)

    def test_uninterpose(self):
        proc = make_process()
        proc.loader.interpose("getpid", lambda ctx: None)
        proc.loader.uninterpose("getpid")
        assert proc.loader.resolve("getpid") is LIBC_SYMBOLS["getpid"]

    def test_unknown_preload_rejected(self):
        k = Kernel()

        def main():
            yield from ()

        with pytest.raises(KeyError, match="unknown preload"):
            k.exec_process(main, env={"LD_PRELOAD": "libweird.so"})

    def test_preload_lifecycle_hooks(self):
        calls = []

        class Probe:
            def __init__(self, process):
                calls.append("init")

            def install(self, loader):
                calls.append("install")

            def constructor(self, task):
                calls.append("ctor")

            def destructor(self, task):
                calls.append("dtor")

        register_preload("probe.so", Probe)
        k = Kernel()

        def main():
            yield from ()

        k.exec_process(main, env={"LD_PRELOAD": "probe.so"}, name="t")
        k.run()
        assert calls == ["init", "install", "ctor", "dtor"]

    def test_multiple_preloads_colon_separated(self):
        seen = []

        class A:
            def __init__(self, process):
                seen.append("a")

            def install(self, loader):
                pass

            def constructor(self, task):
                pass

            def destructor(self, task):
                pass

        class B(A):
            def __init__(self, process):
                seen.append("b")

        register_preload("a.so", A)
        register_preload("b.so", B)
        k = Kernel()

        def main():
            yield from ()

        k.exec_process(main, env={"LD_PRELOAD": "a.so:b.so"})
        assert seen == ["a", "b"]

    def test_fpspy_preload_lazily_registered(self):
        proc = make_process({"LD_PRELOAD": "fpspy.so"})
        assert len(proc.loader.preloads) == 1


class TestFenvExceptions:
    def _ctx(self):
        proc = make_process()
        task = proc.main_task
        task.last_rip = 0x401234
        return GuestCallContext(proc.kernel, task), task

    def test_feraiseexcept_unmasked_posts_one_sigfpe(self):
        ctx, task = self._ctx()
        LIBC_SYMBOLS["feenableexcept"](ctx, FE_INVALID | FE_INEXACT)
        LIBC_SYMBOLS["feraiseexcept"](ctx, FE_INVALID | FE_INEXACT)
        assert task.mxcsr.status == Flag.IE | Flag.PE
        # Invalid outranks Inexact in the priority encoding.
        assert list(task.pending_signals) == [
            SigInfo(signo=Signal.SIGFPE, code=SiCode.FPE_FLTINV,
                    addr=0x401234)
        ]

    def test_feraiseexcept_masked_only_sets_sticky_bits(self):
        ctx, task = self._ctx()
        LIBC_SYMBOLS["feraiseexcept"](ctx, FE_INVALID | FE_INEXACT)
        assert task.mxcsr.status == Flag.IE | Flag.PE
        assert not task.pending_signals

    def test_enable_disable_get_return_previously_enabled_set(self):
        ctx, _ = self._ctx()
        assert LIBC_SYMBOLS["fegetexcept"](ctx) == 0
        assert LIBC_SYMBOLS["feenableexcept"](ctx, FE_DIVBYZERO) == 0
        assert (LIBC_SYMBOLS["feenableexcept"](ctx, FE_INVALID)
                == FE_DIVBYZERO)
        assert LIBC_SYMBOLS["fegetexcept"](ctx) == FE_DIVBYZERO | FE_INVALID
        assert (LIBC_SYMBOLS["fedisableexcept"](ctx, FE_DIVBYZERO)
                == FE_DIVBYZERO | FE_INVALID)
        assert LIBC_SYMBOLS["fegetexcept"](ctx) == FE_INVALID
        assert LIBC_SYMBOLS["fedisableexcept"](ctx, FE_ALL_EXCEPT) == FE_INVALID
        assert LIBC_SYMBOLS["fegetexcept"](ctx) == 0
