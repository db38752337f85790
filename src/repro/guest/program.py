"""Guest program base class and the numeric-kernel building toolkit.

:class:`GuestProgram` standardizes the metadata the study needs about each
application (Figure 7: language, lines of code, dependencies, problem) and
the static symbol inventory the source-code analysis pass greps for
(Figure 8).  Subclasses implement :meth:`main` as a generator.

:class:`KernelBuilder` turns array-style numeric kernels into instruction
streams: it allocates *static* code sites (one per textual occurrence of
an operation, which is what makes the Figure 19 address rank-popularity
meaningful) and provides ``yield from``-able emitters that stream array
elements through a site lane-by-lane, returning the results.
"""

from __future__ import annotations

from array import array
from typing import Generator, Iterable, Sequence

import numpy as np

from repro.fp.formats import (
    BINARY32,
    BINARY64,
    bits32_to_float,
    bits64_to_float,
    float_to_bits32,
    float_to_bits64,
)
from repro.guest.ops import FPBlock, IntWork
from repro.isa.instruction import CodeLayout, CodeSite, FPInstruction


class GuestProgram:
    """Base class for simulated application binaries.

    Class attributes mirror the paper's Figure 7 inventory columns plus
    the Figure 8 static-analysis symbol sets.
    """

    #: Application name as it appears in the paper's tables.
    name: str = "program"
    #: Primary implementation languages.
    languages: tuple[str, ...] = ("C",)
    #: Approximate lines of code of the real application (Figure 7).
    loc: int = 0
    #: Library dependencies (Figure 7).
    dependencies: tuple[str, ...] = ()
    #: The example problem the study runs (Figure 7).
    problem: str = ""
    #: Symbols appearing *statically* in the source (Figure 8 columns).
    static_symbols: frozenset[str] = frozenset()
    #: Parallelism model used for the study run.
    parallelism: str = "serial"

    def main(self) -> Generator:
        """The program entry point (a guest generator)."""
        raise NotImplementedError
        yield  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover
        return f"<GuestProgram {self.name}>"


class KernelBuilder:
    """Helpers for writing numeric kernels as instruction streams."""

    def __init__(self, layout: CodeLayout | None = None) -> None:
        self.layout = layout or CodeLayout()
        self._named: dict[str, CodeSite] = {}

    # ------------------------------------------------------------- sites

    def site(self, mnemonic: str, key: str | None = None) -> CodeSite:
        """Allocate (or reuse, when ``key`` repeats) a static code site.

        A loop body in a real binary is *one* static instruction executed
        many times; reusing a keyed site models that.
        """
        if key is not None:
            found = self._named.get(key)
            if found is not None:
                if found.mnemonic != mnemonic:
                    raise ValueError(
                        f"site key {key!r} already bound to {found.mnemonic}"
                    )
                return found
        s = self.layout.site(mnemonic)
        if key is not None:
            self._named[key] = s
        return s

    # ---------------------------------------------------------- encoding

    @staticmethod
    def encode(values: Iterable[float], fmt=BINARY64) -> list[int]:
        conv = float_to_bits64 if fmt is BINARY64 else float_to_bits32
        return [conv(float(v)) for v in values]

    @staticmethod
    def decode(bits: Iterable[int], fmt=BINARY64) -> list[float]:
        conv = bits64_to_float if fmt is BINARY64 else bits32_to_float
        return [conv(b) for b in bits]

    @staticmethod
    def encode_bits(values: np.ndarray, fmt=BINARY64) -> array:
        """Bit patterns of a numpy array in the block lane format: an
        ``array('Q')``, preserving NaNs/infs/denormals.

        The guest's NumPy data crosses into the lane format here, in one
        buffer copy for binary64 (``tobytes`` flattens any shape or
        stride in C order), so hot loops hand operand bits to the block
        engine without a per-element Python round trip.  Binary32 widens
        its 32-bit patterns to the 64-bit lanes once."""
        if fmt is BINARY64:
            return array("Q", np.asarray(values, dtype=np.float64).tobytes())
        bits = np.asarray(values, dtype=np.float32).view(np.uint32)
        return array("Q", bits.astype(np.uint64).tobytes())

    @staticmethod
    def decode_array(bits: array, fmt=BINARY64) -> np.ndarray:
        """A block's ``'Q'`` result lanes as a numpy float array: for
        binary64 a view of the lanes themselves."""
        if fmt is BINARY64:
            return np.frombuffer(bits, np.float64)
        raw = np.frombuffer(bits, dtype=np.uint64)
        return raw.astype(np.uint32).view(np.float32)

    # ---------------------------------------------------------- emitters

    def emit(
        self,
        site: CodeSite,
        *operand_streams: Sequence[int],
        interleave: int = 0,
        block: bool | None = None,
    ) -> Generator:
        """Stream N parallel operand sequences through ``site``.

        By default the whole stream is packaged as one :class:`FPBlock`
        superblock -- the machine executes it with semantics identical to
        the per-instruction stream, but may batch it when the task is
        quiescent (DESIGN.md decision #6).  Pass ``block=False`` to yield
        the stream the legacy way: one :class:`FPInstruction` per
        ``site.form.lanes`` elements (padding the tail with benign
        operands) with an :class:`IntWork` after each.  The per-element
        results come back flat in the lane format either way: the block's
        ``results`` array, or the same ``array`` from the legacy stream.

        ``interleave`` models the surrounding integer work of a real
        kernel: that many non-FP instructions are executed after each FP
        instruction (address arithmetic, loads/stores, loop control) --
        this spreads FP events through virtual time the way real
        applications do, which the Poisson sampler's statistics rely on.
        """
        form = site.form
        if len(operand_streams) != form.arity:
            raise ValueError(
                f"{form.mnemonic} takes {form.arity} operand stream(s), "
                f"got {len(operand_streams)}"
            )
        n = len(operand_streams[0])
        for stream in operand_streams[1:]:
            if len(stream) != n:
                raise ValueError("operand streams must have equal length")
        if block is None:
            block = True
        if block and n > 0:
            return (yield FPBlock.build(site, operand_streams, interleave))
        lanes = form.lanes
        pad = form.pad
        out = array(form.typecodes[1])
        for i in range(0, n, lanes):
            lane_inputs = []
            for j in range(lanes):
                idx = i + j
                if idx < n:
                    lane_inputs.append(tuple(s[idx] for s in operand_streams))
                else:
                    lane_inputs.append((pad,) * form.arity)
            results = yield FPInstruction(site, tuple(lane_inputs))
            out.extend(results[: min(lanes, n - i)])
            if interleave > 0:
                yield IntWork(interleave)
        return out
