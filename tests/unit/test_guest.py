"""Unit tests for the guest authoring layer (KernelBuilder, ops)."""

from array import array

import numpy as np
import pytest

from repro.fp.formats import BINARY32, BINARY64, float_to_bits64
from repro.guest.ops import FPBlock, IntWork, LibcCall
from repro.guest.program import KernelBuilder
from repro.isa.instruction import FPInstruction
from repro.kernel.kernel import Kernel


def drive(gen):
    """Execute a guest generator on a fresh kernel; return final value."""
    result = {}

    def main():
        result["value"] = yield from gen
        return

    k = Kernel()
    proc = k.exec_process(main, env={}, name="t")
    k.run()
    assert proc.exit_code == 0
    return result["value"]


class TestOps:
    def test_intwork_validates(self):
        with pytest.raises(ValueError):
            IntWork(0)
        with pytest.raises(ValueError):
            IntWork(-5)

    def test_libccall_defaults(self):
        c = LibcCall("getpid")
        assert c.args == () and c.kwargs == {}


class TestKernelBuilder:
    def test_keyed_sites_are_reused(self):
        kb = KernelBuilder()
        s1 = kb.site("mulsd", key="loop")
        s2 = kb.site("mulsd", key="loop")
        s3 = kb.site("mulsd")
        assert s1 is s2
        assert s3 is not s1

    def test_keyed_site_mnemonic_conflict(self):
        kb = KernelBuilder()
        kb.site("mulsd", key="x")
        with pytest.raises(ValueError, match="already bound"):
            kb.site("addsd", key="x")

    def test_encode_decode_roundtrip(self):
        vals = [0.5, -1.25, 3.75]
        assert KernelBuilder.decode(KernelBuilder.encode(vals)) == vals

    def test_encode_array_preserves_special_values(self):
        arr = np.array([np.nan, np.inf, -0.0, 5e-324])
        bits = KernelBuilder.encode_bits(arr)
        back = KernelBuilder.decode_array(bits)
        assert np.isnan(back[0]) and np.isinf(back[1])
        assert np.signbit(back[2])
        assert back[3] == 5e-324

    def test_encode_array_float32(self):
        arr = np.array([1.5, 2.5], dtype=np.float32)
        bits = KernelBuilder.encode_bits(arr, BINARY32)
        assert all(b < (1 << 32) for b in bits)
        back = KernelBuilder.decode_array(bits, BINARY32)
        assert list(back) == [1.5, 2.5]

    def test_emit_scalar_stream(self):
        kb = KernelBuilder()
        site = kb.site("addsd")
        a = kb.encode([1.0, 2.0, 3.0])
        b = kb.encode([10.0, 20.0, 30.0])
        out = drive(kb.emit(site, a, b))
        assert kb.decode(out) == [11.0, 22.0, 33.0]

    def test_emit_packed_pads_tail(self):
        kb = KernelBuilder()
        site = kb.site("addpd")  # 2 lanes
        a = kb.encode([1.0, 2.0, 3.0])  # odd count: tail padded
        b = kb.encode([1.0, 1.0, 1.0])
        out = drive(kb.emit(site, a, b))
        assert kb.decode(out) == [2.0, 3.0, 4.0]  # padding not returned

    def test_emit_checks_arity(self):
        kb = KernelBuilder()
        site = kb.site("addsd")
        with pytest.raises(ValueError, match="operand stream"):
            drive(kb.emit(site, kb.encode([1.0])))

    def test_emit_checks_stream_lengths(self):
        kb = KernelBuilder()
        site = kb.site("addsd")
        with pytest.raises(ValueError, match="equal length"):
            drive(kb.emit(site, kb.encode([1.0]), kb.encode([1.0, 2.0])))

    def test_emit_interleave_advances_vtime(self):
        kb = KernelBuilder()
        site = kb.site("mulsd")
        a = kb.encode([1.0, 2.0, 3.0, 4.0])
        vt = {}

        def main():
            yield from kb.emit(site, a, a, interleave=100)
            return

        k = Kernel()
        proc = k.exec_process(main, env={}, name="t")
        k.run()
        # 4 FP instructions + 4 x 100 integer instructions
        assert proc.main_task.vtime == 404

    def test_ternary_fma_stream(self):
        kb = KernelBuilder()
        site = kb.site("vfmaddss")
        enc = lambda v: KernelBuilder.encode(v, BINARY32)  # noqa: E731
        out = drive(kb.emit(site, enc([2.0]), enc([3.0]), enc([4.0])))
        assert KernelBuilder.decode(out, BINARY32) == [10.0]


class TestLaneFormat:
    """The block lane format's producer side: ``encode_bits`` hands the
    guest's NumPy data over as ``array('Q')``, ``FPBlock.build`` packs
    that or an int list into padded lane arrays, and ``decode_array``
    reads the results back."""

    def test_encode_bits_is_the_lane_format(self):
        vals = [1.5, -0.0, 3e38]
        for fmt in (BINARY64, BINARY32):
            dtype = np.float64 if fmt is BINARY64 else np.float32
            bits = KernelBuilder.encode_bits(np.array(vals, dtype), fmt)
            assert isinstance(bits, array) and bits.typecode == "Q"
            assert bits.tolist() == KernelBuilder.encode(vals, fmt)

    def test_build_from_array_or_int_list_is_equal(self):
        kb = KernelBuilder()
        site = kb.site("addpd")  # 2 lanes: 3 elements pad to 4
        pad = KernelBuilder._pad_value(site)
        a = KernelBuilder.encode([1.0, 2.0, 3.0])
        b = KernelBuilder.encode([0.5, 0.25, 0.125])
        from_list = FPBlock.build(site, (a, b), 0, pad)
        from_array = FPBlock.build(
            site, (array("Q", a), KernelBuilder.encode_bits(np.array(
                [0.5, 0.25, 0.125]))), 0, pad)
        for blk in (from_list, from_array):
            assert [x.typecode for x in blk.arrays] == ["Q", "Q"]
            assert blk.arrays[0].tolist() == a + [pad]
            assert blk.arrays[1].tolist() == b + [pad]
            assert blk.results.typecode == "Q"
            assert (blk.n_groups, blk.n_elements, len(blk.results)) == (
                2, 3, 3)
            assert blk.group(1) == ((a[2], b[2]), (pad, pad))

    def test_build_signed_lanes(self):
        kb = KernelBuilder()
        cvt = kb.site("cvtsi2sd")
        blk = FPBlock.build(cvt, ([-5, 1 << 62],), 0, 1)
        assert blk.arrays[0].typecode == "q" and blk.results.typecode == "Q"
        assert blk.arrays[0].tolist() == [-5, 1 << 62]
        cmp = kb.site("ucomisd")
        one = float_to_bits64(1.0)
        blk = FPBlock.build(cmp, ([one], [one]), 0, one)
        assert blk.arrays[0].typecode == "Q" and blk.results.typecode == "q"

    def test_decode_array_reads_result_lanes(self):
        back = KernelBuilder.decode_array(array("Q", KernelBuilder.encode(
            [0.5, -2.0])))
        assert back.dtype == np.float64 and back.tolist() == [0.5, -2.0]
        back = KernelBuilder.decode_array(
            array("Q", KernelBuilder.encode([0.5, -2.0], BINARY32)), BINARY32)
        assert back.dtype == np.float32 and back.tolist() == [0.5, -2.0]

    def test_instruction_stream_returns_the_lane_format(self):
        kb = KernelBuilder()
        site = kb.site("addsd")
        a = kb.encode([1.0, 2.0])
        out = drive(kb.emit(site, a, a, block=False))
        assert isinstance(out, array) and out.typecode == "Q"
        assert kb.decode(out) == [2.0, 4.0]
