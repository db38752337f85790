"""Unit tests for the guest authoring layer (KernelBuilder, ops)."""

from array import array

import numpy as np
import pytest

from repro.apps.base import SimApp
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


#: Bit patterns the crossing must carry unchanged: quiet and signalling
#: NaNs with payloads (both signs), +-0, the smallest and largest
#: subnormals (both signs), +-inf and two normals.
_SPECIAL_BITS = {
    BINARY64: [
        0x7FF8000000000123, 0xFFF8000000000001, 0x7FF0000000000005,
        0xFFF0000000000ABC, 0x0000000000000000, 0x8000000000000000,
        0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,
        0x7FF0000000000000, 0xFFF0000000000000, 0x3FF8000000000000,
    ],
    BINARY32: [
        0x7FC00123, 0xFFC00001, 0x7F800001, 0xFF800ABC, 0x00000000,
        0x80000000, 0x00000001, 0x007FFFFF, 0x807FFFFF, 0x7F800000,
        0xFF800000, 0x3FC00000,
    ],
}
_DTYPES = {BINARY64: (np.float64, np.uint64), BINARY32: (np.float32, np.uint32)}


def _specials(fmt):
    """The special values as a 1-D array of ``fmt``'s float dtype."""
    ftype, utype = _DTYPES[fmt]
    return np.array(_SPECIAL_BITS[fmt], dtype=utype).view(ftype)


def _crossing_inputs(fmt):
    """Every input shape a guest hands ``encode_bits``: 1-D, 2-D,
    strided and transposed views, the other float width, Python lists
    and 0-d values."""
    flat = _specials(fmt)
    grid = flat.reshape(3, 4)
    other = _specials(BINARY32 if fmt is BINARY64 else BINARY64)
    return [
        flat, grid, grid[:, ::2], grid.T, flat[::3], grid[::-1, 1:3],
        other, other.reshape(4, 3)[::2], flat.tolist(), grid.tolist(),
        flat[5], np.array(flat[7]), 2.5, [],
    ]


def _old_encode_bits(values, fmt):
    """The crossing as it was: ``stream``'s ravel, then a view, a
    widening ``astype`` and a copy."""
    a = np.asarray(values).ravel()
    if fmt is BINARY64:
        bits = np.asarray(a, dtype=np.float64).view(np.uint64)
    else:
        bits = np.asarray(a, dtype=np.float32).view(np.uint32)
    return array("Q", bits.astype(np.uint64, copy=False).tobytes())


#: Converting a signalling NaN between widths raises the host's invalid
#: flag, which NumPy reports as a warning; both crossings convert alike.
_SNAN_CASTS = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in cast:RuntimeWarning")


class _Probe(SimApp):
    name = "probe"

    def _build_sites(self):
        self.addpd = self.kb.site("addpd")
        self.addps = self.kb.site("addps")


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

    @_SNAN_CASTS
    @pytest.mark.parametrize("fmt", [BINARY64, BINARY32], ids=["d", "s"])
    def test_encode_bits_equals_the_old_crossing(self, fmt):
        for values in _crossing_inputs(fmt):
            new = KernelBuilder.encode_bits(values, fmt)
            assert new.typecode == "Q"
            assert new.tolist() == _old_encode_bits(values, fmt).tolist(), (
                values)

    def test_special_bits_cross_unchanged(self):
        for fmt in (BINARY64, BINARY32):
            bits = KernelBuilder.encode_bits(_specials(fmt), fmt)
            assert bits.tolist() == _SPECIAL_BITS[fmt]

    @_SNAN_CASTS
    @pytest.mark.parametrize("fmt", [BINARY64, BINARY32], ids=["d", "s"])
    def test_decode_array_round_trips_every_case(self, fmt):
        ftype, utype = _DTYPES[fmt]
        for values in _crossing_inputs(fmt):
            back = KernelBuilder.decode_array(
                KernelBuilder.encode_bits(values, fmt), fmt)
            want = np.asarray(values, dtype=ftype).ravel()
            assert back.dtype == ftype
            assert back.view(utype).tolist() == want.view(utype).tolist(), (
                values)

    def test_stream_of_2d_builds_the_raveled_block(self):
        app = _Probe()
        for site, dtype in ((app.addpd, np.float64), (app.addps, np.float32)):
            a = np.arange(1.0, 13.0, dtype=dtype).reshape(3, 4)
            b = _specials(BINARY32 if dtype is np.float32 else BINARY64)
            b = b.reshape(4, 3).T  # non-contiguous
            blocks = [next(app.stream(site, x, y))
                      for x, y in ((a, b), (a.ravel(), b.ravel()))]
            assert [x.tolist() for x in blocks[0].arrays] == [
                x.tolist() for x in blocks[1].arrays]
            assert blocks[0].n_elements == blocks[1].n_elements == 12

    def test_build_from_array_or_int_list_is_equal(self):
        kb = KernelBuilder()
        site = kb.site("addpd")  # 2 lanes: 3 elements pad to 4
        pad = site.form.pad
        a = KernelBuilder.encode([1.0, 2.0, 3.0])
        b = KernelBuilder.encode([0.5, 0.25, 0.125])
        from_list = FPBlock.build(site, (a, b), 0)
        from_array = FPBlock.build(
            site, (array("Q", a), KernelBuilder.encode_bits(np.array(
                [0.5, 0.25, 0.125]))), 0)
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
        blk = FPBlock.build(cvt, ([-5, 1 << 62],), 0)
        assert blk.arrays[0].typecode == "q" and blk.results.typecode == "Q"
        assert blk.arrays[0].tolist() == [-5, 1 << 62]
        cmp = kb.site("ucomisd")
        one = float_to_bits64(1.0)
        blk = FPBlock.build(cmp, ([one], [one]), 0)
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
