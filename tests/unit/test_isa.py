"""Unit tests for the instruction set layer."""

import pytest

from repro.fp.flags import Flag
from repro.fp.formats import BINARY32, BINARY64, float_to_bits32, float_to_bits64
from repro.fp.softfloat import DEFAULT_CONTEXT
from repro.isa.forms import AVX_FORMS, FORMS, SSE_FORMS, OpKind, form
from repro.isa.instruction import (
    TEXT_BASE,
    CodeLayout,
    FPInstruction,
    decode_form,
    encode_form,
)
from repro.isa.semantics import execute_form

b64 = float_to_bits64
b32 = float_to_bits32


class TestCatalogue:
    def test_exactly_39_sse_and_25_avx_forms(self):
        assert len(SSE_FORMS) == 39
        assert len(AVX_FORMS) == 25
        assert len(FORMS) == 64

    def test_paper_gromacs_forms_present(self):
        paper_list = [
            "vfmaddps", "vsubss", "vmulps", "vroundps", "vmulss", "vdivss",
            "vaddps", "vsqrtss", "vcvtsd2ss", "vfnmaddss", "vfmaddss",
            "vcvtps2dq", "vsubps", "vfmsubss", "vaddss", "vfmsubps", "subps",
            "vdpps", "addps", "vdivps", "vfnmaddps", "vsqrtsd", "cvtsi2sdq",
            "vucomiss", "vcvttss2si",
        ]
        assert sorted(paper_list) == sorted(f.mnemonic for f in AVX_FORMS)

    def test_scalar_forms_have_one_lane(self):
        assert form("addsd").lanes == 1
        assert form("addpd").lanes == 2
        assert form("vaddps").lanes == 8
        assert form("addps").lanes == 4

    def test_form_lookup_error_message(self):
        with pytest.raises(KeyError, match="unknown instruction form"):
            form("bogus")

    def test_arity(self):
        assert form("addsd").arity == 2
        assert form("sqrtsd").arity == 1
        assert form("vfmaddps").arity == 3


class TestEncoding:
    def test_encodings_are_unique_per_form(self):
        encs = {encode_form(f, TEXT_BASE)[:4] for f in FORMS.values()}
        assert len(encs) == len(FORMS)

    def test_decode_inverts_encode(self):
        for f in FORMS.values():
            assert decode_form(encode_form(f, 0x401234)) is f

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_form(b"\x00\x00\x00\x00\x00")

    def test_avx_prefix(self):
        assert encode_form(form("vaddps"), 0)[0] == 0xC5
        assert encode_form(form("addsd"), 0)[0] == 0x66


class TestCodeLayout:
    def test_addresses_are_sequential_from_text_base(self):
        layout = CodeLayout()
        s1 = layout.site("addsd")
        s2 = layout.site("mulsd")
        assert s1.address == TEXT_BASE
        assert s2.address == TEXT_BASE + 5
        assert len(layout) == 2

    def test_sites_record_form(self):
        layout = CodeLayout()
        s = layout.site("divsd")
        assert s.mnemonic == "divsd"
        assert s.form.kind == OpKind.DIV


class TestFPInstruction:
    def test_lane_count_validated(self):
        layout = CodeLayout()
        site = layout.site("addpd")  # 2 lanes
        with pytest.raises(ValueError, match="2 lane"):
            FPInstruction(site, ((b64(1.0), b64(2.0)),))

    def test_arity_validated(self):
        layout = CodeLayout()
        site = layout.site("addsd")
        with pytest.raises(ValueError, match="2 operand"):
            FPInstruction(site, ((b64(1.0),),))


class TestSemantics:
    def _exec(self, mnemonic, inputs):
        return execute_form(form(mnemonic), inputs, DEFAULT_CONTEXT)

    def test_scalar_add(self):
        out = self._exec("addsd", ((b64(1.5), b64(2.5)),))
        assert out.results == (b64(4.0),)
        assert out.flags == Flag.NONE

    def test_vector_flags_are_or_of_lanes(self):
        # lane 0 divides by zero, lane 1 is merely inexact.
        out = self._exec(
            "divpd",
            ((b64(1.0), b64(0.0)), (b64(1.0), b64(3.0))),
        )
        assert out.flags & Flag.ZE and out.flags & Flag.PE

    def test_fma_semantics(self):
        out = self._exec("vfmaddss", ((b32(2.0), b32(3.0), b32(4.0)),))
        assert out.results == (b32(10.0),)

    def test_fnmadd_semantics(self):
        out = self._exec("vfnmaddss", ((b32(2.0), b32(3.0), b32(10.0)),))
        assert out.results == (b32(4.0),)

    def test_fmsub_semantics(self):
        out = self._exec("vfmsubss", ((b32(2.0), b32(3.0), b32(1.0)),))
        assert out.results == (b32(5.0),)

    def test_compare_returns_relation(self):
        out = self._exec("ucomisd", ((b64(1.0), b64(2.0)),))
        assert out.results == (-1,)

    def test_cvt_f2i_truncation(self):
        out = self._exec("cvttsd2si", ((b64(2.9),),))
        assert out.results == (2,)
        assert out.flags & Flag.PE

    def test_cvt_i2f(self):
        out = self._exec("cvtsi2sd", ((42,),))
        assert out.results == (b64(42.0),)

    def test_cvt_i2f_quadword_form(self):
        out = self._exec("cvtsi2sdq", (((1 << 60) + 1,),))
        assert out.flags & Flag.PE

    def test_dpps_dot_product(self):
        # (1,2,3,4) . (1,1,1,1) = 10, broadcast to all lanes
        lanes = tuple((b32(float(i + 1)), b32(1.0)) for i in range(4))
        out = self._exec("vdpps", lanes)
        assert out.results == (b32(10.0),) * 4

    def test_narrowing_convert_flags(self):
        out = self._exec("vcvtsd2ss", ((b64(0.1),),))
        assert out.flags & Flag.PE

    def test_sqrt_negative_invalid(self):
        out = self._exec("sqrtsd", ((b64(-4.0),),))
        assert out.flags == Flag.IE

    def test_packed_single_eight_lanes(self):
        lanes = tuple((b32(float(i)), b32(1.0)) for i in range(8))
        out = self._exec("vaddps", lanes)
        assert len(out.results) == 8
        assert out.results[3] == b32(4.0)

    def test_round_to_integral_inexact(self):
        out = self._exec("vroundps", ((b32(1.5),),) * 8)
        assert out.flags & Flag.PE

    def test_tiny_propagates_from_any_lane(self):
        tiny_in = b64(5e-324)
        out = self._exec("mulpd", ((b64(0.5), tiny_in), (b64(1.0), b64(1.0))))
        assert out.tiny

    def test_every_form_executes_without_error(self):
        """Smoke: every catalogue form runs on benign inputs."""
        for f in FORMS.values():
            if f.kind == OpKind.CVT_I2F:
                lane = (7,) * f.arity
            elif f.fmt is BINARY32:
                lane = tuple(b32(1.5) for _ in range(f.arity))
            else:
                lane = tuple(b64(1.5) for _ in range(f.arity))
            out = execute_form(f, (lane,) * f.lanes, DEFAULT_CONTEXT)
            assert len(out.results) == f.lanes
