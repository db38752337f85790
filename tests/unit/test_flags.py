"""Unit tests for the condition-code / event model."""

import pytest

from repro.fp.flags import (
    ALL_CODES,
    ALL_FLAGS,
    DE,
    EVENT_ORDER,
    FLAG_NAMES,
    IE,
    OE,
    PE,
    PRIORITY,
    UE,
    ZE,
    Flag,
    events_to_flags,
    flags_to_events,
    highest_priority,
)
from repro.kernel.signals import FPE_SICODE, SiCode


def test_flag_bit_positions_match_mxcsr_layout():
    assert Flag.IE == 1
    assert Flag.DE == 2
    assert Flag.ZE == 4
    assert Flag.OE == 8
    assert Flag.UE == 16
    assert Flag.PE == 32


def test_all_flags_is_low_six_bits():
    assert int(ALL_FLAGS) == 0b111111


def test_flag_names_cover_all_six():
    assert set(FLAG_NAMES.values()) == set(EVENT_ORDER)
    assert len(FLAG_NAMES) == 6


def test_flags_to_events_table_order():
    assert flags_to_events(Flag.PE | Flag.ZE) == ["DivideByZero", "Inexact"]
    assert flags_to_events(ALL_FLAGS) == list(EVENT_ORDER)
    assert flags_to_events(Flag.NONE) == []


def test_events_to_flags_paper_names():
    assert events_to_flags(["Invalid"]) == Flag.IE
    assert events_to_flags(["DivideByZero", "Overflow"]) == Flag.ZE | Flag.OE
    assert events_to_flags(EVENT_ORDER) == ALL_FLAGS


def test_events_to_flags_mnemonics_and_case():
    assert events_to_flags(["ie", "PE"]) == Flag.IE | Flag.PE
    assert events_to_flags(["inexact"]) == Flag.PE


def test_events_to_flags_skips_empty_tokens():
    assert events_to_flags(["", "  ", "Denorm"]) == Flag.DE


def test_events_to_flags_rejects_unknown():
    with pytest.raises(ValueError):
        events_to_flags(["NotAnEvent"])


def test_highest_priority_prefers_precomputation_faults():
    assert highest_priority(Flag.PE | Flag.IE) == Flag.IE
    assert highest_priority(Flag.OE | Flag.ZE) == Flag.ZE
    assert highest_priority(Flag.UE | Flag.PE) == Flag.UE
    assert highest_priority(Flag.NONE) == Flag.NONE


def test_roundtrip_names():
    for flag, name in FLAG_NAMES.items():
        assert events_to_flags([name]) == flag
        assert flags_to_events(flag) == [name]


#: The si_code a SIGFPE carries for each delivered condition, written
#: out by hand so the table is checked against an independent source.
_SDM_SICODE = {
    Flag.IE: SiCode.FPE_FLTINV,
    Flag.DE: SiCode.FPE_FLTDEN,
    Flag.ZE: SiCode.FPE_FLTDIV,
    Flag.OE: SiCode.FPE_FLTOVF,
    Flag.UE: SiCode.FPE_FLTUND,
    Flag.PE: SiCode.FPE_FLTRES,
}


def test_int_codes_are_the_flag_bits():
    assert (IE, DE, ZE, OE, UE, PE) == tuple(int(f) for f in PRIORITY)
    assert ALL_CODES == int(ALL_FLAGS)


def test_priority_and_sicode_table_agree_on_every_pending_mask():
    # The delivered condition is the first of PRIORITY that is pending,
    # and the si_code table reports that condition's SDM code.
    assert len(FPE_SICODE) == ALL_CODES + 1
    assert highest_priority(0) == 0
    assert FPE_SICODE[0] == 0
    for pending in range(1, ALL_CODES + 1):
        first = next(f for f in PRIORITY if pending & f)
        assert highest_priority(pending) == first, pending
        assert FPE_SICODE[pending] == _SDM_SICODE[first], pending
