"""Unit tests for the analysis layer (events, timeline, rank-popularity)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.events import EventTable, inexact_stats
from repro.analysis.extract import code_rankpop_inputs, per_event_counts
from repro.analysis.rankpop import (
    RankPopularity,
    address_rankpop,
    form_histogram,
    form_rankpop,
    forms_only_in,
)
from repro.analysis.timeline import burstiness, cumulative_series, rate_series
from repro.fp.flags import EVENT_ORDER, NAME_TO_FLAG, Flag
from repro.isa.forms import form
from repro.isa.instruction import decode_form, encode_form
from repro.trace.reader import TraceSet
from repro.trace.records import AggregateRecord, IndividualRecord


def rec(time=0.0, rip=0x400000, mnemonic="mulsd", codes=int(Flag.PE)):
    return IndividualRecord(
        seq=0, time=time, rip=rip, rsp=0, mxcsr=0, sicode=0,
        codes=codes, insn=encode_form(form(mnemonic), rip),
    )


class TestEventTable:
    def test_render_contains_T_and_f(self):
        t = EventTable()
        t.add("app", {"Inexact", "Invalid"})
        text = t.render("title")
        assert "title" in text and "T" in text and "f" in text
        assert t.cell("app", "Inexact") and not t.cell("app", "Overflow")

    def test_as_dict(self):
        t = EventTable()
        t.add("a", {"Denorm"})
        d = t.as_dict()
        assert d["a"]["Denorm"] is True
        assert d["a"]["Inexact"] is False

    def test_inexact_stats(self):
        from repro.kernel.vfs import VFS
        from repro.trace.reader import TraceSet
        from repro.trace.writer import TraceWriter

        vfs = VFS()
        w = TraceWriter(vfs, "trace/a.1.1.ind")
        for i in range(4):
            w.append_individual(rec(time=i * 0.1))
        w.append_individual(rec(time=0.5, codes=int(Flag.ZE)))  # not inexact
        ts = TraceSet.from_vfs(vfs)
        st = inexact_stats("a", ts, wall_seconds=2.0)
        assert st.count == 4
        assert st.rate == 2.0


class TestTimeline:
    def test_rate_series_bins(self):
        records = [rec(time=t) for t in np.linspace(0, 1, 101)]
        centers, rates = rate_series(records, bins=10)
        assert len(centers) == 10
        assert rates.sum() * 0.1 == pytest.approx(101, rel=0.05)

    def test_rate_series_event_filter(self):
        records = [rec(time=0.1), rec(time=0.2, codes=int(Flag.IE)),
                   rec(time=0.3, codes=int(Flag.IE))]
        _, rates = rate_series(records, event="Invalid", bins=4)
        assert rates.sum() > 0
        _, rates_ue = rate_series(records, event="Underflow", bins=4)
        assert rates_ue.size == 0

    def test_rate_series_zoom(self):
        records = [rec(time=t) for t in (0.1, 0.2, 5.0)]
        centers, rates = rate_series(records, bins=5, t_start=0.0, t_end=1.0)
        assert centers[-1] <= 1.0

    def test_cumulative_series_monotone(self):
        records = [rec(time=t) for t in (0.3, 0.1, 0.2)]
        t, c = cumulative_series(records)
        assert list(t) == [0.1, 0.2, 0.3]
        assert list(c) == [1, 2, 3]

    def test_cumulative_until_window(self):
        records = [rec(time=t) for t in (0.0, 0.1, 10.0)]
        t, c = cumulative_series(records, until=1.0)
        assert len(t) == 2

    def test_burstiness_uniform_vs_bursty(self):
        uniform = [rec(time=t) for t in np.linspace(0, 1, 50)]
        bursty = [rec(time=t) for t in [*np.linspace(0, 0.01, 25),
                                        *np.linspace(5, 5.01, 25)]]
        assert burstiness(uniform) < 5
        assert burstiness(bursty) > 100

    def test_burstiness_degenerate(self):
        assert burstiness([]) == 0.0
        assert burstiness([rec(), rec()]) == 0.0

    def test_rate_series_empty_stream(self):
        """No events: empty arrays, no divide-by-zero warnings."""
        with np.errstate(all="raise"):
            centers, rates = rate_series([], bins=10)
        assert centers.size == 0 and rates.size == 0

    def test_rate_series_single_event(self):
        """One event has no interval to rate over: well-defined empty."""
        with np.errstate(all="raise"):
            centers, rates = rate_series([rec(time=0.5)], bins=10)
        assert centers.size == 0 and rates.size == 0

    def test_rate_series_identical_timestamps(self):
        """All events at one instant: the epsilon-wide range must not
        produce NaN or Inf rates."""
        records = [rec(time=1.0) for _ in range(5)]
        centers, rates = rate_series(records, bins=4)
        assert centers.size == 4
        assert np.isfinite(rates).all()

    def test_rate_series_filter_to_one_event(self):
        """An event filter that leaves a single record degrades to the
        single-event empty, not a crash."""
        records = [rec(time=0.1), rec(time=0.2, codes=int(Flag.IE))]
        with np.errstate(all="raise"):
            centers, rates = rate_series(records, event="Invalid", bins=4)
        assert centers.size == 0 and rates.size == 0

    def test_burstiness_zero_median_with_real_gaps(self):
        """Duplicates force a zero median gap; a real gap beyond them is
        burstiness beyond measure, not a ZeroDivisionError."""
        records = [rec(time=t) for t in (0.0, 0.0, 0.0, 5.0)]
        assert burstiness(records) == float("inf")

    def test_burstiness_all_identical_timestamps(self):
        records = [rec(time=1.0) for _ in range(6)]
        assert burstiness(records) == 0.0

    def test_cumulative_series_empty(self):
        t, c = cumulative_series([], until=1.0)
        assert t.size == 0 and c.size == 0


class TestRankPop:
    def _records(self):
        out = []
        # hot site: 90 events; warm: 9; cold: 1 -- heavy skew
        out += [rec(rip=0x400000, mnemonic="mulsd", time=i * 1e-3) for i in range(90)]
        out += [rec(rip=0x400100, mnemonic="addsd") for _ in range(9)]
        out += [rec(rip=0x400200, mnemonic="divsd")]
        return out

    def test_form_rankpop_ordering(self):
        rp = form_rankpop(self._records())
        assert rp.keys[0] == "mulsd"
        assert list(rp.counts) == [90, 9, 1]
        assert rp.total == 100

    def test_coverage_rank(self):
        rp = form_rankpop(self._records())
        assert rp.coverage_rank(0.90) == 1
        assert rp.coverage_rank(0.99) == 2
        assert rp.coverage_rank(1.0) == 3

    def test_address_rankpop(self):
        rp = address_rankpop(self._records())
        assert rp.keys[0] == 0x400000
        assert len(rp) == 3

    def test_event_filter_excludes_non_matching(self):
        records = self._records() + [
            rec(rip=0x400300, mnemonic="sqrtsd", codes=int(Flag.IE))
        ]
        rp = form_rankpop(records, event="Inexact")
        assert "sqrtsd" not in rp.keys
        rp_all = form_rankpop(records, event=None)
        assert "sqrtsd" in rp_all.keys

    def test_empty_distribution(self):
        rp = form_rankpop([])
        assert len(rp) == 0
        assert rp.total == 0
        assert rp.coverage_rank(0.99) == 0

    def test_top_and_skew(self):
        rp = form_rankpop(self._records())
        assert rp.top(2) == [("mulsd", 90), ("addsd", 9)]
        assert rp.skew() > 2.0

    def test_form_histogram_counts_codes(self):
        per_code = {
            "a": {"mulsd", "addsd"},
            "b": {"mulsd"},
            "c": {"mulsd", "divsd"},
        }
        h = form_histogram(per_code)
        assert h["mulsd"] == 3
        assert h["addsd"] == 1

    def test_form_histogram_exclusion(self):
        per_code = {"a": {"mulsd"}, "gromacs": {"vmulps", "mulsd"}}
        h = form_histogram(per_code, exclude=("gromacs",))
        assert "vmulps" not in h

    def test_forms_only_in(self):
        per_code = {"a": {"mulsd"}, "g": {"vmulps", "mulsd"}}
        assert forms_only_in(per_code, "g") == {"vmulps"}
        assert forms_only_in(per_code, "a") == set()

    def test_rankpop_dataclass(self):
        rp = RankPopularity(keys=("x",), counts=np.array([5]))
        assert rp.total == 5 and len(rp) == 1


class TestRawCodeReads:
    """``per_event_counts``, ``code_rankpop_inputs`` and
    ``TraceSet.event_union`` read the raw ``codes``/``status`` ints; their
    outputs equal the same rollups computed through ``Flag`` values,
    including bits outside the six condition codes."""

    _codes = st.integers(0, 0xFF)

    @settings(max_examples=60, deadline=None)
    @given(codes=st.lists(_codes, min_size=1, max_size=40),
           mnemonics=st.lists(st.sampled_from(["mulsd", "addss", "divpd"]),
                              min_size=40, max_size=40))
    def test_per_record_rollups_match_flag_reads(self, codes, mnemonics):
        recs = [rec(rip=0x400000 + 16 * (i % 3), mnemonic=m, codes=c)
                for i, (c, m) in enumerate(zip(codes, mnemonics))]
        expected = {}
        for name in EVENT_ORDER:
            n = sum(1 for r in recs if r.flags & NAME_TO_FLAG[name])
            if n:
                expected[name] = n
        got = per_event_counts(recs)
        assert got == expected
        assert list(got) == [n for n in EVENT_ORDER if n in got]

        ((_, forms_all, inexact_forms, inexact_addrs),) = (
            code_rankpop_inputs({"c": recs}))
        pe = [r for r in recs if r.flags & Flag.PE]
        assert forms_all == tuple(sorted({
            decode_form(r.insn).mnemonic for r in recs}))
        assert sum(n for _, n in inexact_forms) == len(pe)
        assert sorted(inexact_addrs) == sorted(
            (a, sum(1 for r in pe if r.rip == a)) for a in {r.rip for r in pe})

    @settings(max_examples=60, deadline=None)
    @given(agg=st.lists(st.tuples(_codes, st.booleans()), max_size=6),
           ind=st.lists(_codes, max_size=12))
    def test_event_union_matches_flag_reads(self, agg, ind):
        ts = TraceSet()
        ts.aggregate = [
            AggregateRecord(app="a", pid=1, tid=i, status=s, disabled=d)
            for i, (s, d) in enumerate(agg)
        ]
        ts.individual = {"trace/a.1.1.ind": [rec(codes=c) for c in ind]}
        expected = Flag.NONE
        for r in ts.aggregate:
            if not r.disabled:
                expected |= r.flags
        for r in ts.all_records():
            expected |= r.flags
        got = ts.event_union()
        assert isinstance(got, Flag) and got == expected
