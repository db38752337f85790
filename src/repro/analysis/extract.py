"""Shared figure-data extraction over individual trace records.

The campaign worker distils each run's trace records here -- per-event
record counts and per-code rank-popularity inputs -- and ships the
rollups in ``campaign.json``; the ``paper`` figure group
(:mod:`repro.analytics.figures_paper`) merges them and computes the
coverage statistics, also here.  The module imports neither side.

Everything in this module is a pure function of its inputs and returns
deterministically-ordered data (ties broken by key), so campaign-side
figure output is byte-stable no matter which worker produced a run or
in which order records were merged.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

import numpy as np

from repro.analysis.rankpop import RankPopularity
from repro.fp.flags import EVENT_ORDER, NAME_TO_FLAG, PE
from repro.isa.instruction import decode_form
from repro.trace.records import IndividualRecord


def per_event_counts(records: Iterable[IndividualRecord]) -> dict[str, int]:
    """Individual-record count per event name (Figure 15's numerator).

    Only events that occurred appear, in :data:`EVENT_ORDER` order.  A
    record carrying several flags counts once per flag, matching
    :func:`repro.analysis.events.inexact_stats` for the Inexact column.
    """
    by_codes = Counter(r.codes for r in records)
    totals = {}
    for name in EVENT_ORDER:
        bit = NAME_TO_FLAG[name].value
        n = sum(c for codes, c in by_codes.items() if codes & bit)
        if n:
            totals[name] = n
    return totals


def code_rankpop_inputs(
    records_by_code: Mapping[str, list[IndividualRecord]],
) -> tuple[tuple, ...]:
    """Per-code rank-popularity raw material for Figures 17-19.

    Returns ``(code, forms_all, inexact_forms, inexact_addrs)`` tuples,
    codes sorted, where ``forms_all`` is the sorted tuple of every form
    mnemonic observed (Figure 18 uses all records), ``inexact_forms``
    and ``inexact_addrs`` are ``(key, count)`` pairs over the
    Inexact-flagged records only (Figures 17/19), sorted by descending
    count then key.
    """
    out = []
    for code in sorted(records_by_code):
        recs = records_by_code[code]
        if not recs:
            continue
        forms_all: set[str] = set()
        form_counts: Counter = Counter()
        addr_counts: Counter = Counter()
        for r in recs:
            mnemonic = decode_form(r.insn).mnemonic
            forms_all.add(mnemonic)
            if r.codes & PE:
                form_counts[mnemonic] += 1
                addr_counts[r.rip] += 1
        out.append((
            code,
            tuple(sorted(forms_all)),
            _sorted_pairs(form_counts),
            _sorted_pairs(addr_counts),
        ))
    return tuple(out)


def _sorted_pairs(counter: Mapping) -> tuple[tuple, ...]:
    return tuple(sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])))


def rankpop_from_pairs(pairs: Iterable) -> RankPopularity:
    """A :class:`RankPopularity` with deterministic tie order.

    ``Counter.most_common`` breaks ties by insertion (i.e. record)
    order; rebuilding from sorted pairs makes the distribution -- and
    anything rendered from it -- independent of merge order.
    """
    items = _sorted_pairs(dict(pairs))
    keys = tuple(k for k, _ in items)
    counts = np.asarray([c for _, c in items], dtype=np.int64)
    return RankPopularity(keys=keys, counts=counts)


def rankpop_stats(rp: RankPopularity, top_k: int = 5) -> dict:
    """The Figure 17/19 row statistics for one distribution."""
    return {
        "n": len(rp),
        "rank99": rp.coverage_rank(0.99),
        "total": rp.total,
        "top": rp.top(top_k),
    }


def merge_rankpop_inputs(inputs: Iterable[Iterable]) -> tuple[tuple, ...]:
    """Merge :func:`code_rankpop_inputs` outputs from several runs.

    Form sets union; count pairs sum.  Merging the distilled inputs is
    exactly equivalent to distilling the concatenated records, so the
    campaign path (merge per-run inputs) and the study path (distil
    pooled records) agree bit for bit.
    """
    forms: dict[str, set] = {}
    form_counts: dict[str, Counter] = {}
    addr_counts: dict[str, Counter] = {}
    for run_inputs in inputs:
        for code, forms_all, form_pairs, addr_pairs in run_inputs:
            forms.setdefault(code, set()).update(forms_all)
            fc = form_counts.setdefault(code, Counter())
            for key, count in form_pairs:
                fc[key] += count
            ac = addr_counts.setdefault(code, Counter())
            for key, count in addr_pairs:
                ac[key] += count
    return tuple(
        (code, tuple(sorted(forms[code])),
         _sorted_pairs(form_counts[code]), _sorted_pairs(addr_counts[code]))
        for code in sorted(forms))


def form_stats_by_code(
    rankpop_inputs: Iterable, top_k: int = 5,
) -> dict[str, dict]:
    """Figure 17 rows: per-code form rank-popularity statistics."""
    out = {}
    for code, _forms_all, form_pairs, _addr_pairs in rankpop_inputs:
        if not form_pairs:
            continue
        s = rankpop_stats(rankpop_from_pairs(form_pairs), top_k=top_k)
        out[code] = {
            "n_forms": s["n"], "rank99": s["rank99"],
            "total": s["total"], "top": s["top"],
        }
    return out


def addr_stats_by_code(rankpop_inputs: Iterable) -> dict[str, dict]:
    """Figure 19 rows: per-code address rank-popularity statistics."""
    out = {}
    for code, _forms_all, _form_pairs, addr_pairs in rankpop_inputs:
        if not addr_pairs:
            continue
        s = rankpop_stats(rankpop_from_pairs(addr_pairs))
        out[code] = {
            "n_addresses": s["n"], "rank99": s["rank99"],
            "total": s["total"],
        }
    return out


def form_sets_by_code(rankpop_inputs: Iterable) -> dict[str, set[str]]:
    """Figure 18's input: every form each code's records exercised."""
    return {
        code: set(forms_all)
        for code, forms_all, _form_pairs, _addr_pairs in rankpop_inputs
        if forms_all
    }
