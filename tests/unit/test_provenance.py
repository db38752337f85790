"""NaN/Inf/denorm provenance: coil attribution and rollups."""

import pytest

from repro.fp.formats import float_to_bits64 as b64
from repro.fp.provenance import ProvenanceTracker, classify, merge_rollups
from repro.fpspy import fpspy_env
from repro.kernel.kernel import Kernel, KernelConfig
from repro.validation.programs import provenance_program

QNAN = 0x7FF8000000000000
INF = 0x7FF0000000000000


def _run_nanchain(env=None, **cfg):
    kernel = Kernel(KernelConfig(tracing=True, **cfg))
    launch, expected = provenance_program()
    launch(kernel, env or {})
    kernel.run()
    return kernel, expected


def _attributed(kernel, expected):
    coils = kernel.provenance.coils()
    out = {}
    for sink_rip, (origin_rip, kind) in expected.items():
        out[sink_rip] = any(
            c.origin.rip == origin_rip
            and c.origin.kind == kind
            and any(rip == sink_rip for rip, _ in c.sinks)
            for c in coils
        )
    return out


class TestNanchainAttribution:
    def test_every_sink_traces_to_its_true_origin(self):
        kernel, expected = _run_nanchain()
        assert all(_attributed(kernel, expected).values())

    def test_attribution_survives_individual_mode_emulation(self):
        """Under FPSpy individual mode the chain ops fault and retire
        through trap-and-emulate; provenance must see the same coils."""
        kernel, expected = _run_nanchain(env=fpspy_env("individual"))
        assert all(_attributed(kernel, expected).values())

    def test_chains_have_expected_lengths(self):
        kernel, _ = _run_nanchain()
        coils = kernel.provenance.coils()
        assert len(coils) == 3
        assert [c.propagations for c in coils] == [2, 2, 2]
        assert [c.sink_count for c in coils] == [1, 1, 1]
        assert {c.origin.kind for c in coils} == {"nan", "inf", "denorm"}
        assert all(not c.origin.consumed for c in coils)


class TestPathIndependence:
    @pytest.mark.parametrize("target", ["Miniaero", "LAGHOS"])
    def test_blockexec_on_and_off_observe_the_same(self, target):
        """A quiescent chunk and the precise sub-steps it stands for
        observe the same operations at the same cycles: the observed
        count, every coil (origin, propagations, sinks and their cycle
        stamps) and the run's cycles match at the ``"storm"`` rung and at
        ``"trapfast"``, the rung below the block engine."""
        from repro.study.targets import make_targets

        runs = []
        for fastpaths in ("storm", "trapfast"):
            kernel = Kernel(KernelConfig(tracing=True, fastpaths=fastpaths))
            make_targets()[target].launch(
                kernel, fpspy_env("aggregate"), 0.2, "default", 1234)
            kernel.run()
            prov = kernel.provenance
            runs.append((prov.observed, prov.coils(), kernel.cycles))
        fast, precise = runs
        assert fast[1], "no coils: the comparison would be vacuous"
        assert fast == precise


class TestClassify:
    def test_kinds(self):
        from repro.fp.formats import BINARY64

        assert classify(BINARY64, QNAN) == "nan"
        assert classify(BINARY64, INF) == "inf"
        assert classify(BINARY64, 0x0000000000000001) == "denorm"
        assert classify(BINARY64, b64(1.0)) is None
        assert classify(BINARY64, 0) is None


class _Site:
    def __init__(self, form, address):
        self.form = form
        self.address = address


def _site(mnemonic, address):
    from repro.isa.forms import form

    return _Site(form(mnemonic), address)


class _FakeTask:
    class _P:
        pid = 7

    process = _P()
    tid = 7


class TestObserveRules:
    def test_consumption_origin_for_outside_nan(self):
        """A NaN arriving from untracked data makes a consumed origin."""
        tr = ProvenanceTracker()
        t = _FakeTask()
        tr.observe(t, _site("addsd", 0x10), ((QNAN, b64(1.0)),), (QNAN,), 0)
        tr.observe(t, _site("maxsd", 0x20), ((QNAN, b64(2.0)),), (b64(2.0),), 0)
        coils = tr.coils()
        assert len(coils) == 1
        assert coils[0].origin.consumed
        assert coils[0].origin.rip == 0x10
        assert coils[0].propagations == 0  # origin op starts, not extends
        assert coils[0].sinks == [(0x20, 0)]

    def test_integer_results_sink_chains(self):
        """Compares consume the tag without producing a float result."""
        tr = ProvenanceTracker()
        t = _FakeTask()
        tr.observe(t, _site("divsd", 0x10), ((b64(1.0), b64(0.0)),), (INF,), 0)
        tr.observe(t, _site("ucomisd", 0x20), ((INF, b64(1.0)),), (1,), 0)
        (coil,) = tr.coils()
        assert coil.origin.rip == 0x10 and not coil.origin.consumed
        assert coil.sink_count == 1

    def test_tag_cap_evicts_fifo(self):
        tr = ProvenanceTracker(tag_cap=4)
        t = _FakeTask()
        for i in range(8):
            tr.observe(
                t, _site("divsd", 0x100 + i),
                ((b64(float(i + 1)), b64(0.0)),), (INF | (i << 1),), 0,
            )
        assert tr.tag_evictions == 4

    def test_per_task_tag_isolation(self):
        """The same bit pattern in two tasks stays two chains."""
        tr = ProvenanceTracker()
        t1, t2 = _FakeTask(), _FakeTask()
        for t, rip in ((t1, 0x10), (t2, 0x20)):
            tr.observe(
                t, _site("divsd", rip), ((b64(1.0), b64(0.0)),), (INF,), 0)
        assert len(tr.coils()) == 2


class TestRollups:
    def test_top_groups_by_rip_and_kind(self):
        kernel, _ = _run_nanchain()
        rows = kernel.provenance.top()
        assert len(rows) == 3
        assert all(r["origins"] == 1 and r["propagations"] == 2 for r in rows)

    def test_merge_rollups_sums_and_orders(self):
        kernel, _ = _run_nanchain()
        rows = kernel.provenance.rollup_rows()
        merged = merge_rollups([rows, rows, ()])
        assert len(merged) == len(rows)
        for one, two in zip(rows, merged):
            assert two[0:3] == one[0:3]
            assert two[3:] == (one[3] * 2, one[4] * 2, one[5] * 2)
        # Deterministic order regardless of input order.
        assert merge_rollups([rows[::-1], rows]) == merge_rollups([rows, rows])
