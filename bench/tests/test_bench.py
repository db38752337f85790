"""Tests of the end-to-end benchmark harness (``pytest bench/tests``).

The smoke tests run the real command at scale 0.02 with one pass per
workload, so the whole file stays well under a minute.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import pytest

from bench import stats
from bench.cli import END_TO_END, PER_LAYER, REPORTED, ROOT, SRC
from bench.ledger import ENTRY_POINTS, EXECUTOR_FACTORIES, Ledger
from bench.workloads import WORKLOADS

if SRC not in sys.path:
    sys.path.insert(0, SRC)


def run_bench(*args: str) -> tuple[int, list[str], dict]:
    """Run ``python -m bench`` at smoke scale; rc, lines, final JSON."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--scale", "0.02", "--reps", "1",
         *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


# ------------------------------------------------------------------ stats


def test_median_and_quartiles_match_statistics_module():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 7.0, 6.0]
    assert stats.median(xs) == 4.5
    q1, _, q3 = statistics.quantiles(xs, n=4)
    assert stats.quartiles(xs) == (q1, q3)
    assert stats.quartiles([2.5]) == (2.5, 2.5)
    assert stats.summary(xs) == {"median": 4.5, "q1": q1, "q3": q3, "n": 8}


def test_percentile_interpolates():
    assert stats.percentile([0.0, 10.0], 75) == 7.5
    assert stats.percentile(range(101), 90) == 90
    assert stats.percentile([3.0], 99) == 3.0
    assert stats.percentile([1.0, 2.0, 3.0], 50) == stats.median([1, 2, 3])


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (45, 75.0),
    (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


# ----------------------------------------------------------------- ledger


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    ledger = Ledger(clock=clock)

    def leaf():
        clock.tick(1.0)

    def memo_op():  # same layer as leaf: one entry, not two
        clock.tick(0.5)
        fp_leaf()

    fp_leaf = ledger.wrap("fp", "leaf", leaf)
    fp_memo = ledger.wrap("fp", "memo", memo_op)

    def step():
        clock.tick(2.0)
        fp_leaf()
        fp_memo()
        clock.tick(0.25)

    def run():
        clock.tick(3.0)
        cpu_step()
        cpu_step()

    cpu_step = ledger.wrap("machine", "step", step)
    kernel_run = ledger.wrap("kernel", "run", run, span=True)
    kernel_run()
    clock.tick(0.75)  # outside every wrapper: unattributed

    m = ledger.metrics(wall_s=clock.now)
    assert ledger.self_s["kernel"] == 3.0
    assert ledger.self_s["machine"] == 2 * 2.25
    assert ledger.self_s["fp"] == 2 * (1.0 + 0.5 + 1.0)
    assert m["unattributed.self_s"] == pytest.approx(0.75)
    assert sum(m[f"{layer}.share"] for layer in ledger.self_s) + \
        m["unattributed.share"] == pytest.approx(1.0)
    assert ledger.entries == {"leaf": 2, "memo": 2, "step": 2, "run": 1}
    assert m["machine.calls"] == 2
    # Only the once-per-run entry point keeps a span.
    assert ledger.spans == [(1, None, "kernel", "run", 0.0, 12.5, 3.0)]


def _patched_attributes() -> dict:
    """Every attribute the ledger may patch, keyed by (owner, name)."""
    import importlib

    found = {}
    for _layer, module, attr, _span in ENTRY_POINTS:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            found[(cls, meth)] = cls.__dict__[meth]
    targets = {id(getattr(importlib.import_module(m), a))
               for _l, m, a, _s in ENTRY_POINTS if "." not in a}
    cpu = importlib.import_module("repro.machine.cpu")
    targets |= {id(getattr(cpu, a)) for a in EXECUTOR_FACTORIES}
    for name, mod in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in vars(mod).items():
                if id(value) in targets:
                    found[(mod, attr)] = value
    return found


def test_trace_restores_every_wrapped_attribute():
    from repro.fpspy import fpspy_env
    from repro.kernel.kernel import Kernel
    from repro.machine.cpu import CPU
    from repro.study.targets import make_targets

    before = _patched_attributes()
    ledger = Ledger()
    with ledger:
        assert CPU.__dict__["step"] is not before[(CPU, "step")]
        kernel = Kernel()
        make_targets()["Miniaero"].launch(
            kernel, fpspy_env("individual"), 0.02, "default", 1234)
        kernel.run()
    after = _patched_attributes()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, changed
    m = ledger.metrics(wall_s=1.0)
    assert m["machine.steps"] > 0
    assert m["fpspy.sigfpe"] > 0
    assert m["kernel.sim_cycles"] == kernel.cycles


# ---------------------------------------------------------------- command


def test_smoke_prints_every_end_to_end_metric_with_unit(tmp_path):
    out = tmp_path / "BENCH_e2e.json"
    rc, lines, result = run_bench("--out", str(out))
    assert rc == 0
    assert result["correct"] and result["failed"] == 0
    for name in WORKLOADS:
        header = next(i for i, l in enumerate(lines)
                      if l.startswith(f"== {name}:"))
        rows = [m[:2] for m in END_TO_END + REPORTED]
        block = lines[header + 1:header + 1 + len(rows)]
        assert [tuple(l.split()[0:3:2]) for l in block] == rows
        assert float(block[-1].split()[1]) == 0.0  # fail_ratio
        for metric, unit, _b, _bound in END_TO_END:
            assert result["metrics"][f"{name}.{metric}"]["unit"] == unit

    from repro.analytics.sources import validate_bench_envelope

    payload = json.loads(out.read_text())
    assert validate_bench_envelope(payload) == []
    assert payload["metrics"]["study.fail_ratio"] == 0


def test_trace_prints_every_per_layer_metric(tmp_path):
    rc, lines, result = run_bench(
        "--workload", "trapstorm", "--trace", "1",
        "--out", str(tmp_path / "BENCH_e2e.json"))
    assert rc == 0 and result["correct"]
    assert set(result["metrics"]) == {m for m, _, _ in PER_LAYER}
    assert result["metrics"]["machine.steps"]["value"] > 0
    printed = {l.split()[0] for l in lines if l.startswith("  ")}
    assert {m for m, _, _ in PER_LAYER} <= printed


def test_reference_mismatch_fails_after_printing(tmp_path):
    ref = tmp_path / "reference.json"
    out = str(tmp_path / "BENCH_e2e.json")
    rc, _lines, result = run_bench(
        "--workload", "sampled50", "--reference", str(ref),
        "--write-reference", "--out", out)
    assert rc == 0 and result["correct"]

    data = json.loads(ref.read_text())
    data["sampled50"]["outputs"]["runs"][0]["cycles"] += 1
    ref.write_text(json.dumps(data))
    rc, lines, result = run_bench(
        "--workload", "sampled50", "--reference", str(ref), "--out", out)
    assert rc == 1
    assert not result["correct"] and result["failed"] == 1
    assert set(result["metrics"]) == {m for m, _, _, _ in END_TO_END}
    fail = next(l for l in lines if l.split()[:1] == ["fail_ratio"])
    assert float(fail.split()[1]) > 0


# ------------------------------------------------------------ declaration


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        decl = json.load(fh)
    assert [(w["name"], w["why"]) for w in decl["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in decl["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in decl["per_layer"]] == list(PER_LAYER)
