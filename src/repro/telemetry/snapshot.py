"""Snapshot post-processing: flattening, derived rates, and diffing.

A snapshot is the JSON-ready dict :meth:`TelemetryBus.snapshot` returns:
``{"cycles": int, "scopes": {scope: {key: value}}}``.  This module turns
snapshots into flat ``scope.key -> number`` maps, derives the fast-path
*rates* the perf PRs gate on (fusion takes and batched-group shares are
what the ablation work actually promises -- wall-clock follows from
them), and
diffs two snapshots with a regression verdict, so ``repro telemetry
diff`` can fail a CI job when a refactor silently degrades a fast path
even if the wall-time smoke test stays green.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


def flatten_snapshot(snapshot: dict) -> dict[str, float]:
    """``{"scopes": {"cpu": {"fused": 3}}} -> {"cpu.fused": 3}``.

    Only numeric leaves are kept (nested dict gauges are flattened
    with dotted keys; strings are dropped -- diffs compare quantities).
    """
    flat: dict[str, float] = {}
    if "cycles" in snapshot:
        flat["cycles"] = snapshot["cycles"]

    def walk(prefix: str, value: object) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, bool):  # bools are ints; keep them out
            pass
        elif isinstance(value, (int, float)):
            flat[prefix] = value

    walk("", snapshot.get("scopes", {}))
    return flat


def _rate(flat: dict[str, float], hit_key: str, miss_key: str) -> float | None:
    hits = flat.get(hit_key)
    misses = flat.get(miss_key)
    if hits is None and misses is None:
        return None
    total = (hits or 0) + (misses or 0)
    if total == 0:
        return None
    return (hits or 0) / total


#: ``name -> (numerator key, denominator-complement key)``.  A derived
#: rate is hits/(hits+misses); absent counters yield no rate (a snapshot
#: from a run that never exercised a path cannot regress it).
RATE_DEFS: dict[str, tuple[str, str]] = {
    "cpu.trapfusion.fuse_rate": (
        "cpu.trapfusion.fused", "cpu.trapfusion.bailed"),
    "blockexec.fast_group_rate": (
        "blockexec.fast_groups", "blockexec.scalar_substeps"),
}


def derive_rates(flat: dict[str, float]) -> dict[str, float]:
    """The fast-path health rates ``repro telemetry diff`` gates on."""
    out: dict[str, float] = {}
    for name, (hit_key, miss_key) in RATE_DEFS.items():
        r = _rate(flat, hit_key, miss_key)
        if r is not None:
            out[name] = r
    return out


# ------------------------------------------------------------- merging

def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge *typed* snapshots into one plain snapshot.

    Inputs are :meth:`TelemetryBus.snapshot_typed` dicts, one per
    worker/run, **in spec order**; the output has the plain
    ``{"cycles": int, "scopes": {scope: {key: value}}}`` shape that
    :func:`flatten_snapshot`, :func:`diff_snapshots`, and the procfs
    renderers already understand.  Merge semantics:

    * ``cycles`` and counts: summed.
    * gauges: **last writer wins, in input order**.  A gauge is a level
      (cache occupancy, queue depth, a flag); sums are meaningless
      across runs, so the merged value is the sample from the latest
      spec-order snapshot that carried it.
    """
    cycles = 0
    acc: dict[str, dict[str, dict]] = {}
    for snap in snapshots:
        cycles += snap.get("cycles", 0)
        for sname, tscope in snap.get("scopes", {}).items():
            scope = acc.setdefault(sname, {"counts": {}, "gauges": {}})
            counts = scope["counts"]
            for k, v in tscope.get("counts", {}).items():
                counts[k] = counts.get(k, 0) + v
            scope["gauges"].update(tscope.get("gauges", {}))
    return {
        "cycles": cycles,
        "scopes": {name: {**acc[name]["counts"], **acc[name]["gauges"]}
                   for name in sorted(acc)},
    }


@dataclass
class SnapshotDiff:
    """The result of comparing snapshot ``a`` (baseline) to ``b`` (new)."""

    changed: dict[str, tuple[float, float]] = field(default_factory=dict)
    only_a: dict[str, float] = field(default_factory=dict)
    only_b: dict[str, float] = field(default_factory=dict)
    rates_a: dict[str, float] = field(default_factory=dict)
    rates_b: dict[str, float] = field(default_factory=dict)
    #: ``name -> (baseline rate, new rate)`` for every derived rate that
    #: dropped by more than the threshold.
    regressions: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines: list[str] = []
        for name in sorted(set(self.rates_a) | set(self.rates_b)):
            ra, rb = self.rates_a.get(name), self.rates_b.get(name)
            mark = "REGRESSION" if name in self.regressions else "ok"
            fa = "-" if ra is None else f"{ra:.4f}"
            fb = "-" if rb is None else f"{rb:.4f}"
            lines.append(f"rate  {name:<42s} {fa:>8s} -> {fb:>8s}  {mark}")
        for key in sorted(self.changed):
            va, vb = self.changed[key]
            lines.append(f"delta {key:<42s} {va:g} -> {vb:g}")
        for key in sorted(self.only_a):
            lines.append(f"gone  {key:<42s} {self.only_a[key]:g}")
        for key in sorted(self.only_b):
            lines.append(f"new   {key:<42s} {self.only_b[key]:g}")
        if not lines:
            lines.append("snapshots identical")
        return "\n".join(lines)


def diff_snapshots(a: dict, b: dict, threshold: float = 0.05) -> SnapshotDiff:
    """Compare two snapshots; flag derived-rate drops beyond ``threshold``.

    ``threshold`` is an absolute drop in the rate (0.05 = five
    percentage points), chosen over a relative one so near-zero rates
    do not produce noise verdicts.
    """
    fa, fb = flatten_snapshot(a), flatten_snapshot(b)
    diff = SnapshotDiff(rates_a=derive_rates(fa), rates_b=derive_rates(fb))
    for key in fa.keys() | fb.keys():
        if key not in fb:
            diff.only_a[key] = fa[key]
        elif key not in fa:
            diff.only_b[key] = fb[key]
        elif fa[key] != fb[key]:
            diff.changed[key] = (fa[key], fb[key])
    for name, ra in diff.rates_a.items():
        rb = diff.rates_b.get(name)
        if rb is not None and ra - rb > threshold:
            diff.regressions[name] = (ra, rb)
    return diff
