"""Artifact loaders: campaign directories and BENCH perf history.

:class:`CampaignData` wraps what figures read from one campaign
output directory: ``campaign.json``, the merged result, whose
deterministic section is the only thing figure data may depend on.
Packed span files under ``traces/`` are read by
:func:`repro.trace.stats.collect_stats`, not here.

:func:`load_bench_history` reads ``BENCH_*.json`` artifacts into
:class:`BenchRecord` rows; it understands both the enveloped schema
(``{"name", "timestamp", "gates", "metrics"}``) and the legacy flat
form so the trajectory dashboard can span the entire history.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.analysis.extract import merge_rankpop_inputs

#: The merged result inside a campaign output directory.
RESULT_FILE = "campaign.json"


@dataclass
class CampaignData:
    """One campaign output directory, parsed."""

    path: str
    name: str
    spec_hash: str
    runs: list[dict]  #: deterministic per-run dicts, spec order
    event_union: list[str]
    provenance: list = field(default_factory=list)

    # ---------------------------------------------------------- loading

    @classmethod
    def load(cls, path: str | os.PathLike) -> "CampaignData":
        """Parse one campaign directory.

        A missing or unparsable ``campaign.json`` raises ``ValueError``
        naming the file: no figure is built from a partial campaign.
        """
        path = os.fspath(path)
        result_path = os.path.join(path, RESULT_FILE)
        try:
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(
                f"cannot load campaign result {result_path}: {exc}") from None
        det = result.get("deterministic", {})
        return cls(
            path=path,
            name=det.get("campaign", os.path.basename(path) or path),
            spec_hash=det.get("spec_hash", ""),
            runs=list(det.get("runs", [])),
            event_union=list(det.get("event_union", [])),
            provenance=list(det.get("provenance", [])),
        )

    # ------------------------------------------------------- run access

    @staticmethod
    def parse_label(label: str) -> tuple[str, str]:
        """``"WRF/sampled@0.3#1234"`` -> ``("WRF", "sampled")``."""
        app, _, rest = label.partition("/")
        mode = rest.partition("@")[0]
        return app, mode

    def runs_by_mode(self, mode: str) -> list[dict]:
        return [
            r for r in self.runs
            if self.parse_label(r.get("label", ""))[1] == mode]

    def apps_by_mode(self, mode: str) -> dict[str, list[dict]]:
        """App name -> that app's runs under ``mode``, spec order."""
        out: dict[str, list[dict]] = {}
        for r in self.runs_by_mode(mode):
            app = self.parse_label(r.get("label", ""))[0]
            out.setdefault(app, []).append(r)
        return out

    def rankpop_inputs(
        self, modes: tuple[str, ...] = ("sampled", "filtered"),
    ) -> tuple:
        """Merged per-code rank-popularity inputs across ``modes``.

        Merging per-run distilled inputs is exactly equivalent to
        distilling the pooled records (:mod:`repro.analysis.extract`),
        so this matches the live study path used by the benchmarks.
        """
        per_run = [
            r["rankpop"] for mode in modes for r in self.runs_by_mode(mode)
            if r.get("rankpop")]
        return merge_rankpop_inputs(per_run)


def load_campaigns(paths) -> list[CampaignData]:
    """Load several campaign directories (order preserved)."""
    return [CampaignData.load(p) for p in paths]


def _read_json(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ------------------------------------------------------------- BENCH history

#: Required top-level keys of an enveloped ``BENCH_*.json`` artifact.
BENCH_SCHEMA_KEYS = ("name", "timestamp", "gates", "metrics")
#: Optional top-level key: metrics a host-conditional gate did not check
#: on the host that produced the artifact.
BENCH_UNCHECKED_KEY = "unchecked"


def bench_envelope(
    name: str, metrics: dict, gates: dict | None = None,
    timestamp: str | None = None, unchecked: list[str] | None = None,
) -> dict:
    """The shared ``BENCH_*.json`` payload shape.

    ``benchmarks/conftest.write_results`` builds artifacts through this
    (so every benchmark publishes the same envelope) and the schema
    unit test validates against the same rules
    (:func:`validate_bench_envelope`).  ``unchecked`` names the metrics
    whose gate this host could not evaluate; it is omitted when empty.
    """
    if timestamp is None:
        from datetime import datetime, timezone

        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    env = {
        "name": name,
        "timestamp": timestamp,
        "gates": dict(gates or {}),
        "metrics": dict(metrics),
    }
    if unchecked:
        env[BENCH_UNCHECKED_KEY] = list(unchecked)
    return env


def validate_bench_envelope(d: object) -> list[str]:
    """Schema problems with a BENCH payload; empty list = valid."""
    problems: list[str] = []
    if not isinstance(d, dict):
        return [f"payload is {type(d).__name__}, not an object"]
    for key in BENCH_SCHEMA_KEYS:
        if key not in d:
            problems.append(f"missing key {key!r}")
    extra = set(d) - set(BENCH_SCHEMA_KEYS) - {BENCH_UNCHECKED_KEY}
    if extra:
        problems.append(f"unexpected top-level keys {sorted(extra)}")
    if problems:
        return problems
    if not isinstance(d["name"], str) or not d["name"]:
        problems.append("name must be a non-empty string")
    ts = d["timestamp"]
    if not isinstance(ts, str) or not ts:
        problems.append("timestamp must be a non-empty string")
    else:
        from datetime import datetime

        try:
            datetime.fromisoformat(ts)
        except ValueError:
            problems.append(f"timestamp {ts!r} is not ISO-8601")
    metrics = d["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        problems.append("metrics must be a non-empty object")
        metrics = {}
    if BENCH_UNCHECKED_KEY in d:
        unchecked = d[BENCH_UNCHECKED_KEY]
        if not isinstance(unchecked, list) or not unchecked or not all(
                isinstance(m, str) and m in metrics for m in unchecked):
            problems.append(
                "unchecked must be a non-empty list of metric names")
    gates = d["gates"]
    if not isinstance(gates, dict):
        problems.append("gates must be an object")
        gates = {}
    for metric, band in gates.items():
        if metric not in metrics:
            problems.append(f"gate {metric!r} has no matching metric")
        if not isinstance(band, dict) or not set(band) <= {"max", "min"} \
                or not band:
            problems.append(
                f"gate {metric!r} must be {{'max': v}} and/or {{'min': v}}")
            continue
        for kind, bound in band.items():
            if not isinstance(bound, (int, float)) \
                    or isinstance(bound, bool):
                problems.append(f"gate {metric!r} {kind} bound not numeric")
    return problems


@dataclass(frozen=True)
class BenchRecord:
    """One ``BENCH_*.json`` artifact."""

    name: str  #: benchmark name, e.g. "campaign" for BENCH_campaign.json
    path: str
    timestamp: str  #: ISO-8601 UTC, "" for legacy artifacts
    gates: dict  #: metric -> {"max": v} / {"min": v} threshold bands
    metrics: dict

    def numeric_metrics(self) -> dict[str, float]:
        """Scalar metrics only, insertion order preserved."""
        return {
            k: float(v) for k, v in self.metrics.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }


def load_bench_history(paths) -> list[BenchRecord]:
    """``BENCH_*.json`` files and/or directories -> records.

    Directories are searched recursively so a CI-accumulated history
    tree (one timestamped subdir per run) loads in one call.  Sidecar
    artifacts (``*.trace.json`` exports, ``*.spans.bin``) are skipped.
    """
    files: list[str] = []
    for p in paths:
        p = os.fspath(p)
        if os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = sorted(d for d in dirs if not d.startswith("."))
                for name in sorted(names):
                    if _is_bench_json(name):
                        files.append(os.path.join(root, name))
        elif _is_bench_json(os.path.basename(p)):
            files.append(p)
    records = []
    for path in files:
        d = _read_json(path)
        if not isinstance(d, dict):
            continue
        records.append(_coerce_bench(path, d))
    records.sort(key=lambda r: (r.name, r.timestamp, r.path))
    return records


def _is_bench_json(name: str) -> bool:
    return (name.startswith("BENCH_") and name.endswith(".json")
            and not name.endswith(".trace.json"))


def _coerce_bench(path: str, d: dict) -> BenchRecord:
    stem = os.path.basename(path)[len("BENCH_"):-len(".json")]
    if isinstance(d.get("metrics"), dict):
        return BenchRecord(
            name=str(d.get("name") or stem), path=path,
            timestamp=str(d.get("timestamp") or ""),
            gates=dict(d.get("gates") or {}), metrics=dict(d["metrics"]))
    # Legacy flat artifact: the whole payload is the metric dict.
    return BenchRecord(
        name=stem, path=path, timestamp="", gates={}, metrics=dict(d))
