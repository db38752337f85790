"""Declarative campaign specifications.

A campaign is a named, ordered list of independent run specs.  Each
:class:`RunSpec` pins everything a worker needs to reproduce the run
bit-for-bit -- target, study pass (FPSpy configuration), problem scale
and variant, app seed, and the telemetry and tracing switches -- so
the merged campaign output is a pure function of the spec, never of
worker count or completion order.

Specs round-trip through JSON (``repro.study campaign run --spec
path.json``) and two builtin campaigns cover the common cases:

* ``smoke``    -- four quick runs; the CI campaign smoke job.
* ``figbench`` -- every study target under the three monitored passes,
  i.e. the run set behind the paper's figure suite; the scaling
  benchmark's workload.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, replace

from repro.study.passes import pass_variant
from repro.study.targets import TARGET_NAMES

#: Study passes a spec may name (see :func:`repro.study.passes.pass_env`).
PASS_NAMES = ("baseline", "aggregate", "filtered", "sampled")


@dataclass(frozen=True)
class RunSpec:
    """One independent spy/benchmark run."""

    app: str  #: study target display name, e.g. "Miniaero"
    mode: str = "aggregate"  #: study pass: baseline|aggregate|filtered|sampled
    scale: float = 1.0
    seed: int = 1234
    variant: str = "default"
    telemetry: bool = False
    tracing: bool = False  #: flight recorder + provenance (DESIGN.md #10)

    @property
    def label(self) -> str:
        return f"{self.app}/{self.mode}@{self.scale:g}#{self.seed}"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        return cls(**d)


@dataclass(frozen=True)
class CampaignSpec:
    """A named, ordered list of run specs."""

    name: str
    runs: tuple[RunSpec, ...]

    def __len__(self) -> int:
        return len(self.runs)

    def to_json(self) -> str:
        return json.dumps(
            {"name": self.name, "runs": [r.to_dict() for r in self.runs]},
            indent=2, sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        d = json.loads(text)
        return cls(
            name=d["name"],
            runs=tuple(RunSpec.from_dict(r) for r in d["runs"]),
        )

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "CampaignSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    @property
    def spec_hash(self) -> str:
        """Stable content hash identifying the exact run list."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]

    def with_overrides(
        self,
        scale: float | None = None,
        seed: int | None = None,
        telemetry: bool | None = None,
        tracing: bool | None = None,
    ) -> "CampaignSpec":
        """A copy with per-run fields overridden campaign-wide."""
        kw = {}
        if scale is not None:
            kw["scale"] = scale
        if seed is not None:
            kw["seed"] = seed
        if telemetry is not None:
            kw["telemetry"] = telemetry
        if tracing is not None:
            kw["tracing"] = tracing
        if not kw:
            return self
        return CampaignSpec(
            name=self.name, runs=tuple(replace(r, **kw) for r in self.runs))


# ------------------------------------------------------------ builtins

#: Monitored passes the figure suite is built from (baseline runs carry
#: no FPSpy and produce no traces; the figures only need them for the
#: overhead sweep, which stays a dedicated benchmark).
_FIG_PASSES = ("aggregate", "filtered", "sampled")


def smoke_campaign(scale: float = 0.3, seed: int = 1234) -> CampaignSpec:
    """Four quick runs across both modes; the CI smoke workload."""
    return CampaignSpec(
        name="smoke",
        runs=(
            RunSpec(app="Miniaero", mode="aggregate", scale=scale, seed=seed),
            RunSpec(app="Miniaero", mode="filtered", scale=scale, seed=seed),
            RunSpec(app="GROMACS", mode="aggregate", scale=scale, seed=seed),
            RunSpec(app="WRF", mode="sampled", scale=scale, seed=seed),
        ),
    )


def figbench_campaign(scale: float = 1.0, seed: int = 1234) -> CampaignSpec:
    """Every study target under the three monitored passes.

    This is exactly the independent-run set the figure suite and the
    paper's app sweep are built from, with each pass's problem variants
    mirrored from the study (:func:`repro.study.passes.pass_variant`).
    """
    runs = []
    for mode in _FIG_PASSES:
        for target in TARGET_NAMES:
            runs.append(RunSpec(
                app=target, mode=mode, scale=scale, seed=seed,
                variant=pass_variant(mode, target),
            ))
    return CampaignSpec(name="figbench", runs=tuple(runs))


def figures_campaign(scale: float = 1.0, seed: int = 1234) -> CampaignSpec:
    """Every study target under all four passes, baseline included.

    The full input set of the ``repro.analytics`` paper-figure group:
    the three monitored passes feed the event tables and rank-popularity
    figures, and the baseline pass supplies the unencumbered wall times
    Figure 7's inventory quotes.
    """
    runs = []
    for mode in ("baseline",) + _FIG_PASSES:
        for target in TARGET_NAMES:
            runs.append(RunSpec(
                app=target, mode=mode, scale=scale, seed=seed,
                variant=pass_variant(mode, target),
            ))
    return CampaignSpec(name="figures", runs=tuple(runs))


BUILTIN_CAMPAIGNS = {
    "smoke": smoke_campaign,
    "figbench": figbench_campaign,
    "figures": figures_campaign,
}


def build_campaign(
    spec: str,
    scale: float | None = None,
    seed: int | None = None,
    telemetry: bool | None = None,
    tracing: bool | None = None,
) -> CampaignSpec:
    """Resolve ``spec`` (builtin name or JSON file path) to a campaign."""
    if spec in BUILTIN_CAMPAIGNS:
        campaign = BUILTIN_CAMPAIGNS[spec]()
    elif os.path.exists(spec):
        campaign = CampaignSpec.from_file(spec)
    else:
        raise ValueError(
            f"unknown campaign spec {spec!r}: not a builtin "
            f"({', '.join(sorted(BUILTIN_CAMPAIGNS))}) and not a file")
    return campaign.with_overrides(
        scale=scale, seed=seed, telemetry=telemetry, tracing=tracing)
