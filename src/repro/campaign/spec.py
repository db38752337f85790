"""Declarative campaign specifications.

A campaign is a named, ordered list of independent run specs.  Each
:class:`RunSpec` pins everything a worker needs to reproduce the run
bit-for-bit -- target, study pass (FPSpy configuration), problem scale
and variant, app seed, and the telemetry and tracing switches -- so
the merged campaign output is a pure function of the spec, never of
worker count or completion order.

Specs round-trip through JSON (``repro.study campaign run --spec
path.json``) and three builtin campaigns cover the common cases:

* ``smoke``    -- four quick runs; the CI campaign smoke job.
* ``figbench`` -- every study target under the three monitored passes,
  i.e. the run set behind the paper's figure suite; the scaling
  benchmark's workload.
* ``figures``  -- ``figbench`` plus the baseline pass: the input set of
  the analytics paper-figure group.

A spec file and the command line's overrides are the campaign input
that comes from outside the program.  :meth:`CampaignSpec.from_json`
and :func:`build_campaign` check every field of it against
:data:`_RUN_FIELDS` and raise ``ValueError`` on anything else;
:class:`RunSpec` itself stays unchecked, so tests can build the
malformed runs the worker's own checks and the runner's retry path
must handle.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, replace
from functools import cached_property

from repro.study.passes import pass_variant
from repro.study.targets import TARGET_NAMES

#: Study passes a spec may name (see :func:`repro.study.passes.pass_env`).
PASS_NAMES = ("baseline", "aggregate", "filtered", "sampled")


def _is_bool(v) -> bool:
    return isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_scale(v) -> bool:
    if _is_int(v):
        return v > 0
    return isinstance(v, float) and math.isfinite(v) and v > 0


#: What a run field read from outside the program must satisfy.  The
#: campaign-wide overrides :func:`build_campaign` takes are checked by
#: the same rules.
_RUN_FIELDS = {
    "app": lambda v: isinstance(v, str) and v in TARGET_NAMES,
    "mode": lambda v: isinstance(v, str) and v in PASS_NAMES,
    "variant": lambda v: isinstance(v, str),
    "scale": _is_scale,
    "seed": _is_int,
    "telemetry": _is_bool,
    "tracing": _is_bool,
}


def _check_fields(fields: dict, where: str) -> None:
    """``ValueError`` unless every field is known and valid."""
    for key, value in fields.items():
        check = _RUN_FIELDS.get(key)
        if check is None:
            raise ValueError(f"{where}: unknown field {key!r}; choose "
                             f"from {', '.join(_RUN_FIELDS)}")
        if not check(value):
            raise ValueError(f"{where}: invalid {key} {value!r}")


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
        """Parse a spec; ``ValueError`` unless it is exactly ``{"name",
        "runs"}`` with a non-empty list of run objects, each naming an
        ``app`` and every field valid by :data:`_RUN_FIELDS`."""
        d = json.loads(text)
        if not isinstance(d, dict) or set(d) != {"name", "runs"} \
                or not isinstance(d["name"], str):
            raise ValueError('a campaign spec is exactly {"name", "runs"}')
        runs = d["runs"]
        if not isinstance(runs, list) or not runs:
            raise ValueError("runs must be a non-empty list")
        for i, run in enumerate(runs):
            if not isinstance(run, dict):
                raise ValueError(f"runs[{i}] must be a JSON object")
            if "app" not in run:
                raise ValueError(f"runs[{i}]: missing field 'app'")
            _check_fields(run, f"runs[{i}]")
        return cls(
            name=d["name"],
            runs=tuple(RunSpec.from_dict(r) for r in runs),
        )

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "CampaignSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    @cached_property
    def spec_hash(self) -> str:
        """Stable content hash identifying the exact run list (computed
        once: the spec is frozen, and every status write reads it)."""
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
    """Resolve ``spec`` (builtin name or JSON file path) to a campaign.

    A malformed spec file or override raises ``ValueError``.
    """
    if spec in BUILTIN_CAMPAIGNS:
        campaign = BUILTIN_CAMPAIGNS[spec]()
    elif os.path.isfile(spec):
        try:
            campaign = CampaignSpec.from_file(spec)
        except ValueError as exc:
            raise ValueError(f"{spec}: {exc}") from None
    else:
        raise ValueError(
            f"unknown campaign spec {spec!r}: not a builtin "
            f"({', '.join(sorted(BUILTIN_CAMPAIGNS))}) and not a file")
    overrides = dict(
        scale=scale, seed=seed, telemetry=telemetry, tracing=tracing)
    _check_fields(
        {k: v for k, v in overrides.items() if v is not None}, "overrides")
    return campaign.with_overrides(**overrides)
