"""The five paper figures whose inputs no campaign carries.

Figures 7, 8, 9, 11, 14, 15, 17, 18 and 19 come from the ``paper``
group of the analytics registry (:mod:`repro.analytics.figures_paper`),
rendered from a campaign's ``campaign.json``.  The figures here need
data a campaign does not persist: Figure 6's dedicated overhead sweep,
Figure 10's per-PARSEC-benchmark runs, and the raw trace timelines of
Figures 12, 13 and 16, which read live :class:`PassResult` traces.

Each ``figNN_*`` function returns a :class:`FigureResult` whose ``text``
is a rendered table/series and whose ``data`` carries the structured
values, so benchmarks and tests can assert on shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.events import EventTable, event_set
from repro.analysis.timeline import burstiness, cumulative_series, rate_series
from repro.fpspy import fpspy_env
from repro.study.passes import (
    FILTER_NO_INEXACT,
    STUDY_SEED,
    PassResult,
    pass_env,
)
from repro.study.targets import TARGET_NAMES, make_targets

#: The filtered-pass runs Figures 12 and 13 read, for ``run_pass(only=)``.
FILTERED_TARGETS = ("ENZO", "LAGHOS")
#: The sampled-pass runs Figure 16 reads: the seven applications.
SAMPLED_TARGETS = tuple(
    n for n in TARGET_NAMES if n not in ("PARSEC 3.0", "NAS 3.0"))


@dataclass
class FigureResult:
    ident: str
    title: str
    text: str
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover
        return f"== {self.ident}: {self.title} ==\n{self.text}"


# ---------------------------------------------------------------- Figure 6


def fig06_overhead(scale: float = 1.0, seed: int = 1234) -> FigureResult:
    """FPSpy overhead on Miniaero across the six configurations."""
    configs = [
        ("no-fpspy", {}),
        ("aggregate", fpspy_env("aggregate")),
        ("individual+filter", fpspy_env("individual", except_list=FILTER_NO_INEXACT)),
        ("sampling 5000:100000", fpspy_env(
            "individual", poisson="5000:100000", timer="virtual", seed=STUDY_SEED)),
        ("sampling 10000:100000", fpspy_env(
            "individual", poisson="10000:100000", timer="virtual", seed=STUDY_SEED)),
        ("sampling 50000:100000", fpspy_env(
            "individual", poisson="50000:100000", timer="virtual", seed=STUDY_SEED)),
    ]
    target = make_targets()["Miniaero"]
    rows = []
    for label, env in configs:
        r = target.run(env, scale=scale, seed=seed)
        rows.append(
            {
                "config": label,
                "wall": r.wall_seconds,
                "user": r.user_seconds,
                "system": r.system_seconds,
            }
        )
    base = rows[0]["wall"]
    lines = [f"{'config':<24s} {'wall(ms)':>10s} {'user(ms)':>10s} "
             f"{'sys(ms)':>10s} {'slowdown':>9s}"]
    for row in rows:
        lines.append(
            f"{row['config']:<24s} {row['wall']*1e3:>10.3f} "
            f"{row['user']*1e3:>10.3f} {row['system']*1e3:>10.3f} "
            f"{row['wall']/base:>8.2f}x"
        )
    return FigureResult(
        ident="fig06",
        title="Overhead of FPSpy for Miniaero in various configurations",
        text="\n".join(lines) + "\n",
        data={"rows": rows, "baseline_wall": base},
    )


# ---------------------------------------------------------------- Figure 10


def fig10_parsec(scale: float = 1.0, seed: int = 1234) -> FigureResult:
    """Aggregate-mode tracing of each PARSEC benchmark (simlarge size)."""
    from repro.apps.parsec import PARSEC_BENCHMARKS, make_parsec_benchmark
    from repro.kernel.kernel import Kernel
    from repro.trace.reader import TraceSet

    table = EventTable()
    env = pass_env("aggregate")
    for bench_name in PARSEC_BENCHMARKS:
        bench = make_parsec_benchmark(bench_name, scale=scale, seed=seed)
        kernel = Kernel()
        kernel.exec_process(bench.main, env=env, name=bench.name)
        kernel.run()
        traces = TraceSet.from_vfs(kernel.vfs)
        table.add(bench_name, event_set(traces))
    return FigureResult(
        ident="fig10",
        title="Aggregate-mode tracing of PARSEC benchmarks",
        text=table.render(),
        data={"table": table.as_dict()},
    )


# ------------------------------------------------------------ Figures 12/13


def fig12_enzo_nans(filtered: PassResult, bins: int = 40) -> FigureResult:
    """Rate of Invalid events over time in ENZO (filtered pass)."""
    records = list(filtered["ENZO"].traces.all_records())
    centers, rates = rate_series(records, event="Invalid", bins=bins)
    lines = [f"{'t(ms)':>10s} {'Invalid/s':>12s}"]
    for t, r in zip(centers, rates):
        lines.append(f"{t*1e3:>10.4f} {r:>12.1f}")
    return FigureResult(
        ident="fig12",
        title="Rate of Invalid events over time in ENZO",
        text="\n".join(lines) + "\n",
        data={"time_s": centers.tolist(), "rate": rates.tolist(),
              "total": len(records)},
    )


def fig13_laghos_bursts(filtered: PassResult, bins: int = 120) -> FigureResult:
    """Bursts of DivideByZero events in LAGHOS (filtered pass).

    Plots a single rank's log (the paper's zoomed window is one event
    stream); the busiest per-thread trace file is used.
    """
    traces = filtered["LAGHOS"].traces
    busiest = max(traces.individual.values(), key=len, default=[])
    records = list(busiest)
    centers, rates = rate_series(records, event="DivideByZero", bins=bins)
    lines = [f"{'t(ms)':>10s} {'DBZ/s':>12s}"]
    for t, r in zip(centers, rates):
        lines.append(f"{t*1e3:>10.4f} {r:>12.1f}")
    b = burstiness(records, event="DivideByZero")
    silent = float((rates == 0).mean()) if rates.size else 0.0
    return FigureResult(
        ident="fig13",
        title="Bursts of DivideByZero events in LAGHOS",
        text="\n".join(lines) + f"\nburstiness(max/median gap) = {b:.1f}\n",
        data={"time_s": centers.tolist(), "rate": rates.tolist(),
              "burstiness": b, "silent_fraction": silent},
    )


# ---------------------------------------------------------------- Figure 16


def fig16_cumulative(sampled: PassResult,
                     window_fraction: float = 1.0) -> FigureResult:
    """Cumulative Inexact events over execution, per application."""
    series = {}
    for name in SAMPLED_TARGETS:
        records = list(sampled[name].traces.all_records())
        t, c = cumulative_series(records, event="Inexact")
        if window_fraction < 1.0 and t.size:
            cut = t[0] + window_fraction * (t[-1] - t[0])
            keep = t <= cut
            t, c = t[keep], c[keep]
        series[name] = (t, c)
    lines = [f"{'name':<10s} {'events':>9s} {'first(ms)':>10s} {'last(ms)':>10s}"]
    for name, (t, c) in series.items():
        if t.size:
            lines.append(
                f"{name:<10s} {int(c[-1]):>9d} {t[0]*1e3:>10.4f} {t[-1]*1e3:>10.4f}"
            )
        else:
            lines.append(f"{name:<10s} {0:>9d} {'-':>10s} {'-':>10s}")
    return FigureResult(
        ident="fig16",
        title="Cumulative Inexact events over execution",
        text="\n".join(lines) + "\n",
        data={
            "series": {
                k: {"t": v[0].tolist(), "count": v[1].tolist()}
                for k, v in series.items()
            }
        },
    )
