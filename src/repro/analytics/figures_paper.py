"""The ``paper`` figure group: Figures 7-19 from campaign artifacts.

This registry group is the only implementation of every paper figure a
campaign carries the inputs for.  Each generator reads **only** the
deterministic section of a campaign result (plus static target
metadata), so its frame is byte-identical no matter which host, worker
count, or completion order produced the campaign.  The distilling
steps live in :mod:`repro.analysis.extract`, which the campaign worker
also uses to ship each run's rollups in ``campaign.json``.

Figures needing data that campaigns do not persist (6's dedicated
overhead sweep, 10's per-PARSEC-benchmark runs, 12/13/16's raw
timelines) live in :mod:`repro.study.figures` and are absent here.
"""

from __future__ import annotations

from repro.analysis.extract import addr_stats_by_code, form_sets_by_code, form_stats_by_code
from repro.analysis.rankpop import form_histogram, forms_only_in
from repro.analytics import vega
from repro.analytics.frames import Figure, Frame
from repro.analytics.registry import register_figure
from repro.fp.flags import EVENT_ORDER
from repro.study.targets import TARGET_NAMES

#: Column order of the paper's Figure 8.
FIG8_SYMBOLS: tuple[str, ...] = (
    "fork", "clone", "pthread_create", "pthread_exit", "signal",
    "sigaction", "feenableexcept", "fedisableexcept", "fegetexcept",
    "feclearexcept", "fegetexceptflag", "feraiseexcept",
    "fesetexceptflag", "fetestexcept", "fegetround", "fesetround",
    "fegetenv", "feholdexcept", "fesetenv", "feupdateenv",
    "uc_mcontext.fpregs", "uc_mcontext.fpregs->mxcsr", "REG_EFL",
    "SIGTRAP", "SIGFPE", "FE_",
)

#: Suite targets (per-benchmark codes, not single applications); the
#: per-application Figure 15 excludes them, as in the paper.
SUITES = ("PARSEC 3.0", "NAS 3.0")


def _app_order(apps) -> list[str]:
    """Study target order first, then any extras alphabetically."""
    known = [n for n in TARGET_NAMES if n in apps]
    return known + sorted(set(apps) - set(TARGET_NAMES))


@register_figure(
    "fig07_inventory", group="paper",
    title="Applications and benchmarks in study (Figure 7)")
def fig07_inventory(ctx) -> Figure | None:
    """Inventory with unencumbered (baseline-pass) execution times."""
    if ctx.campaign is None:
        return None
    baseline = ctx.campaign.apps_by_mode("baseline")
    if not baseline:
        return None
    from repro.study.targets import make_targets

    targets = make_targets()
    frame = Frame(columns=(
        "name", "dependencies", "problem", "loc", "languages",
        "parallelism", "paper_time", "sim_wall_ms"))
    for name in _app_order(baseline):
        if name not in targets:
            continue
        cls = targets[name].meta["cls"]
        wall = sum(r["wall_seconds"] for r in baseline[name])
        frame.append(
            name=name,
            dependencies=", ".join(cls.dependencies) or "N/A",
            problem=cls.problem,
            loc=cls.loc,
            languages=", ".join(cls.languages),
            parallelism=cls.parallelism,
            paper_time=cls.paper_exec_time,
            sim_wall_ms=wall * 1e3,
        )
    spec = vega.bar(
        frame, x="name", y="sim_wall_ms",
        title="Unencumbered simulated execution time per code", sort="-y")
    return Figure(frame=frame, spec=spec)


@register_figure(
    "fig08_source_analysis", group="paper",
    title="Source code analysis (Figure 8)")
def fig08_source_analysis(ctx) -> Figure:
    """Which intercepted symbols appear in each code (static)."""
    from repro.study.targets import make_targets

    targets = make_targets()
    frame = Frame(columns=("code", "symbol", "present"))
    for name in TARGET_NAMES:
        syms = set(targets[name].static_symbols)
        for symbol in FIG8_SYMBOLS:
            frame.append(code=name, symbol=symbol, present=symbol in syms)
    spec = vega.heatmap(
        frame, x="symbol", y="code", value="present",
        title="Intercepted symbols present per code")
    return Figure(frame=frame, spec=spec)


def _event_table_figure(ctx, mode: str, columns, title: str) -> Figure | None:
    if ctx.campaign is None:
        return None
    by_app = ctx.campaign.apps_by_mode(mode)
    if not by_app:
        return None
    frame = Frame(columns=("code", "event", "present"))
    for app in _app_order(by_app):
        seen = {e for r in by_app[app] for e in r.get("events", ())}
        for event in columns:
            frame.append(code=app, event=event, present=event in seen)
    spec = vega.heatmap(frame, x="event", y="code", value="present",
                        title=title)
    return Figure(frame=frame, spec=spec)


@register_figure(
    "fig09_aggregate", group="paper",
    title="Aggregate-mode tracing of applications (Figure 9)")
def fig09_aggregate(ctx) -> Figure | None:
    """T/f event table over the campaign's aggregate-pass runs."""
    return _event_table_figure(
        ctx, "aggregate", EVENT_ORDER,
        "Events observed in aggregate mode")


@register_figure(
    "fig11_filtered", group="paper",
    title="Individual-mode tracing with filtering (Figure 11)")
def fig11_filtered(ctx) -> Figure | None:
    """T/f event table for the filtered pass (Inexact not tracked)."""
    columns = tuple(c for c in EVENT_ORDER if c != "Inexact")
    return _event_table_figure(
        ctx, "filtered", columns,
        "Events observed in individual mode with Inexact filtered")


@register_figure(
    "fig14_sampled", group="paper",
    title="Individual-mode tracing with Poisson sampling (Figure 14)")
def fig14_sampled(ctx) -> Figure | None:
    """T/f event table for the 5% Poisson-sampled pass."""
    return _event_table_figure(
        ctx, "sampled", EVENT_ORDER,
        "Events observed under 5% Poisson sampling")


@register_figure(
    "fig15_inexact_counts", group="paper",
    title="Inexact event count and rate per application (Figure 15)")
def fig15_inexact_counts(ctx) -> Figure | None:
    """Sampled-pass Inexact totals against simulated wall time."""
    if ctx.campaign is None:
        return None
    by_app = ctx.campaign.apps_by_mode("sampled")
    apps = [a for a in _app_order(by_app) if a not in SUITES]
    if not apps:
        return None
    frame = Frame(columns=("name", "count", "rate"))
    for app in apps:
        count = sum(
            r.get("event_counts", {}).get("Inexact", 0) for r in by_app[app])
        wall = sum(r["wall_seconds"] for r in by_app[app])
        frame.append(
            name=app, count=count,
            rate=count / wall if wall > 0 else 0.0)
    spec = vega.bar(
        frame, x="name", y="rate",
        title="Sampled Inexact events per simulated second", sort="-y")
    return Figure(frame=frame, spec=spec)


@register_figure(
    "fig17_form_rankpop", group="paper",
    title="Rank-popularity of rounding instruction forms (Figure 17)")
def fig17_form_rankpop(ctx) -> Figure | None:
    """Per-code form counts and 99%-coverage ranks (sampled+filtered)."""
    if ctx.campaign is None:
        return None
    stats = form_stats_by_code(ctx.campaign.rankpop_inputs())
    if not stats:
        return None
    frame = Frame(columns=("code", "n_forms", "rank99", "total"))
    for code in sorted(stats):
        s = stats[code]
        frame.append(code=code, n_forms=s["n_forms"],
                     rank99=s["rank99"], total=s["total"])
    spec = vega.bar(
        frame, x="code", y="n_forms",
        title="Distinct rounding instruction forms per code", sort="-y")
    return Figure(frame=frame, spec=spec)


@register_figure(
    "fig18_form_histogram", group="paper",
    title="Instruction forms shared among codes (Figure 18)")
def fig18_form_histogram(ctx) -> Figure | None:
    """How many codes use each form; GROMACS-only forms flagged."""
    if ctx.campaign is None:
        return None
    per_code_forms = form_sets_by_code(ctx.campaign.rankpop_inputs())
    if not per_code_forms:
        return None
    histogram = form_histogram(per_code_forms, exclude=("gromacs",))
    gromacs_only = forms_only_in(per_code_forms, "gromacs")
    frame = Frame(columns=("form", "codes", "gromacs_only"))
    for form, n in sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0])):
        frame.append(form=form, codes=n, gromacs_only=False)
    for form in sorted(gromacs_only):
        frame.append(form=form, codes=0, gromacs_only=True)
    spec = vega.bar(
        frame, x="form", y="codes", color="gromacs_only",
        title="Codes showing rounding per instruction form", sort="-y")
    return Figure(frame=frame, spec=spec)


@register_figure(
    "fig19_addr_rankpop", group="paper",
    title="Rank-popularity of rounding instruction addresses (Figure 19)")
def fig19_addr_rankpop(ctx) -> Figure | None:
    """Per-code rounding-site counts and 99%-coverage ranks."""
    if ctx.campaign is None:
        return None
    stats = addr_stats_by_code(ctx.campaign.rankpop_inputs())
    if not stats:
        return None
    frame = Frame(columns=("code", "n_addresses", "rank99", "total"))
    for code in sorted(stats):
        s = stats[code]
        frame.append(code=code, n_addresses=s["n_addresses"],
                     rank99=s["rank99"], total=s["total"])
    spec = vega.bar(
        frame, x="code", y="n_addresses",
        title="Distinct rounding sites per code", sort="-y")
    return Figure(frame=frame, spec=spec)
