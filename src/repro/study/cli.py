"""Command-line interface: ``python -m repro.study <command>``.

Commands
--------
``figures``   print the five figures no campaign carries (6, 10, 12,
              13, 16; optionally a subset, optionally written to a
              directory); subcommands ``list``/``generate``/``diff``
              drive the analytics registry over campaign artifacts, the
              only producer of every other figure (``repro.analytics``:
              Vega-Lite specs + CSVs + HTML index, CI regression diffing
              against a committed baseline)
``validate``  run the paper's validation matrix
``overhead``  just the Figure 6 overhead sweep
``spy``       run one named application under FPSpy and dump its traces
``telemetry`` run an app with the telemetry bus on and dump/diff snapshots
``campaign``  shard a batch of independent spy runs across host cores
``trace``     flight-recorder runs: record/export span trees, print
              NaN/Inf provenance coils and origin rollups
"""

from __future__ import annotations

import argparse
import sys


def _cmd_figures(args) -> int:
    from functools import cache

    from repro.analytics import AnalyticsContext, all_figures
    from repro.study import figures as F
    from repro.study.passes import run_pass

    @cache
    def filtered():
        return run_pass("filtered", args.scale, args.seed,
                        only=F.FILTERED_TARGETS)

    live = {
        "fig06": lambda: F.fig06_overhead(args.scale, args.seed),
        "fig10": lambda: F.fig10_parsec(args.scale, args.seed),
        "fig12": lambda: F.fig12_enzo_nans(filtered()),
        "fig13": lambda: F.fig13_laghos_bursts(filtered()),
        "fig16": lambda: F.fig16_cumulative(run_pass(
            "sampled", args.scale, args.seed, only=F.SAMPLED_TARGETS)),
    }
    registry = {d.name.split("_")[0]: d for d in all_figures(group="paper")}
    rc = 0
    for ident in args.only or live:
        if ident in live:
            result = live[ident]()
            title, body = result.title, result.text
        else:
            # A registry figure: only a static one renders without a
            # campaign; the rest come from ``figures generate``.
            fdef = registry.get(ident)
            fig = fdef.fn(AnalyticsContext()) if fdef else None
            if fig is None:
                hint = ("render it from a campaign with `python -m "
                        "repro.study figures generate --campaign DIR "
                        "--out DIR`" if fdef else "unknown figure id")
                print(f"{ident}: not a live figure; {hint}", file=sys.stderr)
                rc = 2
                continue
            title, body = fdef.title, fig.frame.to_csv_bytes().decode()
        text = f"== {ident}: {title} ==\n{body}\n"
        if args.out:
            import pathlib

            path = pathlib.Path(args.out) / f"{ident}.txt"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"wrote {path}")
        else:
            print(text)
    return rc


def _cmd_figures_list(args) -> int:
    from repro.analytics import all_figures

    for d in all_figures(group=args.group):
        tag = "" if d.diffable else "  [not diffed]"
        print(f"{d.name:<28s} {d.group:<11s} {d.title}{tag}")
    return 0


def _cmd_figures_generate(args) -> int:
    from repro.analytics import build_context, generate_figures

    try:
        ctx = build_context(
            campaign_dirs=args.campaign or [],
            bench_paths=args.bench or [],
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    manifest = generate_figures(
        args.out, ctx, group=args.group, names=args.figure)
    generated = skipped = 0
    for name, entry in manifest["figures"].items():
        if entry["status"] == "generated":
            generated += 1
            print(f"{name:<28s} {entry['rows']:>5d} rows -> {entry['csv']}")
        else:
            skipped += 1
            print(f"{name:<28s} skipped: {entry['reason']}")
    print(f"\n{generated} figures generated, {skipped} skipped; "
          f"report at {args.out}/index.html")
    return 0


def _cmd_figures_diff(args) -> int:
    from repro.analytics import diff_figures

    try:
        drift = diff_figures(
            args.baseline, args.new, group=args.group, names=args.figure)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if drift:
        for line in drift:
            print(f"DRIFT {line}", file=sys.stderr)
        print(f"{len(drift)} figure drift(s) vs baseline {args.baseline}",
              file=sys.stderr)
        return 1
    print(f"figure data matches baseline {args.baseline}")
    return 0


def _cmd_validate(args) -> int:
    from repro.validation import validate_all

    outcomes = validate_all()
    failed = 0
    for o in outcomes:
        status = "PASS" if o.passed else f"FAIL ({o.detail})"
        print(f"{o.model:<28s} {o.mode:<11s} {status}")
        failed += not o.passed
    del args
    return 1 if failed else 0


def _cmd_report(args) -> int:
    from repro.study.report import build_report

    text = build_report(args.scale, args.seed)
    if args.out:
        import pathlib

        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    else:
        print(text)
    return 0


def _cmd_overhead(args) -> int:
    from repro.study.figures import fig06_overhead

    print(fig06_overhead(args.scale, args.seed).text)
    return 0


def _run_app(args, config=None, env=None, profiler=None, also=()):
    """Boot a kernel with ``config``, exec ``args.app`` (at ``args.scale``)
    under ``env`` and run it to completion; the launcher behind ``spy``,
    ``telemetry run`` and the ``trace`` family.  An unknown app prints the
    choices (plus ``also``) and returns None, and the command exits 2.
    ``profiler``, a ``cProfile.Profile``, wraps ``kernel.run()`` alone."""
    from repro.apps import APPLICATIONS
    from repro.kernel.kernel import Kernel

    if args.app not in APPLICATIONS:
        print(f"unknown app {args.app!r}; choose from "
              f"{APPLICATIONS.names() + list(also)}", file=sys.stderr)
        return None
    app = APPLICATIONS.create(args.app, scale=args.scale)
    kernel = Kernel(config)
    kernel.exec_process(app.main, env=env, name=app.name)
    if profiler is None:
        kernel.run()
    else:
        profiler.runcall(kernel.run)
    return kernel


def _cmd_spy(args) -> int:
    from repro.fpspy import fpspy_env
    from repro.trace.dump import dump_vfs

    env = fpspy_env(
        args.mode,
        except_list=args.except_list,
        poisson=args.poisson,
    )
    kernel = _run_app(args, env=env)
    if kernel is None:
        return 2
    print(dump_vfs(kernel.vfs, limit_per_file=args.limit))
    print(f"simulated wall time: {kernel.now_seconds * 1e3:.3f} ms")
    return 0


def layer_self_times(stats: dict) -> dict[str, float]:
    """Host self time per simulator layer from a ``pstats.Stats.stats`` dict.

    A function's ``tottime`` goes to ``<layer>`` when its file lies in
    ``repro/<layer>/``; everything else (stdlib, builtins, NumPy) goes to
    ``python``.  Every function lands in exactly one row, so the rows sum
    to the profile's total self time.
    """
    import os

    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    out: dict[str, float] = {}
    for (filename, _line, _func), row in stats.items():
        layer = os.path.relpath(os.path.abspath(filename), root).split(os.sep)[0]
        if layer == os.pardir:
            layer = "python"
        out[layer] = out.get(layer, 0.0) + row[2]  # tottime
    return out


def render_layer_table(times: dict[str, float]) -> str:
    """One ``layer self(ms) share`` row per layer, largest first, then ``total``."""
    total = sum(times.values())
    lines = [f"{'layer':<12s} {'self(ms)':>10s} {'share':>8s}",
             f"{'-' * 12} {'-' * 10} {'-' * 8}"]
    for layer, s in sorted(times.items(), key=lambda kv: -kv[1]):
        share = 100.0 * s / total if total > 0 else 0.0
        lines.append(f"{layer:<12s} {s * 1e3:>10.3f} {share:>7.1f}%")
    lines.append(f"{'total':<12s} {total * 1e3:>10.3f} {'100.0%':>8s}")
    return "\n".join(lines)


def _cmd_telemetry_run(args) -> int:
    import cProfile
    import json
    import pathlib
    import pstats

    from repro.fpspy import fpspy_env
    from repro.kernel.kernel import KernelConfig
    from repro.telemetry.procfs import render_counters, render_status

    profiler = cProfile.Profile() if args.profile else None
    kernel = _run_app(args, KernelConfig(telemetry=True),
                      fpspy_env(args.mode, except_list=args.except_list),
                      profiler=profiler)
    if kernel is None:
        return 2

    snapshot = kernel.telemetry.snapshot()
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(render_status(kernel), end="")
        print(render_counters(kernel.telemetry), end="")
    if profiler is not None:
        print()
        print(render_layer_table(layer_self_times(pstats.Stats(profiler).stats)))
    return 0


def _cmd_telemetry_diff(args) -> int:
    import json
    import pathlib

    from repro.telemetry import diff_snapshots

    a = json.loads(pathlib.Path(args.baseline).read_text())
    b = json.loads(pathlib.Path(args.new).read_text())
    diff = diff_snapshots(a, b, threshold=args.threshold)
    print(diff.render())
    if not diff.ok:
        print(f"FAIL: {len(diff.regressions)} fast-path rate regression(s) "
              f"beyond {args.threshold:g}", file=sys.stderr)
        return 1
    return 0


def _cmd_campaign_run(args) -> int:
    import pathlib

    from repro.campaign import CampaignRunner, build_campaign

    try:
        campaign = build_campaign(
            args.spec, scale=args.scale, seed=args.seed,
            telemetry=True if args.telemetry else None,
            tracing=True if args.tracing else None,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    runner = CampaignRunner(
        campaign,
        workers=args.workers,
        out_dir=args.out,
        execution=args.execution,
    )
    result = runner.run()
    print(result.report_text, end="")

    host = result.host
    plan = host["plan"]
    print()
    print(f"execution: {plan['mode']} ({plan['reason']})")
    print(f"workers: {host['workers']} requested, "
          f"{host['spawned_workers']} spawned, {host['retries']} retr"
          f"{'y' if host['retries'] == 1 else 'ies'}")
    print(f"host wall time: {host['host_wall_seconds']:.3f} s")
    if args.out:
        out = pathlib.Path(args.out)
        # The runner wrote these atomically as it went.
        print(f"wrote {out / 'campaign_report.txt'} and {out / 'campaign.json'}")
    return 1 if result.failed else 0


def _trace_kernel(args):
    """Run one app (or the constructed ``nanchain`` provenance program)
    under the flight recorder; returns ``(kernel, expected)`` where
    ``expected`` is the nanchain origin map (else None)."""
    from repro.fpspy import fpspy_env
    from repro.kernel.kernel import Kernel, KernelConfig

    config = KernelConfig(
        tracing=True,
        trace_capacity=args.capacity,
        # Interactive recording defaults to ``--sample 1``: a developer
        # replaying one run wants every tree.  ``--sample N`` opts into
        # the production 1-in-N tail sampler.
        trace_sample=args.sample,
        trace_seed=args.seed,
    )
    env = {} if args.mode == "none" else fpspy_env(args.mode)
    if args.app != "nanchain":
        return _run_app(args, config, env, also=["nanchain"]), None
    from repro.validation.programs import provenance_program

    kernel = Kernel(config)
    launch, expected = provenance_program()
    launch(kernel, env)
    kernel.run()
    return kernel, expected


def _cmd_trace_record(args) -> int:
    import pathlib

    from repro.telemetry.tracing import to_binary, to_chrome_json

    kernel, _ = _trace_kernel(args)
    if kernel is None:
        return 2
    tr = kernel.tracer
    print(f"spans {tr.recorded}  dropped {tr.dropped}  "
          f"trees {tr.trees_completed}  open {tr.open_trees()}")
    # Tree assembly walks the whole ring: do it once for every output.
    spans = tr.spans() if args.bin or args.json else None
    if args.bin:
        path = pathlib.Path(args.bin)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(to_binary(spans))
        print(f"wrote {path} ({len(spans)} packed spans)")
    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(to_chrome_json(spans))
        print(f"wrote {path}")
    if spans is None:
        text = kernel.vfs.read("/proc/fpspy/trace").decode()
        for line in text.splitlines()[: args.limit + 1]:
            print(line)
    return 0


def _coil_lines(prov, limit: int) -> list[str]:
    lines = [f"{'origin':>12s} {'kind':<7s} {'form':<10s} "
             f"{'props':>6s} {'sinks':>6s}  sink sites"]
    for coil in prov.coils()[:limit]:
        org = coil.origin
        where = " ".join(f"0x{rip:x}@{cyc}" for rip, cyc in coil.sinks[:3])
        tag = " (consumed)" if org.consumed else ""
        lines.append(
            f"{org.rip:#12x} {org.kind:<7s} {org.mnemonic:<10s} "
            f"{coil.propagations:>6d} {coil.sink_count:>6d}  {where}{tag}"
        )
    return lines


def _cmd_trace_coils(args) -> int:
    kernel, expected = _trace_kernel(args)
    if kernel is None:
        return 2
    prov = kernel.provenance
    print(f"coils: {len(prov.coils())} origins, "
          f"{prov.observed} operations observed")
    for line in _coil_lines(prov, args.limit):
        print(line)
    if expected is None:
        return 0
    # nanchain acceptance: every constructed kill site must trace back to
    # its true origin RIP with the right kind (the same check the
    # overhead benchmark gates on).
    from repro.fp.provenance import verify_attribution

    coils = prov.coils()
    attributed, total = verify_attribution(coils, expected)
    if attributed != total:
        for sink_rip, want in sorted(expected.items()):
            if verify_attribution(coils, {sink_rip: want}) == (0, 1):
                origin_rip, kind = want
                print(f"FAIL: sink 0x{sink_rip:x} not attributed to "
                      f"{kind} origin 0x{origin_rip:x}", file=sys.stderr)
        return 1
    print(f"verified: {attributed}/{total} sinks attributed "
          f"to their true origin RIPs")
    return 0


def _cmd_trace_stats(args) -> int:
    from repro.trace.stats import collect_stats

    try:
        st = collect_stats(args.path)
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(st.render())
    return 0


def _cmd_trace_top(args) -> int:
    kernel, _ = _trace_kernel(args)
    if kernel is None:
        return 2
    prov = kernel.provenance
    print(f"{'origin':>18s} {'kind':<7s} {'form':<10s} "
          f"{'origins':>8s} {'props':>6s} {'sinks':>6s}")
    for row in prov.top()[: args.limit]:
        print(f"0x{row['rip']:>16x} {row['kind']:<7s} {row['mnemonic']:<10s} "
              f"{row['origins']:>8d} {row['propagations']:>6d} "
              f"{row['sinks']:>6d}")
    return 0


def _cmd_campaign_status(args) -> int:
    import json
    import pathlib

    path = pathlib.Path(args.out) / "status.json"
    if not path.exists():
        print(f"no campaign status at {path}", file=sys.stderr)
        return 2
    status = json.loads(path.read_text())
    print(f"campaign {status['campaign']} ({status['spec_hash']}): "
          f"{status['state']}")
    print(f"  runs: {status['done']}/{status['total']} done, "
          f"{len(status['failed'])} failed, {status['retries']} retried")
    print(f"  workers: {status['workers']} requested, "
          f"{status['spawned_workers']} spawned")
    if status["failed"]:
        print(f"  failed indices: {status['failed']}")
    return 0


def _scale(text: str) -> float:
    """``--scale``: a finite number above zero, the rule a campaign
    spec's ``scale`` obeys."""
    from repro.campaign.spec import _is_scale

    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not _is_scale(value):
        raise argparse.ArgumentTypeError(
            f"invalid scale {text!r}: expected a finite number > 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    from repro.campaign.spec import BUILTIN_CAMPAIGNS

    p = argparse.ArgumentParser(
        prog="python -m repro.study",
        description="FPSpy reproduction study driver",
    )
    sub = p.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figures", help="regenerate paper tables/figures")
    fig.add_argument("--scale", type=_scale, default=1.0)
    fig.add_argument("--seed", type=int, default=1234)
    fig.add_argument("--only", nargs="*", metavar="figNN",
                     help="subset of figure ids (default: the five live "
                          "figures 06, 10, 12, 13, 16)")
    fig.add_argument("--out", help="write each figure to <out>/<id>.txt")
    fig.set_defaults(fn=_cmd_figures)

    # Analytics-engine subcommands; a bare ``figures`` (no subcommand)
    # prints the live figures above.
    figsub = fig.add_subparsers(dest="figures_command")

    flist = figsub.add_parser(
        "list", help="list registered analytics figures")
    flist.add_argument("--group", choices=["paper", "fleet", "trajectory"])
    flist.set_defaults(fn=_cmd_figures_list)

    fgen = figsub.add_parser(
        "generate",
        help="generate Vega-Lite specs + CSVs + HTML from artifacts")
    fgen.add_argument("--campaign", action="append", metavar="DIR",
                      help="campaign output directory (repeatable; first "
                           "one feeds the paper group)")
    fgen.add_argument("--bench", action="append", metavar="PATH",
                      help="BENCH_*.json file or history directory "
                           "(repeatable)")
    fgen.add_argument("--out", required=True,
                      help="output directory for the figure report")
    fgen.add_argument("--group", choices=["paper", "fleet", "trajectory"])
    fgen.add_argument("--figure", nargs="*", metavar="NAME",
                      help="subset of figure names (default: all)")
    fgen.set_defaults(fn=_cmd_figures_generate)

    fdiff = figsub.add_parser(
        "diff", help="compare generated figure data against a baseline "
                     "(exit 1 on drift)")
    fdiff.add_argument("--baseline", required=True,
                       help="committed baseline figure directory")
    fdiff.add_argument("--new", required=True,
                       help="freshly generated figure directory")
    fdiff.add_argument("--group", choices=["paper", "fleet", "trajectory"])
    fdiff.add_argument("--figure", nargs="*", metavar="NAME")
    fdiff.set_defaults(fn=_cmd_figures_diff)

    val = sub.add_parser("validate", help="run the validation matrix")
    val.set_defaults(fn=_cmd_validate)

    rep = sub.add_parser("report", help="full markdown study report")
    rep.add_argument("--scale", type=_scale, default=1.0)
    rep.add_argument("--seed", type=int, default=1234)
    rep.add_argument("--out", help="write to file instead of stdout")
    rep.set_defaults(fn=_cmd_report)

    ovh = sub.add_parser("overhead", help="Figure 6 overhead sweep")
    ovh.add_argument("--scale", type=_scale, default=1.0)
    ovh.add_argument("--seed", type=int, default=1234)
    ovh.set_defaults(fn=_cmd_overhead)

    spy = sub.add_parser("spy", help="trace one application")
    spy.add_argument("app", help="application name (e.g. miniaero)")
    spy.add_argument("--mode", default="aggregate",
                     choices=["aggregate", "individual"])
    spy.add_argument("--scale", type=_scale, default=0.5)
    spy.add_argument("--except-list", dest="except_list", default=None)
    spy.add_argument("--poisson", default=None)
    spy.add_argument("--limit", type=int, default=20,
                     help="records shown per trace file")
    spy.set_defaults(fn=_cmd_spy)

    tel = sub.add_parser("telemetry", help="telemetry snapshots and diffs")
    telsub = tel.add_subparsers(dest="telemetry_command", required=True)

    trun = telsub.add_parser("run", help="run one app with telemetry enabled")
    trun.add_argument("app", help="application name (e.g. miniaero)")
    trun.add_argument("--mode", default="aggregate",
                      choices=["aggregate", "individual"])
    trun.add_argument("--scale", type=_scale, default=0.5)
    trun.add_argument("--except-list", dest="except_list", default=None)
    trun.add_argument("--format", default="table", choices=["table", "json"])
    trun.add_argument("--out", help="also write the JSON snapshot here")
    trun.add_argument("--profile", action="store_true",
                      help="profile kernel.run() with cProfile and print "
                           "host self time per simulator layer")
    trun.set_defaults(fn=_cmd_telemetry_run)

    tdiff = telsub.add_parser(
        "diff", help="compare two snapshots; non-zero exit on regressions")
    tdiff.add_argument("baseline", help="baseline snapshot JSON")
    tdiff.add_argument("new", help="new snapshot JSON")
    tdiff.add_argument("--threshold", type=float, default=0.05,
                       help="absolute fast-path rate drop that fails (default 0.05)")
    tdiff.set_defaults(fn=_cmd_telemetry_diff)

    camp = sub.add_parser(
        "campaign", help="shard independent spy runs across host cores")
    campsub = camp.add_subparsers(dest="campaign_command", required=True)

    crun = campsub.add_parser("run", help="run a campaign spec")
    crun.add_argument("--spec", default="smoke",
                      help=f"builtin name ({', '.join(BUILTIN_CAMPAIGNS)}) "
                           "or spec JSON path")
    crun.add_argument("--workers", type=int, default=None,
                      help="worker processes (default: os.cpu_count())")
    crun.add_argument("--scale", type=float, default=None,
                      help="override every run's problem scale")
    crun.add_argument("--seed", type=int, default=None,
                      help="override every run's app seed")
    crun.add_argument("--telemetry", action="store_true",
                      help="run every spec with the telemetry bus on and "
                           "merge the snapshots")
    crun.add_argument("--tracing", action="store_true",
                      help="run every spec with the flight recorder on; "
                           "merge provenance rollups and (with --out) "
                           "write per-run trace artifacts")
    crun.add_argument("--out", default=None,
                      help="artifact directory (status.json, "
                           "campaign_report.txt, campaign.json)")
    crun.add_argument("--execution", default="auto",
                      choices=["auto", "pool", "inprocess"],
                      help="force the execution mode (default: the "
                           "planner weighs pool standing cost against "
                           "estimated campaign cost)")
    crun.set_defaults(fn=_cmd_campaign_run)

    cstat = campsub.add_parser(
        "status", help="show a running/finished campaign's status file")
    cstat.add_argument("--out", required=True,
                       help="the campaign's artifact directory")
    cstat.set_defaults(fn=_cmd_campaign_status)

    trc = sub.add_parser(
        "trace", help="flight recorder: span trees and NaN/Inf provenance")
    trcsub = trc.add_subparsers(dest="trace_command", required=True)

    def _trace_common(sp):
        sp.add_argument("app",
                        help="application name, or 'nanchain' for the "
                             "constructed provenance program")
        sp.add_argument("--mode", default="individual",
                        choices=["aggregate", "individual", "none"],
                        help="FPSpy mode ('none': run without FPSpy)")
        sp.add_argument("--scale", type=_scale, default=0.5)
        sp.add_argument("--capacity", type=int, default=65536,
                        help="span ring-buffer capacity")
        sp.add_argument("--limit", type=int, default=20,
                        help="rows/lines printed")
        sp.add_argument("--sample", type=int, default=1, metavar="N",
                        help="tail-sample boring trees 1-in-N "
                             "(default 1: keep every tree)")
        sp.add_argument("--seed", type=int, default=0,
                        help="tail-sampler RNG seed")

    trec = trcsub.add_parser(
        "record", help="record a run; print the span log or save it")
    _trace_common(trec)
    trec.add_argument("--bin", default=None,
                      help="write packed SpanRecord binary here")
    trec.add_argument("--json", default=None,
                      help="write Chrome trace-event JSON here (loads in "
                           "chrome://tracing or ui.perfetto.dev)")
    trec.set_defaults(fn=_cmd_trace_record)

    tcoil = trcsub.add_parser(
        "coils", help="per-origin NaN/Inf/denorm propagation chains")
    _trace_common(tcoil)
    tcoil.set_defaults(fn=_cmd_trace_coils)

    ttop = trcsub.add_parser(
        "top", help="origin-site rollup ranked by propagation length")
    _trace_common(ttop)
    ttop.set_defaults(fn=_cmd_trace_top)

    tstat = trcsub.add_parser(
        "stats", help="offline stats for recorded span binaries")
    tstat.add_argument("path",
                       help="a .spans.bin file, a campaign artifact "
                            "directory, or a directory of span files")
    tstat.set_defaults(fn=_cmd_trace_stats)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
