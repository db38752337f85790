"""The end-to-end study benchmark: orchestration, checking, reporting.

Runs each selected workload's pass in a fresh child interpreter, one at
a time, round-robin over the workloads with the order rotated every
round, then checks every run's outputs, prints each end-to-end metric
by name with its unit, and writes the results in the shared BENCH
envelope.  ``--trace`` adds one traced pass per workload and prints the
per-layer ledger (:mod:`bench.ledger`).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics, or per-layer ones with ``--trace``).

    PYTHONPATH=src python -m bench [--workloads study,fleet] [--seed 1234]
        [--reps 5 | --seconds S] [--trace [0|1]] [--out PATH]
        [--write-reference]

Exit status: 0 when every output checked out, 1 when any run failed or
mismatched (after printing every metric), 2 when the checkout holds no
``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

from bench import stats
from bench.workloads import CALIB_NOMINAL_S, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(ROOT, "bench", "reference.json")
ARTIFACTS = os.path.join(ROOT, "bench_artifacts")
DEFAULT_SEED = 1234
DEFAULT_REPS = 5
#: A pass that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 170
#: The CPU every pass is pinned to (README: host noise), or None where
#: the platform cannot pin.
PIN_CPU = (max(os.sched_getaffinity(0))
           if hasattr(os, "sched_getaffinity") else None)

#: Bounded end-to-end metrics: ``(name, unit, better, bound)``.
#: ``bound`` is the share of the parent's median by which the metric may
#: worsen before a change counts as a regression, set from the spread
#: measured between runs on a shared 2-CPU VM (README).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("sim_mcycles_per_s", "Mcycle/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)
#: Printed and stored but not bounded: ``(name, unit, better)``.  Run
#: percentiles pick single 10-100 ms runs, which millisecond stalls of
#: the host move by tens of percent; ``fail_ratio`` is 0 on a correct
#: program, and any increase fails the command.
REPORTED = (
    ("run_s_p50", "s", "lower"),
    ("run_s_p75", "s", "lower"),
    ("fail_ratio", "ratio", "lower"),
)

#: Per-layer metrics (``--trace``): ``(name, unit, better)``.  "higher"
#: marks fast-path engagement; everything else costs.
PER_LAYER = tuple(
    (f"{layer}.{field}", unit, "lower")
    for layer in (
        "campaign", "analytics", "analysis", "trace", "kernel", "fpspy",
        "machine", "machine.blockexec", "machine.storm", "isa", "fp")
    for field, unit in (("self_s", "s"), ("share", "ratio"), ("calls", "count"))
) + (
    ("unattributed.self_s", "s", "lower"),
    ("unattributed.share", "ratio", "lower"),
    ("kernel.sim_cycles", "cycle", "lower"),
    ("machine.steps", "count", "lower"),
    ("machine.storm.attempts", "count", "lower"),
    ("machine.storm.batches", "count", "higher"),
    ("machine.storm.groups", "count", "higher"),
    ("machine.storm.bailouts", "count", "lower"),
    ("machine.storm.admit_ratio", "ratio", "higher"),
    ("machine.storm.groups_per_batch", "group/batch", "higher"),
    ("fp.batch_calls", "count", "higher"),
    ("fp.batch_lanes", "count", "higher"),
    ("fp.lanes_per_call", "lane/call", "higher"),
    ("fp.scalar_ops", "count", "lower"),
    ("fpspy.sigfpe", "count", "lower"),
    ("fpspy.sigtrap", "count", "lower"),
    ("fpspy.sigalrm", "count", "lower"),
    ("trace.individual_records", "count", "lower"),
    ("trace.bytes", "B", "lower"),
    ("campaign.pool_workers", "count", "higher"),
    ("campaign.spawned_workers", "count", "lower"),
    ("campaign.retries", "count", "lower"),
    ("campaign.run_host_s", "s", "lower"),
    ("campaign.overhead_s", "s", "lower"),
    ("analytics.figures", "count", "higher"),
    ("harness.trace_overhead_pct", "%", "lower"),
    ("harness.calib_s", "s", "lower"),
)


# ------------------------------------------------------------ children


def child_job(name: str, seed: int, scale: float, trace: bool,
              work: str) -> dict:
    job = {"workload": name, "seed": seed, "scale": scale, "trace": trace,
           "workdir": os.path.join(work, name), "cpu": PIN_CPU}
    if trace:
        job["spans"] = os.path.join(ARTIFACTS, f"e2e-{name}.spans.jsonl")
    return job


def run_child(job: dict) -> dict | str:
    """Run one pass in a fresh interpreter; its result or an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.workloads", json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:
        # The pass's pool workers share its process group: end them too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            return f"pass timed out after {CHILD_TIMEOUT_S}s"
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return f"child exited {proc.returncode}: {tail[0]}"
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"child printed no result: {lines[-1][:200]}"


# ------------------------------------------------------------- checking


def outputs_of(rep: dict) -> dict:
    """The checked part of a pass: per-run outputs and figure digests."""
    return {
        "runs": [{k: r[k] for k in ("label", "status", "cycles", "files")}
                 for r in rep["runs"]],
        "figures": rep["figures"],
    }


def output_units(name: str, expected: dict | None) -> int:
    """Output units one pass of ``name`` attempts: its runs, plus one
    figure set for the campaign workloads."""
    runs = len(expected["runs"]) if expected else 1
    return runs + bool(WORKLOADS[name].groups)


def failed_units(expected: dict, got: dict) -> int:
    """Units of ``got`` that failed or differ from ``expected``."""
    exp_runs, got_runs = expected["runs"], got["runs"]
    bad = sum(1 for e, g in zip(exp_runs, got_runs)
              if g != e or g["status"] != "ok")
    bad += abs(len(exp_runs) - len(got_runs))
    return bad + (got["figures"] != expected["figures"])


def load_reference(path: str) -> dict:
    """``{workload: {"seed", "scale", "outputs"}}``; empty if absent."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


# ------------------------------------------------------------ reporting


def host_factor(reps: list[dict]) -> float:
    """Nominal probe time over the median probe time of ``reps``.

    Multiplying a time measured during ``reps`` by this factor gives
    seconds on a host where the probe takes :data:`CALIB_NOMINAL_S`.
    The median over every probe of the run (two per pass) follows the
    host's drift between runs without inheriting one probe's jitter.
    """
    return CALIB_NOMINAL_S / stats.median(
        c for rep in reps for c in rep["calib_s"])


def e2e_values(reps: list[dict]) -> dict[str, dict]:
    """Per-metric summaries over the successful reps of one workload.

    Times are host-normalized (:func:`host_factor`); ``raw`` keeps the
    median as the clock read it.
    """
    f = host_factor(reps)
    # A pass always runs the same mix of runs, so percentiles of the
    # pooled samples sit on the edges between clusters of similar runs
    # and jump with single outliers.  Each run is first reduced to its
    # median over the passes; the percentiles are taken over runs.
    per_run = [
        f * stats.median(rep["runs"][i]["host_s"] for rep in reps)
        for i in range(len(reps[0]["runs"]))
    ]
    mcps = [
        sum(r["cycles"] for r in rep["runs"]) / 1e6
        / (f * sum(r["host_s"] for r in rep["runs"]))
        for rep in reps
    ]
    out = {
        "setup_s": stats.summary(f * rep["setup_s"] for rep in reps),
        "wall_s": stats.summary(f * rep["wall_s"] for rep in reps),
        "run_s_p50": stats.summary(per_run),
        "run_s_p75": dict(stats.summary(per_run),
                          median=stats.percentile(per_run, 75),
                          tail_percentile=stats.tail_percentile(len(per_run))),
        "sim_mcycles_per_s": stats.summary(mcps),
        "peak_rss_mb": stats.summary(rep["peak_rss_mb"] for rep in reps),
    }
    for metric in ("setup_s", "wall_s"):
        out[metric]["raw"] = stats.median(rep[metric] for rep in reps)
    out["calib_s"] = stats.summary(
        c for rep in reps for c in rep["calib_s"])
    return out


def print_e2e(name: str, summaries: dict, note: str) -> None:
    print(f"== {name}: {note}")
    rows = [(m, u, b, f"bound {bound:.0%}") for m, u, b, bound in END_TO_END]
    rows += [(m, u, b, "not bounded") for m, u, b in REPORTED]
    for metric, unit, better, limit in rows:
        s = summaries[metric]
        extra = f"  raw {s['raw']:.4f} {unit}" if "raw" in s else ""
        if "q1" in s:
            extra = (f"  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}"
                     + extra)
        print(f"  {metric:<18} {s['median']:>12.4f} {unit:<9} "
              f"({better} is better, {limit}){extra}")


def print_layers(name: str, layers: dict) -> None:
    print(f"-- {name}: per-layer ledger (one traced pass)")
    for metric, unit, _better in PER_LAYER:
        print(f"  {metric:<32} {layers[metric]:>16.6g} {unit}")


def envelope(results: dict, layers: dict, seed: int) -> dict:
    from repro.analytics.sources import bench_envelope

    metrics: dict = {}
    gates: dict = {}
    for name, res in results.items():
        for metric, _unit, better, bound in END_TO_END:
            key = f"{name}.{metric}"
            value = res["summaries"][metric]["median"]
            metrics[key] = value
            gates[key] = ({"max": value * (1 + bound)} if better == "lower"
                          else {"min": value * (1 - bound)})
        for metric, _unit, _better in REPORTED:
            metrics[f"{name}.{metric}"] = res["summaries"][metric]["median"]
        gates[f"{name}.fail_ratio"] = {"max": 0.0}
    metrics["detail"] = {
        "seed": seed,
        "units": {m[0]: m[1] for m in END_TO_END + REPORTED},
        "workloads": {
            name: {"scale": res["scale"], "reps": res["reps"],
                   "check": res["check"], "summaries": res["summaries"]}
            for name, res in results.items()
        },
        "layers": layers,
    }
    return bench_envelope("e2e", metrics, gates=gates)


# ------------------------------------------------------------------ main


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", "--workload", default=",".join(WORKLOADS),
                   help="comma list of workloads (default: all four)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="app and sampler seed (default %(default)s)")
    runs = p.add_mutually_exclusive_group()
    runs.add_argument("--reps", type=int,
                      help=f"passes per workload (default {DEFAULT_REPS})")
    runs.add_argument("--seconds", type=float,
                      help="keep starting rounds until this many seconds "
                           "per workload have passed (at least one round)")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=(0, 1), help="add one traced pass per workload")
    p.add_argument("--scale", type=float,
                   help="override every workload's scale (smoke runs)")
    p.add_argument("--out", default=os.path.join(ARTIFACTS, "BENCH_e2e.json"),
                   help="BENCH envelope path (default %(default)s)")
    p.add_argument("--reference", default=REFERENCE,
                   help="reference outputs (default %(default)s)")
    p.add_argument("--write-reference", action="store_true",
                   help="store this invocation's outputs as the reference")
    args = p.parse_args(argv)
    names = [n for n in args.workloads.split(",") if n]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown or not names:
        p.error(f"unknown workload(s) {unknown}; choose from "
                f"{', '.join(WORKLOADS)}")
    args.names = names
    return args


def collect(args, scales: dict) -> tuple[dict, dict, dict]:
    """Run every pass: ``(reps, errors, traced)`` keyed by workload.

    Rounds are round-robin over the workloads with the order rotated
    each round, so slow drift of the host lands on every workload
    alike; the traced passes come after the timed rounds.
    """
    work = os.path.join(ARTIFACTS, f"e2e-work-{os.getpid()}")
    names = args.names
    reps: dict[str, list] = {n: [] for n in names}
    errors: dict[str, list] = {n: [] for n in names}
    budget = None if args.seconds is None else args.seconds * len(names)
    rounds = args.reps or DEFAULT_REPS
    t_start = time.perf_counter()
    r = 0
    while (r < rounds if budget is None
           else r == 0 or time.perf_counter() - t_start < budget):
        for name in names[r % len(names):] + names[:r % len(names)]:
            rep = run_child(child_job(name, args.seed, scales[name], False,
                                      work))
            (errors if isinstance(rep, str) else reps)[name].append(rep)
        r += 1
    traced = {name: run_child(child_job(name, args.seed, scales[name], True,
                                        work))
              for name in names if args.trace}
    shutil.rmtree(work, ignore_errors=True)
    return reps, errors, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no src/repro under {ROOT}; nothing to benchmark",
              file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.makedirs(ARTIFACTS, exist_ok=True)
    scales = {n: args.scale or WORKLOADS[n].scale for n in args.names}
    reps, errors, traced = collect(args, scales)

    reference = load_reference(args.reference)
    results: dict = {}
    layers: dict = {}
    attempted = failed = 0
    for name in args.names:
        ok = reps[name]
        t = traced.get(name)
        passes = ok + ([t] if isinstance(t, dict) else [])
        crashed = errors[name] + ([t] if isinstance(t, str) else [])
        for err in crashed:
            print(f"!! {name}: {err}", file=sys.stderr)
        ref = reference.get(name)
        use_ref = (not args.write_reference and ref is not None
                   and ref["seed"] == args.seed
                   and ref["scale"] == scales[name])
        expected = (ref["outputs"] if use_ref
                    else outputs_of(passes[0]) if passes else None)
        per_pass = output_units(name, expected)
        bad = sum(failed_units(expected, outputs_of(p)) for p in passes)
        # A crashed pass fails every unit it would have produced.
        bad += per_pass * len(crashed)
        units = per_pass * (len(passes) + len(crashed))
        attempted += units
        failed += bad
        if not ok:
            print(f"!! {name}: no successful pass", file=sys.stderr)
            continue
        check = "reference" if use_ref else "reps agree"
        summaries = e2e_values(ok)
        summaries["fail_ratio"] = {"median": bad / units}
        results[name] = {"scale": scales[name], "reps": len(ok),
                         "check": check, "summaries": summaries}
        probe = summaries["calib_s"]["median"]
        print_e2e(name, summaries,
                  f"scale {scales[name]:g}, seed {args.seed}, {len(ok)} reps, "
                  f"outputs checked against {check}, host probe "
                  f"{probe * 1e3:.1f} ms (times normalized to "
                  f"{CALIB_NOMINAL_S * 1e3:.0f} ms)")
        if isinstance(t, dict):
            untraced = summaries["wall_s"]["median"]
            layers[name] = dict(
                t["layers"],
                **{"harness.trace_overhead_pct":
                   100.0 * (host_factor([t]) * t["wall_s"] / untraced - 1.0),
                   "harness.calib_s": probe})
            print_layers(name, layers[name])

    if args.write_reference and not failed and results:
        for name in results:
            reference[name] = {"seed": args.seed, "scale": scales[name],
                               "outputs": outputs_of(reps[name][0])}
        with open(args.reference, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"reference written: {args.reference}")

    if results:
        from repro.campaign.artifacts import write_json_atomic

        write_json_atomic(args.out, envelope(results, layers, args.seed))

    wanted = layers if args.trace else results
    if any(name not in wanted for name in args.names):
        return 1
    prefix = "{}." if len(args.names) > 1 else ""
    metrics = {}
    for name in args.names:
        if args.trace:
            values = [(m, u, layers[name][m]) for m, u, _ in PER_LAYER]
        else:
            values = [(m, u, results[name]["summaries"][m]["median"])
                      for m, u, _, _ in END_TO_END]
        for metric, unit, value in values:
            metrics[prefix.format(name) + metric] = {
                "value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1
