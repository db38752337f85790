"""The layer ledger: per-layer self time and counts, measured from outside.

:class:`Ledger` wraps the public entry points of each simulator layer
(module functions and class attributes, listed in :data:`ENTRY_POINTS`)
for the length of one traced pass and restores every attribute
afterwards; nothing under ``src/`` is edited.  A wrapper measures its
own duration minus the duration of the wrapped calls nested inside it,
and adds that *self time* to its layer, so the layers partition the
time spent inside any wrapped call and ``unattributed`` is the rest of
the pass.

Definitions the README relies on:

* ``<layer>.calls`` counts *entries* into a layer: a call is counted
  only when the innermost wrapped call around it belongs to another
  layer (a ``MemoSoftFPU`` op calling its ``FastSoftFPU`` parent is one
  ``fp`` entry, not two).
* Time between wrapped calls belongs to the innermost wrapped caller.
  Guest generator code runs inside ``CPU.step`` and so lands in
  ``machine``.
* Entry points called once per run or per campaign record a span
  (name, layer, start, end, self time, enclosing span); per-instruction
  entry points are too frequent to keep and only add to the totals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
import weakref

#: Ledger layers, outermost first.  ``unattributed`` is derived.
LAYERS = (
    "campaign", "analytics", "analysis", "trace", "kernel", "fpspy",
    "machine", "machine.blockexec", "machine.storm", "isa", "fp",
)

_FPU_CLASSES = ("SoftFPU", "FastSoftFPU", "MemoSoftFPU")
_FPU_OPS = (
    "add", "sub", "mul", "div", "sqrt", "fma", "min", "max", "compare",
    "convert", "from_int", "to_int", "round_to_integral",
)

#: ``(layer, module, attribute, span)``.  A dotted attribute names a
#: method on a class of that module.  A module-level function is patched
#: in every loaded ``repro`` module that imported it by value (``cpu``
#: imports ``execute_form`` that way).
ENTRY_POINTS = (
    ("campaign", "repro.campaign.runner", "run_campaign", True),
    ("campaign", "repro.campaign.worker", "execute_run", True),
    ("analytics", "repro.analytics.generate", "build_context", True),
    ("analytics", "repro.analytics.generate", "generate_figures", True),
    ("analysis", "repro.analysis.extract", "per_event_counts", True),
    ("analysis", "repro.analysis.extract", "code_rankpop_inputs", True),
    ("trace", "repro.trace.reader", "TraceSet.from_vfs", True),
    ("trace", "repro.trace.writer", "TraceWriter.append_individual", False),
    ("trace", "repro.trace.writer", "TraceWriter.append_packed", False),
    ("trace", "repro.trace.writer", "TraceWriter.append_aggregate", False),
    ("trace", "repro.trace.writer", "TraceWriter.append_text", False),
    ("trace", "repro.trace.writer", "TraceWriter.flush", False),
    ("trace", "repro.trace.writer", "TraceWriter.close", False),
    ("kernel", "repro.kernel.kernel", "Kernel.run", True),
    ("fpspy", "repro.fpspy.engine", "FPSpyEngine._sigfpe_handler", False),
    ("fpspy", "repro.fpspy.engine", "FPSpyEngine._sigtrap_handler", False),
    ("fpspy", "repro.fpspy.engine", "FPSpyEngine._alarm_handler", False),
    ("fpspy", "repro.fpspy.engine", "FPSpyEngine.init_thread", False),
    ("fpspy", "repro.fpspy.engine", "FPSpyEngine.teardown_thread", False),
    ("machine", "repro.machine.cpu", "CPU.step", False),
    ("machine", "repro.machine.cpu", "CPU.deliver_signals", False),
    ("machine.blockexec", "repro.machine.blockexec", "step_block", False),
    ("machine.storm", "repro.machine.storm", "try_storm", False),
    ("isa", "repro.machine.cpu", "execute_form", False),
    ("fp", "repro.fp.batchfloat", "execute_batch", False),
    ("fp", "repro.fp.vectorfast", "vector_execute", False),
) + tuple(
    ("fp", module, f"{cls}.{op}", False)
    for module, cls, ops in (
        ("repro.fp.softfloat", "SoftFPU", _FPU_OPS),
        ("repro.fp.fastpath", "FastSoftFPU", ("mul", "div", "sqrt")),
        ("repro.fp.memo", "MemoSoftFPU", _FPU_OPS),
    )
    for op in ops
)

#: Executor factories ``cpu`` imported by value.  Their closures are the
#: ``isa`` layer's per-instruction entry point, so the factories are
#: replaced by untimed functions that hand out timed executors.
EXECUTOR_FACTORIES = ("form_executor", "traced_form_executor")

_ISA_EXECUTOR = "isa.executor"


class Ledger:
    """Self time, entry counts and boundary counters of one traced pass."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.self_s = {layer: 0.0 for layer in LAYERS}
        #: Entries per entry point (see module docstring), and its layer.
        self.entries: dict[str, int] = {}
        self.entry_layer: dict[str, str] = {}
        #: Counters read at entry-point boundaries.
        self.counts: dict[str, float] = {}
        #: ``(id, parent id, layer, name, start_s, end_s, self_s)``.
        self.spans: list[tuple] = []
        self._patches: list[tuple] = []
        self._executors: dict = {}
        self._flushed = weakref.WeakKeyDictionary()
        # Per open wrapped call: its layer, the time its wrapped children
        # took, and its span id; index 0 is the pass itself.
        self._layer_stack: list[str | None] = [None]
        self._child_stack: list[float] = [0.0]
        self._span_stack: list[int | None] = [None]
        self._span_ids = itertools.count(1)

    # ----------------------------------------------------------- wrapping

    def wrap(self, layer: str, name: str, fn, span: bool = False, after=None):
        """A timed stand-in for ``fn``, charging ``layer``.

        ``after(args, result)`` runs on normal return to read counters
        at the boundary.
        """
        self.entries.setdefault(name, 0)
        self.entry_layer[name] = layer
        clock = self.clock
        layers = self._layer_stack
        child = self._child_stack
        self_s = self.self_s
        entries = self.entries

        if not span:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if layers[-1] != layer:
                    entries[name] += 1
                layers.append(layer)
                child.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    layers.pop()
                    self_s[layer] += dt - child.pop()
                    child[-1] += dt
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        spans = self.spans
        span_ids = self._span_stack
        next_id = self._span_ids

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            if layers[-1] != layer:
                entries[name] += 1
            sid = next(next_id)
            parent = span_ids[-1]
            layers.append(layer)
            child.append(0.0)
            span_ids.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                layers.pop()
                span_ids.pop()
                own = dt - child.pop()
                self_s[layer] += own
                child[-1] += dt
                spans.append((sid, parent, layer, name, t0, t0 + dt, own))
            if after is not None:
                after(args, result)
            return result

        return span_wrapper

    def _timed_executor(self, executor):
        timed = self._executors.get(executor)
        if timed is None:
            timed = self.wrap("isa", _ISA_EXECUTOR, executor)
            self._executors[executor] = timed
        return timed

    # ------------------------------------------------- install / uninstall

    def install(self) -> None:
        """Patch every entry point.  Call :meth:`uninstall` afterwards."""
        if self._patches:
            raise RuntimeError("ledger already installed")
        hooks = self._after_hooks()
        for layer, module, attr, span in ENTRY_POINTS:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(
                        layer, attr, raw.__func__, span, hooks.get(attr)))
                else:
                    patched = self.wrap(layer, attr, raw, span, hooks.get(attr))
                self._patch(cls, meth, patched)
            else:
                fn = getattr(mod, attr)
                self._patch_everywhere(
                    fn, self.wrap(layer, attr, fn, span, hooks.get(attr)))
        cpu = importlib.import_module("repro.machine.cpu")
        for attr in EXECUTOR_FACTORIES:
            factory = getattr(cpu, attr)

            def timed_factory(form, _factory=factory):
                return self._timed_executor(_factory(form))

            self._patch_everywhere(factory, functools.wraps(factory)(timed_factory))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
        self._executors.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, fn, new) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, new)

    def __enter__(self) -> "Ledger":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ----------------------------------------------------------- counters

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _after_hooks(self) -> dict:
        add = self._add

        def kernel_run(args, result):
            kernel = args[0]
            add("kernel.sim_cycles", kernel.cycles)
            st = kernel.cpu.storm_stats
            add("machine.storm.batches", st["batches"])
            add("machine.storm.groups", st["groups"])
            add("machine.storm.bailouts", sum(st["bailouts"].values()))

        def batch_lanes(args, result):
            add("fp.batch_lanes", len(args[1][0]))

        def flush(args, result):
            writer = args[0]
            prev = self._flushed.get(writer, 0)
            self._flushed[writer] = writer.bytes_flushed
            add("trace.bytes", writer.bytes_flushed - prev)

        def run_campaign(args, result):
            host = result.host
            add("campaign.pool_workers", host["workers"])
            add("campaign.spawned_workers", host["spawned_workers"])
            add("campaign.retries", host["retries"])
            add("campaign.run_host_s",
                sum(o.host_seconds for o in result.outcomes))
            add("campaign.wall_s", host["host_wall_seconds"])

        def generate_figures(args, result):
            add("analytics.figures", sum(
                1 for f in result["figures"].values()
                if f["status"] == "generated"))

        return {
            "Kernel.run": kernel_run,
            "execute_batch": batch_lanes,
            "vector_execute": batch_lanes,
            "TraceWriter.append_individual":
                lambda args, result: add("trace.individual_records", 1),
            "TraceWriter.append_packed":
                lambda args, result: add("trace.individual_records", args[2]),
            "TraceWriter.flush": flush,
            "run_campaign": run_campaign,
            "generate_figures": generate_figures,
        }

    # ------------------------------------------------------------ results

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of a pass that took ``wall_s`` seconds."""
        out: dict[str, float] = {}
        calls = {layer: 0 for layer in LAYERS}
        for name, n in self.entries.items():
            calls[self.entry_layer[name]] += n
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.share"] = self.self_s[layer] / wall_s
            out[f"{layer}.calls"] = calls[layer]
        rest = wall_s - sum(self.self_s.values())
        out["unattributed.self_s"] = rest
        out["unattributed.share"] = rest / wall_s

        c = self.counts.get
        e = self.entries.get
        out["kernel.sim_cycles"] = c("kernel.sim_cycles", 0)
        out["machine.steps"] = e("CPU.step", 0)
        attempts = e("try_storm", 0)
        batches = c("machine.storm.batches", 0)
        groups = c("machine.storm.groups", 0)
        out["machine.storm.attempts"] = attempts
        out["machine.storm.batches"] = batches
        out["machine.storm.groups"] = groups
        out["machine.storm.bailouts"] = c("machine.storm.bailouts", 0)
        out["machine.storm.admit_ratio"] = batches / attempts if attempts else 0.0
        out["machine.storm.groups_per_batch"] = groups / batches if batches else 0.0
        batch_calls = e("execute_batch", 0) + e("vector_execute", 0)
        lanes = c("fp.batch_lanes", 0)
        out["fp.batch_calls"] = batch_calls
        out["fp.batch_lanes"] = lanes
        out["fp.lanes_per_call"] = lanes / batch_calls if batch_calls else 0.0
        out["fp.scalar_ops"] = sum(
            n for name, n in self.entries.items()
            if name.partition(".")[0] in _FPU_CLASSES)
        out["fpspy.sigfpe"] = e("FPSpyEngine._sigfpe_handler", 0)
        out["fpspy.sigtrap"] = e("FPSpyEngine._sigtrap_handler", 0)
        out["fpspy.sigalrm"] = e("FPSpyEngine._alarm_handler", 0)
        out["trace.individual_records"] = c("trace.individual_records", 0)
        out["trace.bytes"] = c("trace.bytes", 0)
        workers = c("campaign.pool_workers", 0)
        run_host = c("campaign.run_host_s", 0.0)
        out["campaign.pool_workers"] = workers
        out["campaign.spawned_workers"] = c("campaign.spawned_workers", 0)
        out["campaign.retries"] = c("campaign.retries", 0)
        out["campaign.run_host_s"] = run_host
        out["campaign.overhead_s"] = (
            c("campaign.wall_s", 0.0) - run_host / workers if workers else 0.0)
        out["analytics.figures"] = c("analytics.figures", 0)
        return out

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines, in completion order."""
        keys = ("id", "parent", "layer", "name", "start_s", "end_s", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
