"""The campaign daemon: a job queue in front of the runner.

``python -m repro.study serve`` keeps a :class:`CampaignDaemon` alive so
clients can submit campaign specs over a tiny HTTP API, poll job status,
and fetch results.  Each job is one :func:`~repro.campaign.run_campaign`
call into ``<data dir>/jobs/<id>``, planned exactly as the command line
plans it (in-process, or a process pool that lives for that job).  A
finished job's ``manifest.json`` lists its files by relative name, and
``GET /artifact`` serves exactly those names.

Concurrency model: submissions are accepted from any number of HTTP
threads, but jobs execute **serially**, in submission order, on one
scheduler thread -- run-level parallelism inside a job already
saturates the host.  The queue is bounded (:data:`MAX_QUEUE`): a full
queue or a stopping daemon answers 503.  A job whose campaign raises
ends in state ``error`` and is counted in ``failed_jobs``; the queue
moves on.

Every submission passes :meth:`CampaignDaemon._coerce`, the one
boundary for outside input: builtin names, overrides and inline run
fields are checked there, and anything else is a 400.

Everything here is stdlib (``http.server``, ``threading``, ``urllib``)
-- the daemon must work in the same no-new-dependencies environment as
the rest of the repo.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import deque

from repro.campaign.artifacts import write_json_atomic
from repro.campaign.runner import REPORT_FILE, run_campaign
from repro.campaign.spec import (
    BUILTIN_CAMPAIGNS,
    PASS_NAMES,
    CampaignSpec,
    RunSpec,
)
from repro.study.targets import TARGET_NAMES

#: Queue bound: beyond this many queued jobs, every submit gets 503.
MAX_QUEUE = 64


def _is_bool(v) -> bool:
    return isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_scale(v) -> bool:
    if _is_int(v):
        return v > 0
    return isinstance(v, float) and math.isfinite(v) and v > 0


#: What a submitted run field must satisfy.  The campaign-wide overrides
#: of a ``{"builtin": ...}`` submission are the last four.
_RUN_FIELDS = {
    "app": lambda v: isinstance(v, str) and v in TARGET_NAMES,
    "mode": lambda v: isinstance(v, str) and v in PASS_NAMES,
    "variant": lambda v: isinstance(v, str),
    "scale": _is_scale,
    "seed": _is_int,
    "telemetry": _is_bool,
    "tracing": _is_bool,
}
_OVERRIDES = ("scale", "seed", "telemetry", "tracing")


def _check_fields(fields, allowed, where: str) -> None:
    if not isinstance(fields, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key, value in fields.items():
        if key not in allowed:
            raise ValueError(
                f"{where}: unknown field {key!r}; choose from {allowed}")
        if not _RUN_FIELDS[key](value):
            raise ValueError(f"{where}: invalid {key} {value!r}")


class AdmissionError(RuntimeError):
    """A submission the daemon refused (HTTP-mapped ``code``)."""

    def __init__(self, code: int, reason: str) -> None:
        super().__init__(reason)
        self.code = code
        self.reason = reason


class CampaignDaemon:
    """Job queue + scheduler around the campaign runner.

    Usable directly from Python (tests, the saturation benchmark) or
    through :func:`serve_http`.  The scheduler thread starts only on
    :meth:`start`, so submissions made before it stay queued.
    """

    def __init__(
        self, data_dir: str | os.PathLike, workers: int | None = None,
    ) -> None:
        self.data_dir = os.fspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.workers = workers

        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: dict[str, dict] = {}
        self._queue: deque[str] = deque()
        self._seq = 0
        self._stopping = False
        self._started_monotonic = time.monotonic()
        self._busy_seconds = 0.0
        self._runs_completed = 0
        self.counters = {
            "submitted": 0, "completed": 0, "failed_jobs": 0,
            "rejected_503": 0,
        }
        self._thread = threading.Thread(
            target=self._scheduler, name="campaign-daemon", daemon=True)
        self._started = False

    # --------------------------------------------------------- lifecycle

    def start(self) -> "CampaignDaemon":
        if not self._started:
            self._started = True
            self._thread.start()
        return self

    def shutdown(self, timeout: float = 60.0) -> None:
        """Stop accepting, finish the running job, cancel queued ones."""
        with self._wake:
            self._stopping = True
            self._wake.notify_all()
        if self._started:
            self._thread.join(timeout=timeout)

    # -------------------------------------------------------- submission

    def submit(self, campaign) -> dict:
        """Queue a campaign; returns ``{"job", "state"}``.

        ``campaign`` is a :class:`CampaignSpec`, or outside input for
        :meth:`_coerce` (``ValueError`` if it is invalid).  Raises
        :class:`AdmissionError` 503 when the queue is full or the
        daemon is shutting down, instead of queueing unboundedly.
        """
        spec = self._coerce(campaign)
        with self._wake:
            if self._stopping:
                self.counters["rejected_503"] += 1
                raise AdmissionError(503, "daemon is shutting down")
            if len(self._queue) >= MAX_QUEUE:
                self.counters["rejected_503"] += 1
                raise AdmissionError(503, "job queue is full")
            self._seq += 1
            job_id = f"job{self._seq:04d}-{spec.spec_hash}"
            self._jobs[job_id] = {
                "id": job_id,
                "campaign": spec,
                "name": spec.name,
                "spec_hash": spec.spec_hash,
                "state": "queued",
                "submitted_unix": round(time.time(), 3),
                "error": None,
                "manifest": None,
            }
            self._queue.append(job_id)
            self.counters["submitted"] += 1
            self._wake.notify_all()
        return {"job": job_id, "state": "queued"}

    @staticmethod
    def _coerce(campaign) -> CampaignSpec:
        """Validate a submission into a campaign spec.

        Accepts a :class:`CampaignSpec` as is.  Outside input -- a
        ``{"builtin": name, ...overrides}`` reference or an inline
        ``{"name", "runs"}`` spec -- is checked field by field; anything
        else raises ``ValueError``.  A builtin must name a key of
        ``BUILTIN_CAMPAIGNS``: nothing a client sends is ever opened as
        a path on the daemon's host.
        """
        if isinstance(campaign, CampaignSpec):
            return campaign
        if not isinstance(campaign, dict):
            raise ValueError(
                "campaign must be a {\"builtin\": ...} reference or a "
                "{\"name\", \"runs\"} spec")
        if "builtin" in campaign:
            overrides = dict(campaign)
            name = overrides.pop("builtin")
            if not isinstance(name, str) or name not in BUILTIN_CAMPAIGNS:
                raise ValueError(
                    f"unknown builtin campaign {name!r}; choose from "
                    f"{sorted(BUILTIN_CAMPAIGNS)}")
            _check_fields(overrides, _OVERRIDES, "overrides")
            return BUILTIN_CAMPAIGNS[name]().with_overrides(**overrides)
        name, runs = campaign.get("name"), campaign.get("runs")
        if set(campaign) != {"name", "runs"} or not isinstance(name, str):
            raise ValueError("an inline spec is exactly {\"name\", \"runs\"}")
        if not isinstance(runs, list) or not runs:
            raise ValueError("runs must be a non-empty list")
        for i, run in enumerate(runs):
            _check_fields(run, tuple(_RUN_FIELDS), f"runs[{i}]")
            if "app" not in run:
                raise ValueError(f"runs[{i}]: missing field 'app'")
        return CampaignSpec(
            name=name, runs=tuple(RunSpec(**run) for run in runs))

    # ----------------------------------------------------------- polling

    def _job(self, job_id: str, done: bool = False) -> dict:
        """The job record (caller holds the lock); 409 if not ``done``."""
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        if done and job["state"] != "done":
            raise AdmissionError(
                409, f"job {job_id} is {job['state']}, not done")
        return job

    def status(self, job_id: str) -> dict:
        with self._lock:
            job = self._job(job_id)
            out = {k: job[k] for k in (
                "id", "name", "spec_hash", "state", "submitted_unix",
                "error")}
            out["queue_position"] = (
                list(self._queue).index(job_id)
                if job_id in self._queue else None)
        # Live progress comes from the runner's own status.json -- the
        # runner rewrites it atomically as runs land, so the daemon
        # never needs a progress side-channel into the scheduler.
        status_path = os.path.join(self._job_dir(job_id), "status.json")
        if os.path.exists(status_path):
            try:
                with open(status_path) as fh:
                    out["progress"] = json.load(fh)
            except (OSError, ValueError):  # pragma: no cover - torn read
                pass
        return out

    def result(self, job_id: str) -> dict:
        """Finished job's manifest plus its report text."""
        out = dict(self._manifest(job_id))
        out["report_text"] = self.artifact(job_id, REPORT_FILE).decode()
        return out

    def artifact(self, job_id: str, name: str) -> bytes:
        """One file of a finished job, by a name its manifest lists.

        ``name`` comes from HTTP clients, so it is only ever compared
        against the manifest: a path that is not listed verbatim
        (absolute, ``..``, nested or just unknown) is a
        ``FileNotFoundError`` before any filesystem access.
        """
        if name not in self._manifest(job_id)["files"]:
            raise FileNotFoundError(name)
        with open(os.path.join(self._job_dir(job_id), name), "rb") as fh:
            return fh.read()

    def _manifest(self, job_id: str) -> dict:
        with self._lock:
            return self._job(job_id, done=True)["manifest"]

    def stats(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for j in self._jobs.values():
                states[j["state"]] = states.get(j["state"], 0) + 1
            busy = self._busy_seconds
            runs = self._runs_completed
            return {
                "jobs": dict(states),
                "queue_depth": len(self._queue),
                "counters": dict(self.counters),
                "uptime_seconds": round(
                    time.monotonic() - self._started_monotonic, 3),
                "busy_seconds": round(busy, 3),
                "runs_completed": runs,
                "runs_per_sec": round(runs / busy, 3) if busy > 0 else 0.0,
            }

    # ----------------------------------------------------------- figures

    def figures_index(self) -> dict:
        """The analytics figure registry, for ``GET /figures``."""
        from repro.analytics import all_figures

        return {"figures": [
            {"name": d.name, "group": d.group, "title": d.title,
             "diffable": d.diffable, "tolerance": d.tolerance}
            for d in all_figures()]}

    def figures(self, job_id: str) -> dict:
        """Render (or reuse) the analytics report for a finished job.

        Figures generate into ``<job dir>/figures`` on first request
        and are served from there afterwards -- figure data is a pure
        function of the job's deterministic artifacts, so the cache
        never goes stale.
        """
        from repro.analytics import build_context, generate_figures
        from repro.analytics.generate import MANIFEST_NAME

        with self._lock:
            self._job(job_id, done=True)
        fig_dir = os.path.join(self._job_dir(job_id), "figures")
        manifest_path = os.path.join(fig_dir, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            with open(manifest_path, encoding="utf-8") as fh:
                return json.load(fh)
        ctx = build_context(campaign_dirs=[self._job_dir(job_id)])
        return generate_figures(
            fig_dir, ctx,
            title=f"campaign daemon: figures for {job_id}")

    def figures_file(self, job_id: str, name: str) -> tuple[bytes, str]:
        """One rendered figure artifact (HTML index, spec, or CSV)."""
        if name != os.path.basename(name) or name.startswith("."):
            raise FileNotFoundError(name)  # no traversal via file=
        self.figures(job_id)  # ensure rendered
        path = os.path.join(self._job_dir(job_id), "figures", name)
        with open(path, "rb") as fh:
            data = fh.read()
        ctype = {
            ".html": "text/html; charset=utf-8",
            ".json": "application/json",
            ".csv": "text/csv; charset=utf-8",
        }.get(os.path.splitext(name)[1], "application/octet-stream")
        return data, ctype

    # --------------------------------------------------------- scheduler

    def _job_dir(self, job_id: str) -> str:
        return os.path.join(self.data_dir, "jobs", job_id)

    def _scheduler(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._stopping:
                    self._wake.wait(timeout=0.5)
                if self._stopping:
                    # Refuse queued-but-unstarted work on the way out.
                    for job_id in self._queue:
                        self._jobs[job_id]["state"] = "cancelled"
                    self._queue.clear()
                    return
                job_id = self._queue.popleft()
                job = self._jobs[job_id]
                job["state"] = "running"
            try:
                self._run_job(job)
            except Exception as exc:
                with self._lock:
                    job["state"] = "error"
                    job["error"] = f"{type(exc).__name__}: {exc}"
                    self.counters["failed_jobs"] += 1

    def _run_job(self, job: dict) -> None:
        out_dir = self._job_dir(job["id"])
        t0 = time.monotonic()
        result = run_campaign(
            job["campaign"], workers=self.workers, out_dir=out_dir)
        elapsed = time.monotonic() - t0

        manifest = {
            "job": job["id"],
            "campaign": job["name"],
            "spec_hash": job["spec_hash"],
            "runs": len(result.outcomes),
            "failed": [o.index for o in result.failed],
            "host_wall_seconds": result.host["host_wall_seconds"],
            "mode": result.host["plan"]["mode"],
            "files": sorted(
                os.path.relpath(os.path.join(root, name), out_dir)
                for root, _dirs, names in os.walk(out_dir)
                for name in names),
        }
        write_json_atomic(os.path.join(out_dir, "manifest.json"), manifest)
        with self._lock:
            job["state"] = "done"
            job["manifest"] = manifest
            self.counters["completed"] += 1
            if result.failed:
                self.counters["failed_jobs"] += 1
            self._busy_seconds += elapsed
            self._runs_completed += len(result.outcomes)


# ---------------------------------------------------------------- HTTP

#: Query parameters each endpoint cannot do without (a missing one is 400).
_REQUIRED_PARAMS = {
    "/status": ("job",), "/result": ("job",), "/artifact": ("job", "file"),
}


def serve_http(daemon: CampaignDaemon, host: str = "127.0.0.1",
               port: int = 0):
    """Bind the daemon's HTTP API; returns the (unstarted) server.

    Call ``server.serve_forever()`` (the CLI does) or drive it from a
    thread in tests.  ``port=0`` picks a free port;
    ``server.server_address`` has the real one.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):  # quiet by default
            pass

        def _reply(self, code: int, obj: object) -> None:
            body = json.dumps(obj, indent=2).encode() + b"\n"
            self._send(code, body, "application/json")

        def _send(self, code: int, data: bytes, ctype: str) -> None:
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def _query(self) -> tuple[str, dict]:
            from urllib.parse import parse_qs, urlparse

            parsed = urlparse(self.path)
            return parsed.path, {
                k: v[0] for k, v in parse_qs(parsed.query).items()}

        def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
            path, q = self._query()
            missing = [p for p in _REQUIRED_PARAMS.get(path, ())
                       if p not in q]
            if missing:
                self._reply(400, {
                    "error": f"missing query parameter {missing[0]!r}"})
                return
            try:
                if path == "/figures":
                    if "job" not in q:
                        self._reply(200, daemon.figures_index())
                    elif "file" in q:
                        self._send(200, *daemon.figures_file(
                            q["job"], q["file"]))
                    else:
                        self._reply(200, daemon.figures(q["job"]))
                elif path == "/status":
                    self._reply(200, daemon.status(q["job"]))
                elif path == "/result":
                    self._reply(200, daemon.result(q["job"]))
                elif path == "/artifact":
                    self._send(200, daemon.artifact(q["job"], q["file"]),
                               "application/octet-stream")
                elif path == "/stats":
                    self._reply(200, daemon.stats())
                else:
                    self._reply(404, {"error": f"no such endpoint {path}"})
            except KeyError as exc:
                self._reply(404, {"error": f"unknown job {exc}"})
            except AdmissionError as exc:
                self._reply(exc.code, {"error": exc.reason})
            except FileNotFoundError:
                self._reply(404, {"error": "unknown artifact"})

        def do_POST(self) -> None:  # noqa: N802
            path, _q = self._query()
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = -1
            if length < 0:
                # The body's extent is unknown, so the connection cannot
                # carry another request.
                self.close_connection = True
                self._reply(400, {"error": "bad Content-Length"})
                return
            raw = self.rfile.read(length) if length else b"{}"
            try:
                body = json.loads(raw.decode() or "{}")
            except ValueError:
                self._reply(400, {"error": "body is not JSON"})
                return
            if not isinstance(body, dict):
                self._reply(400, {"error": "body is not a JSON object"})
                return
            if path == "/submit":
                try:
                    ticket = daemon.submit(body.get("campaign"))
                except AdmissionError as exc:
                    self._reply(exc.code, {"error": exc.reason})
                except ValueError as exc:
                    self._reply(400, {"error": str(exc)})
                else:
                    self._reply(200, ticket)
            elif path == "/shutdown":
                self._reply(200, {"state": "stopping"})
                threading.Thread(
                    target=server.shutdown, daemon=True).start()
            else:
                self._reply(404, {"error": f"no such endpoint {path}"})

    server = ThreadingHTTPServer((host, port), Handler)
    server.daemon_threads = True
    return server
