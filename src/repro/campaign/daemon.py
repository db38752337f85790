"""The campaign daemon: a long-running job queue in front of the runner.

``python -m repro.study serve`` keeps a :class:`CampaignDaemon` alive so
clients can submit campaign specs over a tiny HTTP API, poll job status,
and fetch results.  Each job is one :func:`~repro.campaign.run_campaign`
call, planned exactly as the command line plans it (in-process, or a
process pool that lives for that job).  Identical submissions are
deduplicated by spec hash and their artifacts stored content-addressed
(:class:`repro.campaign.artifacts.ArtifactStore`), so a CI fleet
re-submitting the same figure campaign pays for it once.

Concurrency model: submissions are accepted from any number of HTTP
threads, but jobs execute **serially** on one scheduler thread --
run-level parallelism inside a job already saturates the host.
Admission control therefore bounds the *queue*, not the executor: a
full queue returns 503, a submitter over their pending quota returns
429.

Everything here is stdlib (``http.server``, ``threading``, ``urllib``)
-- the daemon must work in the same no-new-dependencies environment as
the rest of the repo.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

from repro.campaign.artifacts import ArtifactStore, write_json_atomic
from repro.campaign.runner import REPORT_FILE, run_campaign
from repro.campaign.spec import CampaignSpec, build_campaign

#: Queue-wide admission bound: beyond this, every submit gets 503.
MAX_QUEUE = 64
#: Per-submitter pending bound: beyond this, that submitter gets 429.
MAX_PENDING_PER_SUBMITTER = 4


class AdmissionError(RuntimeError):
    """A submission the daemon refused (HTTP-mapped ``code``)."""

    def __init__(self, code: int, reason: str) -> None:
        super().__init__(reason)
        self.code = code
        self.reason = reason


class CampaignDaemon:
    """Job queue + scheduler + artifact store around the campaign runner.

    Usable directly from Python (tests, the saturation benchmark) or
    through :func:`serve_http`.  ``autostart=False`` leaves the
    scheduler thread unstarted so tests can fill the queue and observe
    admission control deterministically; call :meth:`start` to begin
    executing.
    """

    def __init__(
        self,
        data_dir: str | os.PathLike,
        workers: int | None = None,
        max_queue: int = MAX_QUEUE,
        max_pending_per_submitter: int = MAX_PENDING_PER_SUBMITTER,
        autostart: bool = True,
    ) -> None:
        self.data_dir = os.fspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.workers = workers
        self.store = ArtifactStore(os.path.join(self.data_dir, "store"))
        self.max_queue = max_queue
        self.max_pending_per_submitter = max_pending_per_submitter

        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: dict[str, dict] = {}
        self._queue: deque[str] = deque()
        self._by_hash: dict[str, str] = {}  #: spec_hash -> newest job id
        self._seq = 0
        self._stopping = False
        self._started_monotonic = time.monotonic()
        self._busy_seconds = 0.0
        self._runs_completed = 0
        self.counters = {
            "submitted": 0, "completed": 0, "failed_jobs": 0,
            "dedup_jobs": 0, "rejected_429": 0, "rejected_503": 0,
        }
        # Service telemetry rides the same bus abstraction the kernel
        # uses (scope "campaign.daemon"), so daemon counters merge and
        # render with every other telemetry surface in the repo.
        from repro.telemetry.bus import TelemetryBus

        self.telemetry = TelemetryBus()
        scope = self.telemetry.scope("campaign.daemon")
        self._http_requests = scope.labeled("http_requests")
        scope.gauge("queue_depth", lambda: len(self._queue))
        scope.gauge("uptime_seconds", lambda: round(
            time.monotonic() - self._started_monotonic, 3))
        scope.gauge("jobs_known", lambda: len(self._jobs))
        self._thread = threading.Thread(
            target=self._scheduler, name="campaign-daemon", daemon=True)
        self._started = False
        if autostart:
            self.start()

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

    def submit(self, campaign, submitter: str = "anon") -> dict:
        """Queue a campaign; returns ``{"job", "state", "dedup"}``.

        ``campaign`` is a :class:`CampaignSpec`, its JSON text, or a
        ``{"builtin": name, ...overrides}`` reference.  Raises
        :class:`AdmissionError` (429 submitter quota, 503 queue full /
        shutting down) instead of queueing unboundedly.
        """
        spec = self._coerce(campaign)
        with self._wake:
            if self._stopping:
                self.counters["rejected_503"] += 1
                raise AdmissionError(503, "daemon is shutting down")
            done_id = self._by_hash.get(spec.spec_hash)
            if done_id is not None:
                job = self._jobs[done_id]
                if job["state"] in ("queued", "running", "done"):
                    # Same spec hash, same deterministic report: the
                    # existing job *is* this submission's result.
                    self.counters["dedup_jobs"] += 1
                    return {"job": done_id, "state": job["state"],
                            "dedup": True}
            pending = [j for j in self._jobs.values()
                       if j["state"] in ("queued", "running")]
            if len(pending) >= self.max_queue:
                self.counters["rejected_503"] += 1
                raise AdmissionError(503, "job queue is full")
            mine = [j for j in pending if j["submitter"] == submitter]
            if len(mine) >= self.max_pending_per_submitter:
                self.counters["rejected_429"] += 1
                raise AdmissionError(
                    429, f"submitter {submitter!r} has "
                         f"{len(mine)} pending jobs (max "
                         f"{self.max_pending_per_submitter})")
            self._seq += 1
            job_id = f"job{self._seq:04d}-{spec.spec_hash}"
            self._jobs[job_id] = {
                "id": job_id,
                "campaign": spec,
                "name": spec.name,
                "spec_hash": spec.spec_hash,
                "submitter": submitter,
                "state": "queued",
                "submitted_unix": round(time.time(), 3),
                "error": None,
                "manifest": None,
            }
            self._by_hash[spec.spec_hash] = job_id
            self._queue.append(job_id)
            self.counters["submitted"] += 1
            self._wake.notify_all()
        return {"job": job_id, "state": "queued", "dedup": False}

    @staticmethod
    def _coerce(campaign) -> CampaignSpec:
        if isinstance(campaign, CampaignSpec):
            return campaign
        if isinstance(campaign, str):
            return CampaignSpec.from_json(campaign)
        if isinstance(campaign, dict) and "builtin" in campaign:
            d = dict(campaign)
            return build_campaign(
                d.pop("builtin"),
                scale=d.pop("scale", None), seed=d.pop("seed", None),
                telemetry=d.pop("telemetry", None),
                tracing=d.pop("tracing", None))
        if isinstance(campaign, dict):
            return CampaignSpec.from_json(json.dumps(campaign))
        raise ValueError(f"cannot interpret campaign {type(campaign)!r}")

    # ----------------------------------------------------------- polling

    def status(self, job_id: str) -> dict:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            out = {k: job[k] for k in (
                "id", "name", "spec_hash", "submitter", "state",
                "submitted_unix", "error")}
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
        """Finished job's manifest plus its report text (from the store)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            state = job["state"]
            manifest = job["manifest"]
        if state != "done" or manifest is None:
            raise AdmissionError(409, f"job {job_id} is {state}, not done")
        out = dict(manifest)
        out["report_text"] = self.store.get(
            manifest["artifacts"][REPORT_FILE]).decode()
        return out

    def artifact(self, digest: str) -> bytes:
        return self.store.get(digest)

    def stats(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for j in self._jobs.values():
                states[j["state"]] = states.get(j["state"], 0) + 1
            busy = self._busy_seconds
            runs = self._runs_completed
            out = {
                "jobs": dict(states),
                "queue_depth": len(self._queue),
                "counters": dict(self.counters),
                "uptime_seconds": round(
                    time.monotonic() - self._started_monotonic, 3),
                "busy_seconds": round(busy, 3),
                "runs_completed": runs,
                "runs_per_sec": round(runs / busy, 3) if busy > 0 else 0.0,
                "store": dict(self.store.stats),
            }
            out["http_requests"] = dict(self._http_requests.as_dict())
            out["telemetry"] = self.telemetry.snapshot_typed()
        return out

    def record_request(self, endpoint: str) -> None:
        """Count one HTTP request against its endpoint label.

        Unknown paths collapse into ``"other"`` so a scanning client
        cannot grow the label set without bound.
        """
        known = ("/status", "/result", "/artifact", "/stats", "/figures",
                 "/submit", "/shutdown")
        self._http_requests.inc(endpoint if endpoint in known else "other")

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
        import json as _json

        from repro.analytics import build_context, generate_figures
        from repro.analytics.generate import MANIFEST_NAME

        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            state = job["state"]
        if state != "done":
            raise AdmissionError(409, f"job {job_id} is {state}, not done")
        fig_dir = os.path.join(self._job_dir(job_id), "figures")
        manifest_path = os.path.join(fig_dir, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            with open(manifest_path, encoding="utf-8") as fh:
                return _json.load(fh)
        ctx = build_context(
            campaign_dirs=[self._job_dir(job_id)],
            daemon_stats=self.stats())
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
            except Exception as exc:  # pragma: no cover - runner bug
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

        manifest = self._store_artifacts(job, out_dir, result)
        with self._lock:
            job["state"] = "done"
            job["manifest"] = manifest
            self.counters["completed"] += 1
            if result.failed:
                self.counters["failed_jobs"] += 1
            self._busy_seconds += elapsed
            self._runs_completed += len(result.outcomes)

    def _store_artifacts(self, job: dict, out_dir: str, result) -> dict:
        """Content-address every job artifact; write + return the manifest."""
        artifacts: dict[str, str] = {}
        for root, _dirs, files in os.walk(out_dir):
            for name in sorted(files):
                path = os.path.join(root, name)
                rel = os.path.relpath(path, out_dir)
                artifacts[rel] = self.store.put_file(path)
        manifest = {
            "job": job["id"],
            "campaign": job["name"],
            "spec_hash": job["spec_hash"],
            "runs": len(result.outcomes),
            "failed": [o.index for o in result.failed],
            "host_wall_seconds": result.host["host_wall_seconds"],
            "mode": result.host["plan"]["mode"],
            "artifacts": artifacts,
        }
        write_json_atomic(os.path.join(out_dir, "manifest.json"), manifest)
        return manifest


# ---------------------------------------------------------------- HTTP


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
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _query(self) -> tuple[str, dict]:
            from urllib.parse import parse_qs, urlparse

            parsed = urlparse(self.path)
            return parsed.path, {
                k: v[0] for k, v in parse_qs(parsed.query).items()}

        def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
            path, q = self._query()
            daemon.record_request(path)
            try:
                if path == "/figures":
                    if "job" not in q:
                        self._reply(200, daemon.figures_index())
                    elif "file" in q:
                        data, ctype = daemon.figures_file(
                            q["job"], q["file"])
                        self.send_response(200)
                        self.send_header("Content-Type", ctype)
                        self.send_header("Content-Length", str(len(data)))
                        self.end_headers()
                        self.wfile.write(data)
                    else:
                        self._reply(200, daemon.figures(q["job"]))
                elif path == "/status":
                    self._reply(200, daemon.status(q["job"]))
                elif path == "/result":
                    self._reply(200, daemon.result(q["job"]))
                elif path == "/artifact":
                    data = daemon.artifact(q["digest"])
                    self.send_response(200)
                    self.send_header(
                        "Content-Type", "application/octet-stream")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
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
            daemon.record_request(path)
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
            if path == "/submit":
                try:
                    ticket = daemon.submit(
                        body.get("campaign"),
                        submitter=body.get("submitter", "anon"))
                except AdmissionError as exc:
                    self._reply(exc.code, {"error": exc.reason})
                except (ValueError, KeyError) as exc:
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
