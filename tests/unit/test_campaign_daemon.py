"""Campaign daemon tests: job lifecycle, admission, input checks, HTTP API."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign import (
    AdmissionError,
    CampaignDaemon,
    CampaignSpec,
    RunSpec,
    serve_http,
    smoke_campaign,
)
from repro.campaign.daemon import MAX_QUEUE

TINY = CampaignSpec(
    name="tiny",
    runs=(RunSpec(app="Miniaero", mode="aggregate", scale=0.1),),
)


def _wait_done(daemon, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = daemon.status(job_id)["state"]
        if state in ("done", "error", "cancelled"):
            return state
        time.sleep(0.05)
    raise TimeoutError(f"job {job_id} still {state}")


# ------------------------------------------------------------ lifecycle

def test_job_lifecycle_and_result_manifest(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d").start()
    try:
        ticket = daemon.submit(TINY)
        assert ticket == {"job": ticket["job"], "state": "queued"}
        assert _wait_done(daemon, ticket["job"]) == "done"

        status = daemon.status(ticket["job"])
        assert status["spec_hash"] == TINY.spec_hash
        assert status["progress"]["state"] == "done"

        result = daemon.result(ticket["job"])
        assert result["runs"] == 1 and result["failed"] == []
        assert result["report_text"].startswith("== campaign tiny ==")
        # The manifest lists the job's files by relative name, and each
        # listed file is retrievable by that name.
        assert "campaign_report.txt" in result["files"]
        assert daemon.artifact(
            ticket["job"], "campaign_report.txt").decode() == (
            result["report_text"])

        stats = daemon.stats()
        assert stats["counters"]["completed"] == 1
        assert stats["runs_completed"] == 1
        assert stats["runs_per_sec"] > 0
    finally:
        daemon.shutdown()


def test_admission_control_quota_and_queue_bounds(tmp_path):
    """The queue holds MAX_QUEUE jobs; the next submission is a 503."""
    daemon = CampaignDaemon(tmp_path / "d")  # scheduler not started
    jobs = {daemon.submit(TINY)["job"] for _ in range(MAX_QUEUE)}
    assert len(jobs) == MAX_QUEUE
    with pytest.raises(AdmissionError) as exc:
        daemon.submit(TINY)
    assert exc.value.code == 503
    stats = daemon.stats()
    assert stats["queue_depth"] == MAX_QUEUE
    assert stats["counters"]["rejected_503"] == 1
    daemon.shutdown()  # cancels the queued-but-unstarted jobs


def test_shutdown_cancels_queued_jobs_and_refuses_submissions(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d")
    ticket = daemon.submit(TINY)
    daemon.start()
    daemon.shutdown()
    assert daemon.status(ticket["job"])["state"] in ("done", "cancelled")
    with pytest.raises(AdmissionError) as exc:
        daemon.submit(smoke_campaign())
    assert exc.value.code == 503


def test_result_of_unfinished_job_is_conflict(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d")
    ticket = daemon.submit(TINY)
    with pytest.raises(AdmissionError) as exc:
        daemon.result(ticket["job"])
    assert exc.value.code == 409
    with pytest.raises(KeyError):
        daemon.status("no-such-job")
    daemon.shutdown()


def test_raising_job_is_counted_and_queue_moves_on(tmp_path, monkeypatch):
    """A job whose campaign raises ends in ``error`` with the exception
    text and one ``failed_jobs`` count; the job behind it still runs."""
    from repro.campaign import daemon as daemon_module

    real_run_campaign = daemon_module.run_campaign

    def run_campaign(campaign, **kw):
        if campaign.name == "poisoned":
            raise RuntimeError("injected fault")
        return real_run_campaign(campaign, **kw)

    monkeypatch.setattr(daemon_module, "run_campaign", run_campaign)
    daemon = CampaignDaemon(tmp_path / "d")
    bad = daemon.submit(CampaignSpec(name="poisoned", runs=TINY.runs))
    good = daemon.submit(TINY)
    daemon.start()
    try:
        assert _wait_done(daemon, good["job"]) == "done"
        status = daemon.status(bad["job"])
        assert status["state"] == "error"
        assert status["error"] == "RuntimeError: injected fault"
        counters = daemon.stats()["counters"]
        assert counters["failed_jobs"] == 1
        assert counters["completed"] == 1
    finally:
        daemon.shutdown()


# ----------------------------------------------------------------- HTTP

def _request(url, path, body=None):
    req = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"},
        method="POST" if body is not None else "GET")
    with urllib.request.urlopen(req, timeout=60) as resp:
        return json.loads(resp.read().decode())


def _raw(url, request: str) -> tuple[bytes, dict]:
    """Send one raw HTTP request; return the status line and JSON body."""
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(request.replace("\n", "\r\n").encode())
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0], json.loads(body)


def _raw_post(url, path, body: str) -> tuple[bytes, dict]:
    return _raw(url, (
        f"POST {path} HTTP/1.1\nHost: x\nConnection: close\n"
        f"Content-Length: {len(body.encode())}\n\n{body}"))


@pytest.fixture
def http_daemon(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d").start()
    server = serve_http(daemon, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield daemon, server, f"http://{host}:{port}"
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    daemon.shutdown()


def test_http_round_trip_submit_poll_fetch(http_daemon):
    _daemon, _server, url = http_daemon
    ticket = _request(url, "/submit", {"campaign": {"builtin": "smoke"}})
    assert ticket["state"] == "queued"

    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        status = _request(url, f"/status?job={ticket['job']}")
        if status["state"] in ("done", "error"):
            break
        time.sleep(0.1)
    assert status["state"] == "done"

    result = _request(url, f"/result?job={ticket['job']}")
    assert result["report_text"].startswith("== campaign smoke ==")
    blob = urllib.request.urlopen(
        url + f"/artifact?job={ticket['job']}&file=campaign_report.txt",
        timeout=30).read()
    assert blob.decode() == result["report_text"]
    page = urllib.request.urlopen(
        url + f"/figures?job={ticket['job']}&file=index.html",
        timeout=60).read()
    assert page.startswith(b"<!DOCTYPE html>")
    stats = _request(url, "/stats")
    assert stats["counters"]["completed"] == 1


def test_http_errors_map_to_status_codes(http_daemon):
    _daemon, _server, url = http_daemon
    with pytest.raises(urllib.error.HTTPError) as exc:
        _request(url, "/status?job=nope")
    assert exc.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as exc:
        _request(url, "/submit", {"campaign": {"builtin": "garbage"}})
    assert exc.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as exc:
        _request(url, "/nope")
    assert exc.value.code == 404


def test_http_artifact_rejects_path_escapes(http_daemon):
    """/artifact serves only names the job's manifest lists -- an
    absolute path, a ../ sequence or an unlisted name must 404, never
    escape the job directory."""
    from urllib.parse import quote

    daemon, _server, url = http_daemon
    job = daemon.submit(TINY)["job"]
    assert _wait_done(daemon, job) == "done"
    bad_files = (
        "/etc/passwd", "../../../../etc/passwd", "..",
        "traces/../campaign_report.txt",
        "manifest.json",  # on disk in the job directory, but not listed
    )
    for bad in bad_files:
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(
                url + f"/artifact?job={job}&file=" + quote(bad, safe=""),
                timeout=30)
        assert exc.value.code == 404, bad
    # A listed name under an unknown job is also a plain 404.
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(
            url + "/artifact?job=nope&file=campaign_report.txt", timeout=30)
    assert exc.value.code == 404


@pytest.mark.parametrize("body", ["[]", '"x"', "1", "null"])
def test_http_submit_rejects_non_object_body(http_daemon, body):
    """Valid JSON that is not an object is a 400, not a dropped
    connection."""
    _daemon, _server, url = http_daemon
    status, reply = _raw_post(url, "/submit", body)
    assert status.startswith(b"HTTP/1.1 400")
    assert "object" in reply["error"]


@pytest.mark.parametrize("target", [
    "/status", "/result", "/artifact", "/artifact?job=x", "/artifact?file=y",
])
def test_http_missing_query_parameter_is_400(http_daemon, target):
    _daemon, _server, url = http_daemon
    status, reply = _raw(
        url, f"GET {target} HTTP/1.1\nHost: x\nConnection: close\n\n")
    assert status.startswith(b"HTTP/1.1 400")
    assert "missing query parameter" in reply["error"]


def test_http_submit_rejects_builtin_host_path(http_daemon, tmp_path):
    """``builtin`` names a builtin campaign, never a file on the
    daemon's host."""
    _daemon, _server, url = http_daemon
    path = tmp_path / "campaign.json"
    path.write_text(TINY.to_json())
    status, reply = _raw_post(url, "/submit", json.dumps(
        {"campaign": {"builtin": str(path)}}))
    assert status.startswith(b"HTTP/1.1 400")
    assert "unknown builtin campaign" in reply["error"]


_RUN = {"app": "Miniaero", "mode": "aggregate", "scale": 0.1}


@pytest.mark.parametrize("campaign", [
    {"builtin": "smoke", "scale": "abc"},
    {"builtin": "smoke", "scale": -1},
    {"builtin": "smoke", "scale": 0},
    {"builtin": "smoke", "scale": float("nan")},
    {"builtin": "smoke", "scale": float("inf")},
    {"builtin": "smoke", "scale": True},
    {"builtin": "smoke", "seed": 1.5},
    {"builtin": "smoke", "seed": True},
    {"builtin": "smoke", "telemetry": "yes"},
    {"builtin": "smoke", "tracing": 1},
    {"builtin": "smoke", "workers": 4},
    {"builtin": ["smoke"]},
    {"name": "x", "runs": [dict(_RUN, app="NotAnApp")]},
    {"name": "x", "runs": [dict(_RUN, mode="bogus")]},
    {"name": "x", "runs": [dict(_RUN, scale="abc")]},
    {"name": "x", "runs": [dict(_RUN, seed=1.5)]},
    {"name": "x", "runs": [dict(_RUN, extra=1)]},
    {"name": "x", "runs": [{"mode": "aggregate"}]},
    {"name": "x", "runs": ["Miniaero"]},
    {"name": "x", "runs": []},
    {"name": "x"},
    {"name": "x", "runs": [_RUN], "extra": 1},
    '{"builtin": "smoke"}',
    None,
], ids=repr)
def test_http_submit_rejects_invalid_campaign(http_daemon, campaign):
    daemon, _server, url = http_daemon
    status, reply = _raw_post(
        url, "/submit", json.dumps({"campaign": campaign}))
    assert status.startswith(b"HTTP/1.1 400"), reply
    assert daemon.stats()["counters"]["submitted"] == 0


def test_valid_inline_and_override_submissions_coerce():
    spec = CampaignDaemon._coerce(
        {"name": "x", "runs": [dict(_RUN, seed=7, tracing=True)]})
    assert spec == CampaignSpec(name="x", runs=(RunSpec(
        app="Miniaero", scale=0.1, seed=7, tracing=True),))
    smoke = CampaignDaemon._coerce(
        {"builtin": "smoke", "scale": 0.2, "seed": 5, "telemetry": True})
    assert smoke == smoke_campaign(scale=0.2, seed=5).with_overrides(
        telemetry=True)


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_http_post_rejects_bad_content_length(http_daemon, length):
    """A non-integer or negative Content-Length is a 400, not a dropped
    connection or a handler blocked reading to EOF."""
    _daemon, _server, url = http_daemon
    status, reply = _raw(
        url, f"POST /submit HTTP/1.1\nHost: x\nContent-Length: {length}\n\n")
    assert status.startswith(b"HTTP/1.1 400")
    assert "Content-Length" in reply["error"]


def test_http_shutdown_stops_server(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d")
    server = serve_http(daemon, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    reply = _request(f"http://{host}:{port}", "/shutdown", {})
    assert reply["state"] == "stopping"
    thread.join(timeout=10)
    assert not thread.is_alive()
    server.server_close()
    daemon.shutdown()
