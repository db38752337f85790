"""Campaign daemon tests: job lifecycle, dedup, admission, HTTP API."""

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
    daemon = CampaignDaemon(tmp_path / "d")
    try:
        ticket = daemon.submit(TINY, submitter="t")
        assert ticket["state"] == "queued" and not ticket["dedup"]
        assert _wait_done(daemon, ticket["job"]) == "done"

        status = daemon.status(ticket["job"])
        assert status["spec_hash"] == TINY.spec_hash
        assert status["progress"]["state"] == "done"

        result = daemon.result(ticket["job"])
        assert result["runs"] == 1 and result["failed"] == []
        assert result["report_text"].startswith("== campaign tiny ==")
        # Every artifact is content-addressed and retrievable.
        report_digest = result["artifacts"]["campaign_report.txt"]
        assert daemon.artifact(report_digest).decode() == (
            result["report_text"])

        stats = daemon.stats()
        assert stats["counters"]["completed"] == 1
        assert stats["runs_completed"] == 1
        assert stats["runs_per_sec"] > 0
    finally:
        daemon.shutdown()


def test_identical_submission_dedups_to_same_job(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d", autostart=False)
    first = daemon.submit(TINY, submitter="a")
    again = daemon.submit(TINY, submitter="b")  # other submitter, same spec
    assert again["dedup"] and again["job"] == first["job"]
    daemon.start()
    try:
        assert _wait_done(daemon, first["job"]) == "done"
        # Deduplicating against a *finished* job returns it immediately.
        done = daemon.submit(TINY, submitter="c")
        assert done["dedup"] and done["state"] == "done"
        assert daemon.stats()["counters"]["dedup_jobs"] == 2
    finally:
        daemon.shutdown()


def test_admission_control_quota_and_queue_bounds(tmp_path):
    daemon = CampaignDaemon(
        tmp_path / "d", autostart=False,
        max_queue=3, max_pending_per_submitter=2)
    base = smoke_campaign()
    daemon.submit(base.with_overrides(seed=1), submitter="a")
    daemon.submit(base.with_overrides(seed=2), submitter="a")
    with pytest.raises(AdmissionError) as exc:
        daemon.submit(base.with_overrides(seed=3), submitter="a")
    assert exc.value.code == 429

    daemon.submit(base.with_overrides(seed=3), submitter="b")
    with pytest.raises(AdmissionError) as exc:
        daemon.submit(base.with_overrides(seed=4), submitter="c")
    assert exc.value.code == 503
    counters = daemon.stats()["counters"]
    assert counters["rejected_429"] == 1
    assert counters["rejected_503"] == 1
    daemon.shutdown()  # cancels the queued-but-unstarted jobs


def test_shutdown_cancels_queued_jobs_and_refuses_submissions(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d", autostart=False)
    ticket = daemon.submit(TINY)
    daemon.start()
    daemon.shutdown()
    assert daemon.status(ticket["job"])["state"] in ("done", "cancelled")
    with pytest.raises(AdmissionError) as exc:
        daemon.submit(smoke_campaign())
    assert exc.value.code == 503


def test_result_of_unfinished_job_is_conflict(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d", autostart=False)
    ticket = daemon.submit(TINY)
    with pytest.raises(AdmissionError) as exc:
        daemon.result(ticket["job"])
    assert exc.value.code == 409
    with pytest.raises(KeyError):
        daemon.status("no-such-job")
    daemon.shutdown()


def test_artifact_store_dedups_across_jobs(tmp_path):
    """Two jobs with byte-identical artifacts share store objects."""
    daemon = CampaignDaemon(tmp_path / "d")
    try:
        a = daemon.submit(TINY, submitter="x")
        assert _wait_done(daemon, a["job"]) == "done"
        # A different campaign *name* forces a new job, but its report
        # content differs too -- so craft a second job whose spans of
        # artifacts overlap: resubmitting after completion dedups at job
        # level, so instead store the same report bytes directly.
        digest = daemon.result(a["job"])["artifacts"]["campaign_report.txt"]
        before = daemon.store.stats["dedup_hits"]
        assert daemon.store.put_bytes(daemon.artifact(digest)) == digest
        assert daemon.store.stats["dedup_hits"] == before + 1
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


@pytest.fixture
def http_daemon(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d")
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
    ticket = _request(url, "/submit", {
        "campaign": {"builtin": "smoke"}, "submitter": "http"})
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
        url + "/artifact?digest="
        + result["artifacts"]["campaign_report.txt"], timeout=30).read()
    assert blob.decode() == result["report_text"]
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
    """/artifact must 404 anything that is not a sha256 digest -- an
    absolute path or ../ sequence must never escape the store root."""
    from urllib.parse import quote

    _daemon, _server, url = http_daemon
    for bad in ("/etc/passwd", "../../../../etc/passwd",
                "..", "0" * 62 + "/x"):
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(
                url + "/artifact?digest=" + quote(bad, safe=""),
                timeout=30)
        assert exc.value.code == 404
    # A well-formed but unknown digest is also a plain 404.
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(
            url + "/artifact?digest=" + "0" * 64, timeout=30)
    assert exc.value.code == 404


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_http_post_rejects_bad_content_length(http_daemon, length):
    """A non-integer or negative Content-Length is a 400, not a dropped
    connection or a handler blocked reading to EOF."""
    _daemon, _server, url = http_daemon
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(
            f"POST /submit HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {length}\r\n\r\n".encode())
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400")
    assert "Content-Length" in json.loads(body)["error"]


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
