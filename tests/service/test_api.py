"""HTTP API contract tests: status codes, backpressure, error surfaces.

Everything here talks to the in-thread daemon over real sockets — the
raw-request tests use :mod:`http.client` directly so malformed inputs
reach the hand-rolled parser unmassaged.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.errors import JobQueueFull, ServiceError
from repro.service.jobs import JobState

from tests.service.conftest import SlowGuardFactory, explore_spec


def _raw(url, method, path, body=None, headers=None):
    """One raw HTTP exchange; returns (status, headers, parsed body)."""
    host = url.split("//", 1)[1]
    conn = http.client.HTTPConnection(host, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload, headers=headers or {})
        resp = conn.getresponse()
        raw = resp.read().decode()
        return resp.status, dict(resp.getheaders()), (
            json.loads(raw) if raw else None
        )
    finally:
        conn.close()


class TestHealthAndMetrics:
    def test_healthz_reports_queue_and_job_counts(
        self, make_service, client
    ):
        with make_service(workers=2, queue_limit=7) as (url, _app):
            c = client(url)
            health = c.healthz()
            assert health["status"] == "ok"
            assert health["queue"] == {"depth": 0, "limit": 7}
            assert health["workers"] == 2
            assert set(health["jobs"]) == set(JobState.ALL)
            job = c.submit(explore_spec(seed=3))
            c.wait(job["id"])
            assert c.healthz()["jobs"][JobState.DONE] == 1

    def test_metrics_exposes_service_section_and_obs_registry(
        self, make_service, client
    ):
        with make_service() as (url, _app):
            c = client(url)
            job = c.submit(explore_spec(seed=3))
            c.wait(job["id"])
            metrics = c.metrics()
        assert metrics["service"]["jobs"][JobState.DONE] == 1
        assert metrics["service"]["cache"]["entries"] > 0
        registry = metrics["metrics"]
        assert registry["service.jobs_submitted"]["value"] == 1
        assert registry["service.jobs_done"]["value"] == 1
        assert registry["fake.evals"]["value"] > 0


class TestBackpressure:
    def test_full_queue_returns_429_with_retry_after(self, make_service):
        """queue_limit pending jobs + busy workers → 429 and the
        advertised Retry-After, and the obs reject counter moves."""
        with make_service(
            workers=1, queue_limit=2, guard_factory=SlowGuardFactory()
        ) as (url, app):
            # one running + two queued fills the daemon
            accepted = [
                _raw(url, "POST", "/jobs", explore_spec(
                    seed=s, generations=6,
                ))
                for s in (3, 5, 7)
            ]
            assert [s for s, _, _ in accepted] == [201, 201, 201]
            status, headers, body = _raw(
                url, "POST", "/jobs", explore_spec(seed=9)
            )
            assert status == 429
            assert headers["Retry-After"] == "1"
            assert "queue is full" in body["error"]
            snapshot = app.scheduler.counts()
            assert snapshot[JobState.QUEUED] == 2

    def test_client_submit_surfaces_retry_after_hint(self, make_service):
        from repro.service.client import ServiceClient

        with make_service(
            workers=1, queue_limit=1, guard_factory=SlowGuardFactory()
        ) as (url, _app):
            c = ServiceClient(url)
            c.submit(explore_spec(seed=3, generations=6))
            c.submit(explore_spec(seed=5))
            with pytest.raises(JobQueueFull) as excinfo:
                c.submit(explore_spec(seed=7))
            assert excinfo.value.retry_after_s == 1.0

    def test_client_can_wait_out_backpressure(self, make_service):
        from repro.service.client import ServiceClient

        with make_service(
            workers=1, queue_limit=1, guard_factory=SlowGuardFactory()
        ) as (url, _app):
            c = ServiceClient(url)
            first = c.submit(explore_spec(seed=3, generations=2))
            second = c.submit(explore_spec(seed=5, generations=2))
            third = c.submit(
                explore_spec(seed=7, generations=2),
                honor_backpressure=True,
            )
            for job in (first, second, third):
                assert c.wait(job["id"], timeout_s=60.0)["state"] == (
                    JobState.DONE
                )


class TestErrorSurfaces:
    def test_unknown_job_is_404(self, make_service, client):
        with make_service() as (url, client_factory):
            status, _, body = _raw(url, "GET", "/jobs/job-999999")
            assert status == 404
            assert "unknown job" in body["error"]

    def test_unknown_route_is_404(self, make_service):
        with make_service() as (url, _app):
            status, _, _ = _raw(url, "GET", "/nope")
            assert status == 404

    def test_wrong_method_is_405(self, make_service):
        with make_service() as (url, _app):
            status, _, body = _raw(url, "DELETE", "/jobs")
            assert status == 405
            assert "not allowed" in body["error"]

    def test_submit_without_body_is_400(self, make_service):
        with make_service() as (url, _app):
            status, _, body = _raw(url, "POST", "/jobs")
            assert status == 400
            assert "JSON body" in body["error"]

    def test_submit_with_invalid_json_is_400(self, make_service):
        with make_service() as (url, _app):
            host = url.split("//", 1)[1]
            conn = http.client.HTTPConnection(host, timeout=30)
            try:
                conn.request("POST", "/jobs", body="{not json")
                resp = conn.getresponse()
                assert resp.status == 400
                assert "not valid JSON" in json.loads(resp.read())["error"]
            finally:
                conn.close()

    def test_submit_with_unknown_field_is_400(self, make_service):
        with make_service() as (url, _app):
            status, _, body = _raw(
                url, "POST", "/jobs", explore_spec(turbo=True)
            )
            assert status == 400
            assert "unknown job spec fields: turbo" in body["error"]

    @pytest.mark.parametrize("overrides, message", [
        ({"population": 3}, "population must be >= 4"),
        ({"generations": 0}, "generations must be >= 1"),
    ])
    def test_submit_with_ga_budget_nsga2_rejects_is_400(
        self, make_service, overrides, message
    ):
        with make_service() as (url, _app):
            status, _, body = _raw(
                url, "POST", "/jobs", explore_spec(**overrides)
            )
            assert status == 400
            assert message in body["error"]

    def test_submit_with_negative_processes_is_400(self, make_service):
        # The CLI's check: both surfaces report the same message.
        with make_service() as (url, _app):
            status, _, body = _raw(
                url, "POST", "/jobs", explore_spec(processes=-1)
            )
            assert status == 400
            assert body["error"] == "processes must be >= 0, got -1"

    def test_submit_with_bad_design_is_400_for_real_guard(self, tmp_path):
        from repro.service.app import ServiceApp, ServiceThread

        app = ServiceApp(tmp_path / "state")  # real DesignGuardFactory
        with ServiceThread(app) as url:
            status, _, body = _raw(
                url, "POST", "/jobs", explore_spec(design="notachip")
            )
            assert status == 400
            assert "unknown design" in body["error"]

    def test_result_before_done_is_409(self, make_service, client):
        with make_service(
            workers=1, guard_factory=SlowGuardFactory()
        ) as (url, client_factory):
            c = client(url)
            job = c.submit(explore_spec(seed=3, generations=5))
            status, _, body = _raw(
                url, "GET", f"/jobs/{job['id']}/result"
            )
            assert status == 409
            assert "no result yet" in body["error"]
            c.wait(job["id"], timeout_s=60.0)
            status, _, body = _raw(
                url, "GET", f"/jobs/{job['id']}/result"
            )
            assert status == 200

    def test_cancel_finished_job_is_409(self, make_service, client):
        with make_service() as (url, _app):
            c = client(url)
            job = c.submit(explore_spec(seed=3))
            c.wait(job["id"])
            status, _, body = _raw(url, "DELETE", f"/jobs/{job['id']}")
            assert status == 409
            assert "already done" in body["error"]

    def test_resume_from_unknown_checkpoint_is_400(
        self, make_service, client
    ):
        with make_service() as (url, _app):
            status, _, body = _raw(
                url, "POST", "/jobs",
                explore_spec(seed=3, resume_from="job-424242"),
            )
            assert status == 400
            assert "no checkpoint" in body["error"]

    def test_malformed_request_line_is_400(self, make_service):
        import socket as socketlib

        with make_service() as (url, _app):
            host, port = url.split("//", 1)[1].split(":")
            with socketlib.create_connection(
                (host, int(port)), timeout=10
            ) as sock:
                sock.sendall(b"GARBAGE\r\n\r\n")
                data = sock.recv(4096).decode()
            assert data.startswith("HTTP/1.1 400 ")

    def test_draining_daemon_rejects_submissions(
        self, make_service, client
    ):
        with make_service() as (url, app):
            c = client(url)
            app.scheduler.draining = True
            with pytest.raises(ServiceError, match="draining"):
                c.submit(explore_spec(seed=3))
            app.scheduler.draining = False


def _throttled_factory(eval_sleep_s=0.05):
    """Fake guards slow enough that a job stays in flight for seconds."""
    factory = SlowGuardFactory()
    factory.eval_sleep_s = eval_sleep_s
    return factory


class TestResumeFromHandoff:
    """A ``resume_from`` job writes into its source's checkpoint
    directory, so submit refuses any source that would give that
    directory a second writer or a foreign payload."""

    def test_running_source_is_400(self, make_service, client):
        with make_service(guard_factory=_throttled_factory()) as (
            url, app,
        ):
            c = client(url)
            job = c.submit(explore_spec(seed=3, generations=50))
            ckpt = app.scheduler.store.checkpoint_dir(job["id"])
            deadline = time.monotonic() + 30.0
            while not ckpt.exists():
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.005)
            status, _, body = _raw(
                url, "POST", "/jobs",
                explore_spec(seed=3, generations=50, resume_from=job["id"]),
            )
            assert status == 400
            assert "still running" in body["error"]
            c.cancel(job["id"])
            assert c.wait(job["id"])["state"] == JobState.CANCELLED

    def test_second_continuation_is_400(self, make_service, client):
        with make_service(
            workers=1, guard_factory=_throttled_factory()
        ) as (url, _app):
            c = client(url)
            source = c.submit(explore_spec(seed=3))
            c.wait(source["id"])
            # the blocker holds the only slot, so the first continuation
            # stays queued while the second one is submitted
            blocker = c.submit(explore_spec(seed=5, generations=50))
            first = c.submit(explore_spec(seed=3, resume_from=source["id"]))
            status, _, body = _raw(
                url, "POST", "/jobs",
                explore_spec(seed=3, resume_from=source["id"]),
            )
            assert status == 400
            assert f"job {first['id']} already continues" in body["error"]
            c.cancel(blocker["id"])
            assert c.wait(first["id"])["state"] == JobState.DONE

    def test_different_kind_is_400(self, make_service, client):
        with make_service() as (url, _app):
            c = client(url)
            attack = c.submit({
                "kind": "attack", "design": "fakechip",
                "attempts": 2, "grid": "ci",
            })
            assert c.wait(attack["id"])["state"] == JobState.DONE
            status, _, body = _raw(
                url, "POST", "/jobs",
                explore_spec(seed=3, resume_from=attack["id"]),
            )
            assert status == 400
            assert "of kind 'attack', not 'explore'" in body["error"]
