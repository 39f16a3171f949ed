"""Chaos suite for the service: injected faults and a killed daemon.

Reuses :mod:`repro.resilience.faults` — the in-thread daemon shares the
test process, so an installed plan reaches the job's evaluations
directly.  Every scenario asserts the *exact* resilience counters and
that the recovered front stays bitwise equal to the direct run: chaos
changes survival, never numbers.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import ServiceError
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.supervisor import SupervisionConfig
from repro.service.client import ServiceClient
from repro.service.jobs import JobState

from tests.service.conftest import direct_front, explore_spec

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestInjectedFaults:
    def test_worker_crash_during_served_job(self, make_service, client):
        """A forked evaluation worker dies abruptly mid-generation; the
        supervisor replaces it and the job still lands on the direct
        run's exact front."""
        faults.install(FaultPlan([
            FaultSpec(generation=1, kind="crash", individual=2, attempt=0),
        ]))
        with make_service(workers=1) as (url, _app):
            c = client(url)
            job = c.submit(explore_spec(seed=3, processes=2))
            record = c.wait(job["id"], timeout_s=120.0)
            assert record["state"] == JobState.DONE
            result = c.result(job["id"])
        faults.clear()  # the oracle below must run chaos-free
        assert [s for s, _ in record["history"]] == [
            JobState.QUEUED, JobState.RUNNING, JobState.DONE,
        ]
        assert record["resilience"] == {
            "retries": 1,
            "worker_deaths": 1,
            "timeouts": 0,
            "task_failures": 0,
            "degraded": False,
        }
        assert result["front"] == direct_front(seed=3)

    def test_worker_hang_trips_timeout_during_served_job(
        self, make_service, client
    ):
        """A hung evaluation worker is killed at the supervision timeout
        and its task re-dispatched — one timeout, one retry, same
        front."""
        faults.install(FaultPlan([
            FaultSpec(
                generation=1, kind="hang", individual=2, attempt=0,
                hang_s=30.0,
            ),
        ]))
        supervision = SupervisionConfig(
            timeout_s=0.3, backoff_s=0.0, poll_s=0.01
        )
        with make_service(
            workers=1, supervision=supervision
        ) as (url, _app):
            c = client(url)
            job = c.submit(explore_spec(seed=3, processes=2))
            record = c.wait(job["id"], timeout_s=120.0)
            assert record["state"] == JobState.DONE
            result = c.result(job["id"])
        faults.clear()  # the oracle below must run chaos-free
        assert record["resilience"] == {
            "retries": 1,
            "worker_deaths": 0,
            "timeouts": 1,
            "task_failures": 0,
            "degraded": False,
        }
        assert result["front"] == direct_front(seed=3)

    def test_interrupt_fault_drives_job_through_retrying_to_done(
        self, make_service, client
    ):
        """An interrupt at the gen-1 boundary escapes the explorer as a
        library error → the scheduler retries the job from its durable
        checkpoint; a flow-error in gen 2 then exercises the in-job
        retry on the *resumed* attempt.  The state trail and counters
        are exact, and the front is still bitwise."""
        faults.install(FaultPlan([
            FaultSpec(generation=1, kind="interrupt"),
            FaultSpec(
                generation=2, kind="flow-error", individual=0, attempt=0,
            ),
        ]))
        with make_service(workers=1) as (url, _app):
            c = client(url)
            job = c.submit(explore_spec(seed=3))
            record = c.wait(job["id"], timeout_s=120.0)
            assert record["state"] == JobState.DONE
            result = c.result(job["id"])
        faults.clear()  # the oracle below must run chaos-free
        assert [s for s, _ in record["history"]] == [
            JobState.QUEUED,
            JobState.RUNNING,
            JobState.RETRYING,
            JobState.RUNNING,
            JobState.DONE,
        ]
        assert record["attempts"] == 2
        assert record["resilience"] == {
            "retries": 1,
            "worker_deaths": 0,
            "timeouts": 0,
            "task_failures": 1,
            "degraded": False,
        }
        # the retry resumed from the gen-1 checkpoint, not from scratch
        assert result["resumed_from"] == 1
        assert result["front"] == direct_front(seed=3)

    def test_job_fails_after_exhausting_job_level_retries(
        self, make_service, client
    ):
        """Interrupts at *every* boundary keep killing the job; after
        ``max_job_retries`` it lands in ``failed`` with the error."""
        faults.install(FaultPlan([
            FaultSpec(generation=g, kind="interrupt") for g in range(4)
        ]))
        with make_service(workers=1, max_job_retries=1) as (url, _app):
            c = client(url)
            job = c.submit(explore_spec(seed=3))
            record = c.wait(job["id"], timeout_s=120.0)
        assert record["state"] == JobState.FAILED
        assert record["attempts"] == 2
        assert "injected interrupt" in record["error"]


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _spawn_daemon(port, state_dir, resume=False, log=None,
                  eval_sleep_s=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if eval_sleep_s is not None:
        # throttle the fake guard so a signal sent "mid-exploration"
        # reliably lands while the job is still running (the fake
        # stall-terminates after a handful of millisecond generations)
        env["REPRO_FAKE_EVAL_SLEEP_S"] = str(eval_sleep_s)
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--guard", "fake",
        "--host", "127.0.0.1",
        "--port", str(port),
        "--state-dir", str(state_dir),
        "--workers", "1",
    ]
    if resume:
        cmd.append("--resume")
    return subprocess.Popen(
        cmd, env=env, cwd=REPO_ROOT,
        stdout=log or subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def _wait_reachable(client, timeout_s=20.0):
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return client.healthz()
        except ServiceError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


class TestKilledDaemon:
    def test_sigkilled_daemon_resumed_finishes_all_jobs_bitwise(
        self, tmp_path
    ):
        """SIGKILL the daemon with one job mid-exploration and two more
        queued; a restart with ``--resume`` must finish all three with
        fronts bitwise identical to uninterrupted direct runs."""
        port = _free_port()
        state_dir = tmp_path / "state"
        log_path = tmp_path / "daemon.log"
        specs = [
            explore_spec(seed=3, generations=120),
            explore_spec(seed=5, generations=30),
            explore_spec(seed=7, generations=30),
        ]
        with open(log_path, "w") as log:
            daemon = _spawn_daemon(
                port, state_dir, log=log, eval_sleep_s=0.01
            )
            try:
                c = ServiceClient(f"http://127.0.0.1:{port}")
                _wait_reachable(c)
                jobs = [c.submit(s) for s in specs]
                # let the first job make real progress, then pull the plug
                deadline = time.monotonic() + 60.0
                while True:
                    progress = c.job(jobs[0]["id"])["progress"]
                    if progress.get("generation", -1) >= 5:
                        break
                    assert time.monotonic() < deadline, (
                        f"daemon never progressed: {log_path.read_text()}"
                    )
                    time.sleep(0.02)
            finally:
                daemon.kill()
                daemon.wait(timeout=30)

            revived = _spawn_daemon(port, state_dir, resume=True, log=log)
            try:
                c = ServiceClient(f"http://127.0.0.1:{port}")
                _wait_reachable(c)
                records = [
                    c.wait(j["id"], timeout_s=300.0) for j in jobs
                ]
                assert [r["state"] for r in records] == [
                    JobState.DONE
                ] * 3, log_path.read_text()
                results = [c.result(j["id"]) for j in jobs]
                # The killed job really did continue from its checkpoint
                # (progress posts only once the generation's checkpoint
                # is durable, so it holds at least the generation seen).
                assert results[0]["resumed_from"] is not None
                assert results[0]["resumed_from"] >= 5
            finally:
                revived.send_signal(signal.SIGTERM)
                try:
                    revived.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    revived.kill()
                    revived.wait(timeout=30)

        for spec, result in zip(specs, results):
            assert result["front"] == direct_front(
                seed=spec["seed"], generations=spec["generations"]
            ), f"seed {spec['seed']} diverged after daemon kill/resume"

    def test_sigterm_drains_and_journals_interrupted_job(
        self, tmp_path
    ):
        """Graceful SIGTERM: the running job checkpoints at its next
        boundary and is journaled ``interrupted`` for a later resume."""
        port = _free_port()
        state_dir = tmp_path / "state"
        log_path = tmp_path / "daemon.log"
        with open(log_path, "w") as log:
            daemon = _spawn_daemon(
                port, state_dir, log=log, eval_sleep_s=0.01
            )
            try:
                c = ServiceClient(f"http://127.0.0.1:{port}")
                _wait_reachable(c)
                job = c.submit(explore_spec(seed=3, generations=200))
                deadline = time.monotonic() + 60.0
                while True:
                    progress = c.job(job["id"])["progress"]
                    if progress.get("generation", -1) >= 2:
                        break
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                daemon.send_signal(signal.SIGTERM)
                daemon.wait(timeout=60)
            finally:
                if daemon.poll() is None:
                    daemon.kill()
                    daemon.wait(timeout=30)
        journal = json.loads(
            (state_dir / "jobs" / f"{job['id']}.json").read_text()
        )
        assert journal["state"] == JobState.INTERRUPTED
        assert journal["progress"]["cancelled_after_generation"] >= 2
        assert daemon.returncode == 0
