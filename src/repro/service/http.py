"""Stdlib asyncio JSON-over-HTTP front-end for the scheduler.

A deliberately small HTTP/1.1 server (``asyncio.start_server`` + a
hand-rolled request parser) — no third-party web framework, matching the
repo's no-new-hard-deps rule.  Every response is JSON; connections are
``Connection: close`` (the API is poll-style, not streaming).

Routes::

    GET    /healthz            liveness + queue/job counts
    GET    /metrics            obs registry dump + service gauges
    POST   /jobs               submit a job (JobSpec JSON body)
    GET    /jobs               list job summaries
    GET    /jobs/<id>          full status, progress, front-so-far
    GET    /jobs/<id>/result   final result (409 until done)
    DELETE /jobs/<id>          cancel (checkpoint handoff)

Error mapping: malformed requests → 400, unknown jobs → 404, results
not ready / cancel of a finished job → 409, full queue → 429 with a
``Retry-After`` header (the backpressure contract).
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.errors import JobQueueFull, ServiceError, UnknownJob
from repro.service.jobs import JobSpec
from repro.service.scheduler import Scheduler

__all__ = ["ServiceHTTP"]

logger = logging.getLogger("repro.service")

_MAX_BODY = 1 << 20  # 1 MiB of JSON is far beyond any legal job spec
_MAX_HEADER = 64 * 1024


class _HttpError(Exception):
    """Internal: carries (status, message, headers) to the writer."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class ServiceHTTP:
    """The asyncio server wrapping one :class:`Scheduler`."""

    def __init__(self, scheduler: Scheduler, version: str = "") -> None:
        self.scheduler = scheduler
        self.version = version
        self._server: Optional[asyncio.AbstractServer] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, host=host, port=port
            )
        except (OverflowError, OSError) as exc:  # bad port, address in use
            raise ServiceError(f"cannot listen on {host}:{port}: {exc}") from None
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        logger.info("listening on http://%s:%d", self.host, self.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._respond(
                    writer, exc.status, {"error": exc.message}, exc.headers
                )
                return
            # Submit/cancel journal their record synchronously on the
            # loop: the write must be durable before the response is on
            # the wire, or an ack'd job could vanish in a crash.
            status, payload, headers = self._route(method, path, body)  # repro-lint: disable=ASY101 durability before response is the API contract
            await self._respond(writer, status, payload, headers)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Optional[dict]]:
        try:
            raw = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=10.0
            )
        except asyncio.IncompleteReadError as exc:
            raise _HttpError(400, "truncated request") from exc
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(413, "request header too large") from exc
        except asyncio.TimeoutError as exc:
            raise _HttpError(400, "request timed out") from exc
        if len(raw) > _MAX_HEADER:
            raise _HttpError(413, "request header too large")
        head, _, _ = raw.partition(b"\r\n")
        parts = head.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {head!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in raw.split(b"\r\n")[1:]:
            if not line:
                continue
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body: Optional[dict] = None
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError as exc:
                raise _HttpError(400, "bad Content-Length") from exc
            if n > _MAX_BODY:
                raise _HttpError(413, "request body too large")
            data = await reader.readexactly(n) if n else b""
            if data:
                try:
                    body = json.loads(data)
                except json.JSONDecodeError as exc:
                    raise _HttpError(
                        400, f"request body is not valid JSON ({exc})"
                    ) from exc
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def _route(
        self, method: str, path: str, body: Optional[dict]
    ) -> Tuple[int, Any, Dict[str, str]]:
        obs.count("service.http_requests")
        try:
            if path == "/healthz" and method == "GET":
                return 200, self._healthz(), {}
            if path == "/metrics" and method == "GET":
                return 200, self._metrics(), {}
            if path == "/jobs":
                if method == "POST":
                    return self._submit(body)
                if method == "GET":
                    return 200, {
                        "jobs": [
                            r.summary()
                            for r in self.scheduler.list_jobs()
                        ]
                    }, {}
                raise _HttpError(405, f"{method} not allowed on {path}")
            if path.startswith("/jobs/"):
                return self._job_route(method, path)
            raise _HttpError(404, f"no route for {path}")
        except _HttpError as exc:
            obs.count("service.http_errors")
            return exc.status, {"error": exc.message}, exc.headers
        except JobQueueFull as exc:
            obs.count("service.http_errors")
            return 429, {"error": str(exc)}, {
                "Retry-After": str(
                    max(1, int(self.scheduler.config.retry_after_s))
                )
            }
        except UnknownJob as exc:
            obs.count("service.http_errors")
            return 404, {"error": str(exc)}, {}
        except ServiceError as exc:
            obs.count("service.http_errors")
            return 400, {"error": str(exc)}, {}
        # The terminal 500 surface: anything unclassified must become a
        # response, never kill the connection handler.
        except Exception as exc:  # repro-lint: disable=DET201
            logger.exception("internal error handling %s %s", method, path)
            obs.count("service.http_errors")
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}

    def _submit(
        self, body: Optional[dict]
    ) -> Tuple[int, Any, Dict[str, str]]:
        if body is None:
            raise _HttpError(400, "POST /jobs needs a JSON body")
        spec = JobSpec.from_payload(body)
        record = self.scheduler.submit(spec)
        return 201, {"job": record.to_payload()}, {}

    def _job_route(
        self, method: str, path: str
    ) -> Tuple[int, Any, Dict[str, str]]:
        parts = path.strip("/").split("/")
        # parts[0] == "jobs"
        if len(parts) == 2:
            job_id = parts[1]
            if method == "GET":
                record = self.scheduler.get(job_id)
                return 200, {"job": record.to_payload()}, {}
            if method == "DELETE":
                record = self.scheduler.get(job_id)
                if record.is_terminal:
                    raise _HttpError(
                        409, f"job {job_id} is already {record.state}"
                    )
                record = self.scheduler.cancel(job_id)
                return 200, {"job": record.to_payload()}, {}
            raise _HttpError(405, f"{method} not allowed on {path}")
        if len(parts) == 3 and parts[2] == "result":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            record = self.scheduler.get(parts[1])
            if record.result is None:
                raise _HttpError(
                    409,
                    f"job {record.job_id} is {record.state}; no result "
                    f"yet",
                )
            return 200, {
                "id": record.job_id,
                "state": record.state,
                "result": record.result,
            }, {}
        raise _HttpError(404, f"no route for {path}")

    # ------------------------------------------------------------------ #
    # read-only endpoints
    # ------------------------------------------------------------------ #

    def _healthz(self) -> dict:
        return {
            "status": "draining" if self.scheduler.draining else "ok",
            "version": self.version,
            "queue": {
                "depth": len(self.scheduler.queue),
                "limit": self.scheduler.queue.limit,
            },
            "workers": self.scheduler.config.workers,
            "jobs": self.scheduler.counts(),
        }

    def _metrics(self) -> dict:
        return {
            "service": {
                "queue": {
                    "depth": len(self.scheduler.queue),
                    "limit": self.scheduler.queue.limit,
                },
                "jobs": self.scheduler.counts(),
                "cache": self.scheduler.shared_cache.stats(),
            },
            "metrics": obs.get_metrics().snapshot(),
        }
