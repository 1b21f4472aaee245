"""The service itself: routes, streaming, signals, lifecycle.

:class:`CampaignService` wires a :class:`~repro.service.scheduler.
Scheduler` to the hand-rolled HTTP layer on ``asyncio.start_server``.
Endpoints:

=======  =======================  ==========================================
Method   Path                     Meaning
=======  =======================  ==========================================
POST     ``/jobs``                submit one job payload (JSON)
GET      ``/jobs``                list all known jobs (summaries)
GET      ``/jobs/<id>``           one job; ``?wait=S`` long-polls until
                                  terminal (capped at ``max_wait_s``)
GET      ``/jobs/<id>/events``    SSE stream of status transitions; closes
                                  after the terminal event
GET      ``/healthz``             liveness: 200 once the socket is up
GET      ``/readyz``              readiness: 503 while draining or while
                                  every worker's heartbeat is flat
GET      ``/stats``               counters, queue depth, worker + watchdog
                                  snapshots, cache occupancy
POST     ``/drain``               begin a graceful drain (what SIGTERM does)
=======  =======================  ==========================================

Admission errors map to transport codes: 400 for an invalid payload,
403 for a disabled probe, 429 + ``Retry-After`` when the bounded queue
sheds, 503 + ``Retry-After`` while draining.

``kill -9`` safety is inherited from the layers below (journal lines
and cache writes are flushed per transition); this module adds the
*graceful* path: SIGTERM/SIGINT stop admission, finish in-flight jobs,
flush, then exit.
"""

from __future__ import annotations

import asyncio
import os
import signal
from typing import Optional

from ..errors import ConfigError, ReproError
from .config import ServiceConfig
from .http import (
    HttpError,
    HttpRequest,
    json_response,
    read_request,
    sse_event,
    sse_preamble,
)
from .scheduler import DrainingError, QueueFullError, Scheduler
from .state import TERMINAL_STATUSES, write_announce

__all__ = ["CampaignService", "serve"]


class CampaignService:
    """One service instance: scheduler + HTTP front end."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        os.makedirs(config.data_dir, exist_ok=True)
        self.scheduler = Scheduler(config)
        self._server: Optional[asyncio.AbstractServer] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._watchdog_task: Optional[asyncio.Task] = None
        self._stopped = asyncio.Event()
        self.port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Recover, boot the fleet, bind, announce."""
        self.scheduler.cache.migrate()  # warm pre-shard caches just work
        self.scheduler.pool.start()
        self.scheduler.recover()
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.create_task(self.scheduler.pump())
        self._watchdog_task = asyncio.create_task(self.scheduler.watchdog())
        write_announce(
            self.config.announce_path,
            {
                "host": self.config.host,
                "port": self.port,
                "pid": os.getpid(),
                "data_dir": self.config.data_dir,
            },
        )

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def drain_and_stop(self, timeout_s: Optional[float] = None) -> None:
        """The graceful exit: SIGTERM semantics as a coroutine."""
        if self.scheduler.draining:
            return
        await self.scheduler.drain(timeout_s=timeout_s)
        await self.stop()

    async def stop(self) -> None:
        """Tear everything down (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in (self._pump_task, self._watchdog_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        self._pump_task = self._watchdog_task = None
        self.scheduler.shutdown()
        try:
            os.unlink(self.config.announce_path)
        except OSError:
            pass
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    # -- connection handling -------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                writer.write(
                    json_response(exc.status, {"error": exc.detail})
                )
                await writer.drain()
                return
            if request is None:
                return
            await self._route(request, writer)
        except (ConnectionError, asyncio.CancelledError):
            # A client that hangs up mid-response (or mid-SSE-stream)
            # costs exactly its own connection.
            self.scheduler.stats_counters["streams_closed"] += 1
        except Exception as exc:  # never let one request kill the loop
            try:
                writer.write(
                    json_response(500, {"error": f"internal error: {exc}"})
                )
                await writer.drain()
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _route(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            writer.write(json_response(200, {"status": "alive"}))
        elif path == "/readyz" and method == "GET":
            writer.write(self._readyz())
        elif path == "/stats" and method == "GET":
            writer.write(json_response(200, self.scheduler.stats()))
        elif path == "/jobs" and method == "POST":
            writer.write(self._submit(request))
        elif path == "/jobs" and method == "GET":
            writer.write(self._list_jobs())
        elif path == "/drain" and method == "POST":
            asyncio.get_running_loop().create_task(self.drain_and_stop())
            writer.write(json_response(202, {"status": "draining"}))
        elif path.startswith("/jobs/") and method == "GET":
            await self._job_get(request, writer)
            return  # may have streamed; drained inside
        else:
            writer.write(
                json_response(404, {"error": f"no route {method} {path}"})
            )
        await writer.drain()

    # -- handlers ------------------------------------------------------------
    def _readyz(self) -> bytes:
        stalled = self.scheduler.stalled_workers
        all_stalled = (
            len(stalled) >= self.config.workers and self.config.workers > 0
        )
        if self.scheduler.draining or all_stalled:
            reason = "draining" if self.scheduler.draining else "stalled"
            return json_response(
                503,
                {"status": "unavailable", "reason": reason,
                 "stalled_workers": stalled},
                extra_headers={"Retry-After": "30"},
            )
        return json_response(200, {"status": "ready"})

    def _submit(self, request: HttpRequest) -> bytes:
        try:
            payload = request.json()
        except HttpError as exc:
            return json_response(exc.status, {"error": exc.detail})
        try:
            verdict = self.scheduler.submit(payload)
        except DrainingError as exc:
            return json_response(
                503, {"error": str(exc)},
                extra_headers={"Retry-After": str(exc.retry_after_s)},
            )
        except QueueFullError as exc:
            return json_response(
                429, {"error": str(exc), "shed": True},
                extra_headers={"Retry-After": str(exc.retry_after_s)},
            )
        except ConfigError as exc:
            status = 403 if "probe jobs are disabled" in str(exc) else 400
            return json_response(status, {"error": str(exc)})
        except ReproError as exc:
            return json_response(400, {"error": str(exc)})
        verdict["location"] = f"/jobs/{verdict['job_id']}"
        return json_response(202, verdict)

    def _list_jobs(self) -> bytes:
        return json_response(
            200,
            {
                "jobs": [
                    entry.to_dict(include_result=False)
                    for _, entry in sorted(self.scheduler.jobs.items())
                ]
            },
        )

    async def _job_get(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        parts = request.path.strip("/").split("/")
        # "/jobs/<id>" or "/jobs/<id>/events"
        job_id = parts[1] if len(parts) >= 2 else ""
        entry = self.scheduler.jobs.get(job_id)
        if entry is None:
            writer.write(
                json_response(404, {"error": f"unknown job {job_id!r}"})
            )
            await writer.drain()
            return
        if len(parts) == 3 and parts[2] == "events":
            await self._stream_events(entry, writer)
            return
        if len(parts) != 2:
            writer.write(json_response(404, {"error": "no such resource"}))
            await writer.drain()
            return
        wait_s = 0.0
        if "wait" in request.query:
            try:
                wait_s = float(request.query["wait"])
            except ValueError:
                writer.write(
                    json_response(400, {"error": "wait must be a number"})
                )
                await writer.drain()
                return
        wait_s = max(0.0, min(wait_s, self.config.max_wait_s))
        if wait_s:
            await entry.wait_terminal(wait_s)
        writer.write(json_response(200, entry.to_dict()))
        await writer.drain()

    async def _stream_events(self, entry, writer: asyncio.StreamWriter) -> None:
        """SSE: current status immediately, then every transition."""
        queue: asyncio.Queue = asyncio.Queue()
        entry.subscribers.append(queue)
        self.scheduler.stats_counters["streams_opened"] += 1
        try:
            writer.write(sse_preamble())
            first = entry.to_dict()
            writer.write(
                sse_event(
                    first, event="result" if entry.terminal else "status"
                )
            )
            await writer.drain()
            while not entry.terminal:
                event = await queue.get()
                terminal = event.get("status") in TERMINAL_STATUSES
                writer.write(
                    sse_event(event, event="result" if terminal else "status")
                )
                await writer.drain()
                if terminal:
                    break
        finally:
            if queue in entry.subscribers:
                entry.subscribers.remove(queue)
            self.scheduler.stats_counters["streams_closed"] += 1


async def _serve_async(config: ServiceConfig, ready_line: bool = True) -> int:
    service = CampaignService(config)
    await service.start()
    loop = asyncio.get_running_loop()

    def _graceful(signame: str) -> None:
        # Second signal escalates to immediate stop.
        if service.scheduler.draining:
            loop.create_task(service.stop())
        else:
            loop.create_task(service.drain_and_stop())

    for signame in ("SIGTERM", "SIGINT"):
        try:
            loop.add_signal_handler(
                getattr(signal, signame), _graceful, signame
            )
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    if ready_line:
        print(
            f"campaign service listening on {service.url} "
            f"(data: {config.data_dir})",
            flush=True,
        )
    await service.wait_stopped()
    return 0


def serve(config: ServiceConfig) -> int:
    """Blocking entry point for ``python -m repro serve``."""
    return asyncio.run(_serve_async(config))
