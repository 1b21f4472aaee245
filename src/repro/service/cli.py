"""Argument wiring for ``repro serve`` / ``repro submit`` (kept here so
:mod:`repro.__main__` stays a table of thin delegations)."""

from __future__ import annotations

import json
import os
import sys

from ..errors import IntegrationError
from .client import ServiceClient, ServiceHTTPError
from .config import ServiceConfig

__all__ = [
    "add_serve_arguments",
    "add_submit_arguments",
    "run_serve",
    "run_submit",
]


def add_serve_arguments(parser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: 0 = pick a free one; the "
                             "bound port is published in DATA_DIR/service.json)")
    parser.add_argument("--data-dir", default="service-data", metavar="DIR",
                        help="journal + cache + announce file root")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache root (default: DATA_DIR/cache; "
                             "point it at a sweep cache to share results)")
    parser.add_argument("--workers", type=int, default=2,
                        help="simulation worker processes (default: 2)")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="admitted-but-not-running bound; beyond it "
                             "submissions are shed with 429 (default: 64)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        metavar="SECONDS", dest="timeout_s",
                        help="per-attempt job deadline (default: 300)")
    parser.add_argument("--max-attempts", type=int, default=2,
                        help="attempts per hung/crashed job (default: 2)")
    parser.add_argument("--allow-probe", action="store_true",
                        help="admit diagnostic probe jobs (chaos drills "
                             "and smoke benchmarks only)")


def run_serve(args) -> int:
    from .server import serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        cache_dir=args.cache_dir,
        workers=args.workers,
        max_queue=args.max_queue,
        timeout_s=args.timeout_s,
        max_attempts=args.max_attempts,
        allow_probe=args.allow_probe,
    )
    return serve(config)


def add_submit_arguments(parser) -> None:
    parser.add_argument("payload",
                        help="job payload: inline JSON, @file.json, or "
                             "'-' for stdin")
    parser.add_argument("--host", default=None,
                        help="service host (default: from --data-dir's "
                             "announce file)")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--data-dir", default="service-data", metavar="DIR",
                        help="read host/port from DIR/service.json when "
                             "--host/--port are not given")
    parser.add_argument("--wait", type=float, default=None, metavar="SECONDS",
                        help="block until the job is terminal (long-polling)")
    parser.add_argument("--follow", action="store_true",
                        help="stream the job's SSE feed until terminal")


def _resolve_endpoint(args) -> tuple:
    if args.host is not None and args.port is not None:
        return args.host, args.port
    announce_path = os.path.join(args.data_dir, "service.json")
    try:
        with open(announce_path) as handle:
            announce = json.load(handle)
    except (OSError, ValueError):
        raise IntegrationError(
            f"no --host/--port and no announce file at {announce_path} "
            "(is the service running?)"
        )
    return (
        args.host if args.host is not None else announce["host"],
        args.port if args.port is not None else announce["port"],
    )


def _load_payload(spec: str):
    if spec == "-":
        raw = sys.stdin.read()
    elif spec.startswith("@"):
        with open(spec[1:]) as handle:
            raw = handle.read()
    else:
        raw = spec
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise IntegrationError(f"payload is not JSON: {exc}")


def run_submit(args) -> int:
    host, port = _resolve_endpoint(args)
    client = ServiceClient(host, port)
    payload = _load_payload(args.payload)
    try:
        verdict = client.submit(payload)
    except ServiceHTTPError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        if exc.retry_after_s is not None:
            print(f"retry after {exc.retry_after_s}s", file=sys.stderr)
        return 1
    job_id = verdict["job_id"]
    if args.follow:
        for frame in client.events(job_id):
            print(json.dumps(frame, sort_keys=True), flush=True)
        return 0
    if args.wait is not None:
        state = client.wait(job_id, timeout_s=args.wait)
        print(json.dumps(state, indent=1, sort_keys=True))
        return 0 if state.get("status") == "done" else 1
    print(json.dumps(verdict, indent=1, sort_keys=True))
    return 0
