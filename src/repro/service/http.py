"""A hand-rolled HTTP/1.1 layer over asyncio streams (stdlib only).

Just enough of RFC 9112 for the service's API: request-line + headers
+ ``Content-Length`` bodies in, fixed-length JSON responses and
unbounded Server-Sent-Event streams out.  No chunked encoding, no
keep-alive (every response carries ``Connection: close``; clients are
scripted, not browsers with connection pools), and hard limits on
header count and body size so a misbehaving client cannot balloon the
process.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HttpError",
    "HttpRequest",
    "json_response",
    "read_request",
    "response_bytes",
    "sse_event",
    "sse_preamble",
]

#: request-line / single-header ceiling (bytes)
MAX_LINE = 16 * 1024
MAX_HEADERS = 64
MAX_BODY = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Parse/protocol failure that maps straight to a status code."""

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = status
        self.detail = detail


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body decoded as JSON (400 on garbage)."""
        if not self.body:
            raise HttpError(400, "request body is empty")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not JSON: {exc}")


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[HttpRequest]:
    """Parse one request off the stream; None on a clean EOF."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # client closed without sending anything
        raise HttpError(400, "truncated request line")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request line too long")
    if len(line) > MAX_LINE:
        raise HttpError(413, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "malformed request line")
    method, target, _version = parts
    split = urlsplit(target)
    path = unquote(split.path) or "/"
    query = dict(parse_qsl(split.query, keep_blank_values=True))

    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        try:
            raw = await reader.readuntil(b"\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise HttpError(400, "truncated headers")
        if len(raw) > MAX_LINE:
            raise HttpError(413, "header line too long")
        text = raw.decode("latin-1").strip()
        if not text:
            break
        if ":" not in text:
            raise HttpError(400, f"malformed header {text!r}")
        name, _, value = text.partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(413, "too many headers")

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length")
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        if length > MAX_BODY:
            raise HttpError(413, f"body exceeds {MAX_BODY} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated body")
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")
    return HttpRequest(
        method=method.upper(), path=path, query=query,
        headers=headers, body=body,
    )


def response_bytes(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialise one fixed-length response."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def json_response(
    status: int,
    payload: Any,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialise one JSON response (sorted keys: diffable in tests)."""
    body = (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode(
        "utf-8"
    )
    return response_bytes(status, body, extra_headers=extra_headers)


def sse_preamble() -> bytes:
    """Headers opening a Server-Sent-Events stream (no length; we
    stream until the terminal event, then close the connection)."""
    return (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/event-stream\r\n"
        b"Cache-Control: no-store\r\n"
        b"Connection: close\r\n"
        b"\r\n"
    )


def sse_event(data: Any, event: Optional[str] = None) -> bytes:
    """One SSE frame: optional event name + one JSON data line."""
    frame = ""
    if event is not None:
        frame += f"event: {event}\n"
    frame += f"data: {json.dumps(data, sort_keys=True)}\n\n"
    return frame.encode("utf-8")
