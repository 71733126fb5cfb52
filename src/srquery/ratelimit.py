"""The one HTTP transport of the network clients, and its request pacing.

``request_json`` serves both the chat backend and Entrez esearch on the
standard library: every attempt takes a ``RateLimiter`` slot and reports its
answer back to the limiter, so a sequential caller waits one interval after
each answer before its next request is sent; 429 and 5xx gateway statuses are
retried with exponential backoff, or after the wait a delay-seconds
``Retry-After`` asks for (RFC 9110 §10.2.3), and every failed request surfaces
as one ``HttpError`` type.  ``check_settings`` is the one range rule of what
they spend (timeout, backoff, attempts, rate) and of the waits built from
them, and NaN is in no range.

The HTTP stack (``urllib.request``, which brings ``http.client``, ``ssl``
and ``email``) is imported inside ``request_json``, so a run that never
sends a request -- a mock backend with the local index -- never loads it.
``pipeline.AppConfig`` imports it up front for a configuration that will send
requests, so that its cost falls in setup rather than in the first
request.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from typing import Callable, Optional

from .collections import json_object
from .errors import ServiceError

__all__ = ["RateLimiter", "HttpError", "check_settings", "request_json"]

RETRYABLE = frozenset({429, 500, 502, 503, 504})
MAX_WAIT = threading.TIMEOUT_MAX  # seconds: the longest that time.sleep and a socket take


def check_settings(timeout: float = 1.0, backoff_base: float = 0.0, http_attempts: int = 1,
                   rate_limit: Optional[float] = None, temperature: float = 0.0, *,
                   cap: float = sys.float_info.max) -> None:
    """The one range rule: ``ValueError`` names the first setting passed out
    of range.  No wait built from them passes ``MAX_WAIT``: neither the
    backoff before the last try, ``backoff_base * 2**(http_attempts - 2)``,
    nor a limiter's interval, ``1 / rate_limit``.  ``temperature`` takes the
    chat-completions range."""
    for name, ok, need in (
            ("timeout", 0 < timeout <= MAX_WAIT, f"> 0 and <= {MAX_WAIT}"),
            ("backoff_base", 0 <= backoff_base <= MAX_WAIT, f">= 0 and <= {MAX_WAIT}"),
            ("http_attempts", 1 <= http_attempts, ">= 1"),
            # ldexp scales MAX_WAIT down, so a huge http_attempts builds no huge power.
            ("backoff_base", 1 <= http_attempts and backoff_base <= math.ldexp(
                MAX_WAIT, 2 - http_attempts), f"<= {MAX_WAIT} / 2**(http_attempts - 2)"),
            ("rate_limit", rate_limit is None or 0 < rate_limit <= cap, f"> 0 and <= {cap}"),
            ("rate_limit", rate_limit is None or 1 / MAX_WAIT <= rate_limit, f">= 1/{MAX_WAIT}"),
            ("temperature", 0 <= temperature <= 2, ">= 0 and <= 2")):
        if not ok:
            raise ValueError(f"{name} must be {need}")


class HttpError(ServiceError):
    """A failed request: ``status`` is the last HTTP status, or 0 when the
    connection failed or timed out."""

    def __init__(self, status: int, detail: str = ""):
        super().__init__(f"HTTP {status}{': ' + detail if detail else ''}")
        self.status = status


class RateLimiter:
    """Spaces request grants at least 1/rate seconds apart, shared across
    threads.  ``acquire`` blocks until the caller's slot and returns the
    slot's monotonic time; no two slots are ever closer than the interval,
    so granted traffic cannot exceed the configured requests/second.

    ``done`` marks a request answered and pushes the next slot to at least
    one interval after that moment.  A request sent late after its grant
    therefore still reaches the server one interval after the request
    before it: a sequential caller's requests arrive at least 1/rate apart."""

    def __init__(self, rate: float):
        check_settings(rate_limit=rate)
        self.interval = 1.0 / rate
        self._lock = threading.Lock()
        self._next_allowed = 0.0

    def acquire(self) -> float:
        with self._lock:
            now = time.monotonic()
            slot = max(now, self._next_allowed)
            self._next_allowed = slot + self.interval
        wait = slot - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        return slot

    def done(self) -> None:
        with self._lock:
            self._next_allowed = max(self._next_allowed, time.monotonic() + self.interval)


def request_json(url: str, *, timeout: float, payload=None, headers: Optional[dict] = None,
                 attempts: int = 3, backoff: float = 0.5, limiter: Optional[RateLimiter] = None,
                 sleep: Callable[[float], None] = time.sleep):
    """GET ``url``, or POST ``payload`` as JSON, and return the JSON object
    of the body.  Retryable statuses get up to ``attempts`` tries, waiting
    ``backoff * 2**(n-1)`` before try n+1, or the response's delay-seconds
    ``Retry-After`` (an HTTP-date or a malformed value falls back to the
    backoff).  A ``Retry-After`` longer than ``timeout``, any other status,
    a body that is not a JSON object, a connection failure or a timeout
    raises ``HttpError`` at once."""
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, headers=headers or {})
    if payload is not None:
        request.data = json.dumps(payload).encode("utf-8")
        request.add_header("Content-Type", "application/json")
    status, retry_after = 0, None
    for attempt in range(attempts):
        if attempt:
            sleep(backoff * 2 ** (attempt - 1) if retry_after is None else retry_after)
        if limiter is not None:
            limiter.acquire()
        try:
            try:
                with urllib.request.urlopen(request, timeout=timeout) as resp:
                    status, body = resp.status, resp.read()
                try:
                    return json_object(body)
                except ValueError as e:
                    raise HttpError(status, f"body {body[:80]!r}: {e}") from None
            except urllib.error.HTTPError as e:
                with e:
                    status, detail = e.code, e.read(200).decode("utf-8", "replace")
                    hint = (e.headers.get("Retry-After") or "").strip()
                    # int() refuses more than 4,300 digits; 20 digits exceed any timeout.
                    retry_after = ((int(hint) if len(hint) < 20 else float("inf"))
                                   if hint.isascii() and hint.isdigit() else None)
        except (OSError, http.client.HTTPException) as e:
            raise HttpError(0, str(getattr(e, "reason", e))) from e
        finally:
            if limiter is not None:
                limiter.done()
        if status not in RETRYABLE:
            raise HttpError(status, detail)
        if retry_after is not None and retry_after > timeout:
            raise HttpError(status, f"Retry-After {retry_after} s exceeds the timeout")
    raise HttpError(status, "retries exhausted")
