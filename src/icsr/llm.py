"""Chat-completion backends: a live OpenAI-style HTTP client and a
deterministic replay client for tests and offline runs."""

from __future__ import annotations

import io
import json
import math
import os
import time
import urllib.parse
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional

from .validate import integer, of_type, real

API_KEY_ENV = "ICSR_API_KEY"
# Upper bounds on a config's backend timeout (seconds) and attempts, far
# past any real need: a socket timeout or a sleep near 1e10 s overflows,
# and each retry may sleep up to timeout.
MAX_TIMEOUT = 86_400.0
MAX_ATTEMPTS = 100
# Upper bounds on the sampling counts and a schedule's length, far past any
# real use, so a config cannot put an absurd count on the wire.  A
# schedule is read for at most the engine's 10,000 loop iterations.
MAX_TOP_K = 1_000_000
MAX_BEAMS = 1_000
MAX_NEW_TOKENS = 10_000_000
MAX_SCHEDULE_ITERATIONS = 10_000
# The most body bytes LiveBackend's own transport reads of one reply: 64
# MiB, 6.7 bytes for each of MAX_NEW_TOKENS tokens, whose text takes about
# 4 bytes a token.  A longer body fails the call.
MAX_REPLY_BYTES = 64 << 20


def _split_url(url: str, schemes):
    """url's parts if it is a URL of one of schemes with a host and a valid
    port, in printable ASCII without spaces, as an HTTP request line takes
    it; else None."""
    try:
        parts = urllib.parse.urlsplit(url)
        parts.port  # a port that is not a number in [0, 65535] raises
    except ValueError:
        return None
    if (parts.scheme in schemes and parts.hostname and url.isascii() and url.isprintable()
            and " " not in url):
        return parts


def _endpoint(obj, key: str):
    of_type(obj, key, str, "a string")
    url = getattr(obj, key)
    if not _split_url(url, ("http", "https")):
        raise ValueError(f"{key} must be an http or https URL with a host, in printable "
                         f"ASCII without spaces, got {url!r}")


# LiveBackend's settings, each with its check; the CLI's backend section
# checks the same keys with this table
LIVE_SETTINGS = {
    "endpoint": _endpoint,
    "timeout": lambda o, k: real(o, k, lambda v: 0 < v <= MAX_TIMEOUT,
                                 f"a number in (0, {MAX_TIMEOUT:g}]"),
    "max_attempts": lambda o, k: integer(o, k, 1, MAX_ATTEMPTS),
    "backoff": lambda o, k: real(o, k, lambda v: v >= 0, "a finite number >= 0"),
    "include_sampling_extras": lambda o, k: of_type(o, k, bool, "true or false"),
}


class BackendError(RuntimeError):
    """A completion call failed after exhausting whatever retries apply."""


class ReplayExhaustedError(BackendError):
    """The replay script ran out of responses; the run asked for more
    calls than the script covers."""


class MissingAPIKeyError(BackendError):
    """Live backend constructed without an API key in the environment."""


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = 1.0
    top_p: float = 0.9
    top_k: int = 60
    num_beams: int = 1
    max_new_tokens: int = 512

    def __post_init__(self):
        real(self, "temperature", lambda v: v >= 0, "a finite number >= 0")
        real(self, "top_p", lambda v: 0 < v <= 1, "a number in (0, 1]")
        for key, high in (("top_k", MAX_TOP_K), ("num_beams", MAX_BEAMS),
                          ("max_new_tokens", MAX_NEW_TOKENS)):
            integer(self, key, 1, high)


@dataclass(frozen=True)
class TemperatureSchedule:
    """Temperature over loop iterations: constant, or a linear ramp from
    start to end across total_iterations steps."""

    mode: str = "constant"
    start: float = 1.0
    end: float = 1.0
    total_iterations: int = 50

    def __post_init__(self):
        if self.mode not in ("constant", "linear"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        for key in ("start", "end"):
            real(self, key, lambda v: v >= 0, "a finite number >= 0")
        integer(self, "total_iterations", 1, MAX_SCHEDULE_ITERATIONS)

    def temperature_at(self, iteration: int) -> float:
        if self.mode == "constant" or self.total_iterations == 1:
            return self.start
        it = min(max(iteration, 0), self.total_iterations - 1)
        frac = it / (self.total_iterations - 1)
        return self.start + (self.end - self.start) * frac


@dataclass(frozen=True)
class CompletionRequest:
    model: str
    messages: tuple
    params: SamplingParams


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    usage: dict = field(default_factory=dict)
    latency: float = 0.0


class ReplayBackend:
    """Returns scripted responses in order and fails loudly when the
    script runs dry."""

    def __init__(self, responses):
        self.responses = list(responses)
        for i, r in enumerate(self.responses):
            if not isinstance(r, str):
                raise ValueError(f"replay script entry {i} is not a string")
        self.cursor = 0

    @property
    def remaining(self) -> int:
        return len(self.responses) - self.cursor

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        if self.cursor >= len(self.responses):
            raise ReplayExhaustedError(
                f"replay script exhausted after {len(self.responses)} responses"
            )
        text = self.responses[self.cursor]
        self.cursor += 1
        return CompletionResponse(text=text, usage={}, latency=0.0)


class LiveBackend:
    """POSTs to an OpenAI-compatible /chat/completions endpoint.

    Transport errors, 429s, and 5xx responses are retried with doubling
    backoff (max_attempts total tries); a 429 or 503 whose Retry-After
    header is a number of seconds waits that long instead.  Either wait
    is capped at timeout.  Anything else, or running out of attempts,
    raises BackendError.  top_k and num_beams are only put on the wire
    when include_sampling_extras is set, because strict servers reject
    unknown fields.  session is anything with requests.Session's post;
    by default a _Transport, on which each attempt must end within
    timeout.  The key, the settings and any proxy are checked here.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: Optional[str] = None,
        timeout: float = 120.0,
        max_attempts: int = 3,
        backoff: float = 1.0,
        include_sampling_extras: bool = False,
        session=None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.include_sampling_extras = include_sampling_extras
        for key, check in LIVE_SETTINGS.items():
            check(self, key)
        if api_key is None:
            api_key = os.environ.get(API_KEY_ENV)
        if not api_key:
            raise MissingAPIKeyError(
                f"live backend needs an API key; set {API_KEY_ENV}"
            )
        if not (api_key.isascii() and api_key.isprintable()):  # a header value; never echoed
            raise ValueError(f"api_key ({API_KEY_ENV}) must be printable ASCII")
        self.url = endpoint.rstrip("/") + "/chat/completions"
        self.headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        self.session = _Transport(self.url, timeout) if session is None else session
        self.sleep = sleep

    def _body(self, request: CompletionRequest) -> dict:
        p = request.params
        body = {
            "model": request.model,
            "messages": list(request.messages),
            "temperature": p.temperature,
            "top_p": p.top_p,
            "max_tokens": p.max_new_tokens,
        }
        if self.include_sampling_extras:
            body["top_k"] = p.top_k
            body["num_beams"] = p.num_beams
        return body

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        body = self._body(request)
        delay = self.backoff
        last_error = "no attempt made"
        for attempt in range(self.max_attempts):
            if attempt > 0:
                self.sleep(min(delay, self.timeout) if wait is None else wait)
                delay *= 2
            wait = None  # the server's Retry-After, if this attempt gets one
            start = time.monotonic()
            try:
                resp = self.session.post(self.url, json=body, headers=self.headers, timeout=self.timeout)
            except OSError as exc:  # requests.RequestException is one too
                last_error = f"transport error: {exc}"
                continue
            latency = time.monotonic() - start
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = f"HTTP {resp.status_code}"
                if resp.status_code in (429, 503):
                    wait = _retry_after(resp, self.timeout)
                continue
            if resp.status_code != 200:
                raise BackendError(f"HTTP {resp.status_code}: {resp.text[:500]}")
            try:
                payload = resp.json()
                text = payload["choices"][0]["message"]["content"]
                usage = payload.get("usage") or {}
                if not isinstance(usage, dict):
                    raise TypeError("usage is not a JSON object")
                json.dumps(usage, allow_nan=False)  # the run log is strict JSON
            except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
                raise BackendError(f"malformed completion payload: {exc}") from exc
            if not isinstance(text, str):
                raise BackendError("completion content is not a string")
            return CompletionResponse(text=text, usage=usage, latency=latency)
        raise BackendError(
            f"completion failed after {self.max_attempts} attempts ({last_error})"
        )


def _retry_after(resp, cap: float) -> Optional[float]:
    """The seconds resp's Retry-After header asks for, capped at cap, or
    None when it is missing, an HTTP-date or not a finite number >= 0."""
    try:
        seconds = float(resp.headers.get("Retry-After", ""))
    except ValueError:
        return None
    return min(seconds, cap) if 0 <= seconds < math.inf else None


class _Deadline(io.RawIOBase):
    """A reply's socket file, as http.client reads it: every read ends by
    one deadline, and got counts the bytes read.  It reads through a file
    of sock, which keeps sock open if http.client closes the connection
    before the body is read."""

    def __init__(self, sock, deadline: float):
        self.sock, self.file = sock, sock.makefile("rb", buffering=0)
        self.deadline, self.got = deadline, 0

    def makefile(self, mode):
        return io.BufferedReader(self)

    def readable(self):
        return True

    def close(self):
        self.file.close()
        super().close()

    def readinto(self, buffer):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError
        self.sock.settimeout(left)
        got = self.file.readinto(buffer)
        self.got += got
        return got


class _Transport:
    """LiveBackend's session when it is given none: one keep-alive
    connection for POSTs to url, closed after any error and reopened by
    the next request.  It goes to url's host, or to the proxy the
    environment names for it, which gets absolute-form targets for http
    and a CONNECT tunnel for https.  A user and password in the proxy URL
    go to the proxy as Basic Proxy-Authorization, as requests sends them.
    A reply must end within timeout of its request and have at most
    MAX_REPLY_BYTES of body; a failed post raises OSError."""

    conn = None  # __del__ runs even when __init__ raises
    dumps, loads = staticmethod(json.dumps), staticmethod(json.loads)  # post's json hides json

    def __init__(self, url: str, timeout: float):
        import base64
        import http.client
        import ssl
        import urllib.request
        parts = urllib.parse.urlsplit(url)
        tls = parts.scheme == "https"
        host, port = parts.hostname, parts.port or (443 if tls else 80)
        self.target, self.extra, tunnel = urllib.parse.urlunsplit(("", "", *parts[2:4], "")), {}, None
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and not urllib.request.proxy_bypass(host):
            p, auth = _split_url(proxy if "://" in proxy else "http://" + proxy, ("http",)), {}
            if p is None:  # the URL is not echoed: it may hold a password
                raise ValueError(f"the environment's {parts.scheme} proxy must be an http URL "
                                 "with a host and a valid port, in printable ASCII without spaces")
            if p.username is not None:
                pair = f"{urllib.parse.unquote(p.username)}:{urllib.parse.unquote(p.password or '')}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(pair.encode()).decode()
            if tls:
                tunnel = (host, port, auth)
            else:
                self.target, self.extra = url, auth
            host, port = p.hostname, p.port or 80
        if tls:
            self.conn = http.client.HTTPSConnection(host, port, timeout=timeout,
                                                    context=ssl.create_default_context())
        else:
            self.conn = http.client.HTTPConnection(host, port, timeout=timeout)
        if tunnel:
            self.conn.set_tunnel(*tunnel)

    def __del__(self):  # a backend that is dropped leaves no socket open
        if self.conn is not None:
            self.conn.close()

    def post(self, url, json, headers, timeout):
        import http.client
        data = self.dumps(json, allow_nan=False).encode()
        try:
            for resend in (False, True):
                reused = self.conn.sock is not None  # else request() connects anew
                if reused:
                    self.conn.sock.settimeout(timeout)  # the last reply's reader shortened it
                deadline, readers = time.monotonic() + timeout, []

                def reply(sock, method=None):  # a tunnel's CONNECT reply comes here too
                    readers.append(_Deadline(sock, deadline))
                    return http.client.HTTPResponse(readers[-1], method=method)

                self.conn.response_class = reply
                try:
                    self.conn.request("POST", self.target, data, {**headers, **self.extra})
                    resp = self.conn.getresponse()
                except (BrokenPipeError, ConnectionResetError):
                    if resend or not reused or any(r.got for r in readers):
                        raise
                    self.conn.close()  # a kept-alive connection closed unseen: once more on a new one
                    continue
                body = bytearray()
                while chunk := resp.read(min(1 << 16, MAX_REPLY_BYTES + 1 - len(body))):
                    body += chunk
                    if len(body) > MAX_REPLY_BYTES:
                        raise BackendError(f"reply body longer than {MAX_REPLY_BYTES} bytes")
                return SimpleNamespace(status_code=resp.status, headers=resp.headers,
                                       text=body.decode("utf-8", "replace"),
                                       json=lambda: self.loads(body))
        except BaseException as exc:
            self.conn.close()
            if isinstance(exc, TimeoutError):
                raise TimeoutError(f"no complete reply within {timeout:g} s") from exc
            if isinstance(exc, http.client.HTTPException) and not isinstance(exc, OSError):
                raise OSError(f"malformed HTTP reply: {exc!r}") from exc
            raise
