"""Chat-completion backends: a live OpenAI-style HTTP client and a
deterministic replay client for tests and offline runs."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import requests

API_KEY_ENV = "ICSR_API_KEY"


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
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.num_beams < 1:
            raise ValueError("num_beams must be >= 1")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")


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
        if self.total_iterations < 1:
            raise ValueError("total_iterations must be >= 1")

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
    script runs dry.  Requests are recorded for inspection."""

    def __init__(self, responses):
        self.responses = list(responses)
        for i, r in enumerate(self.responses):
            if not isinstance(r, str):
                raise ValueError(f"replay script entry {i} is not a string")
        self.cursor = 0
        self.calls: list[CompletionRequest] = []

    @property
    def remaining(self) -> int:
        return len(self.responses) - self.cursor

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        self.calls.append(request)
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
    backoff (max_attempts total tries); anything else, or running out of
    attempts, raises BackendError.  top_k and num_beams are only put on
    the wire when include_sampling_extras is set, because strict servers
    reject unknown fields.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: Optional[str] = None,
        timeout: float = 120.0,
        max_attempts: int = 3,
        backoff: float = 1.0,
        include_sampling_extras: bool = False,
        session: Optional[requests.Session] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if api_key is None:
            api_key = os.environ.get(API_KEY_ENV)
        if not api_key:
            raise MissingAPIKeyError(
                f"live backend needs an API key; set {API_KEY_ENV}"
            )
        self.endpoint = endpoint.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.include_sampling_extras = include_sampling_extras
        self.session = session if session is not None else requests.Session()
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
        url = f"{self.endpoint}/chat/completions"
        headers = {
            "Authorization": f"Bearer {self.api_key}",
            "Content-Type": "application/json",
        }
        body = self._body(request)
        delay = self.backoff
        last_error = "no attempt made"
        for attempt in range(self.max_attempts):
            if attempt > 0:
                self.sleep(delay)
                delay *= 2
            start = time.monotonic()
            try:
                resp = self.session.post(url, json=body, headers=headers, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
                continue
            latency = time.monotonic() - start
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = f"HTTP {resp.status_code}"
                continue
            if resp.status_code != 200:
                raise BackendError(f"HTTP {resp.status_code}: {resp.text[:500]}")
            try:
                payload = resp.json()
                text = payload["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"malformed completion payload: {exc}") from exc
            if not isinstance(text, str):
                raise BackendError("completion content is not a string")
            usage = payload.get("usage") or {}
            return CompletionResponse(text=text, usage=dict(usage), latency=latency)
        raise BackendError(
            f"completion failed after {self.max_attempts} attempts ({last_error})"
        )
