import pytest
import requests

from icsr.llm import (
    API_KEY_ENV,
    BackendError,
    CompletionRequest,
    CompletionResponse,
    LiveBackend,
    MissingAPIKeyError,
    ReplayBackend,
    ReplayExhaustedError,
    SamplingParams,
    TemperatureSchedule,
)


def _request(**overrides):
    params = overrides.pop("params", SamplingParams())
    return CompletionRequest(
        model=overrides.pop("model", "test-model"),
        messages=overrides.pop("messages", ({"role": "user", "content": "hi"},)),
        params=params,
    )


# ---------------------------------------------------------------------------
# Sampling parameters and schedule
# ---------------------------------------------------------------------------

def test_sampling_defaults():
    p = SamplingParams()
    assert p.temperature == 1.0
    assert p.top_p == 0.9
    assert p.top_k == 60
    assert p.num_beams == 1
    assert p.max_new_tokens == 512


@pytest.mark.parametrize("kwargs", [
    {"temperature": -0.1},
    {"top_p": 0.0},
    {"top_p": 1.5},
    {"top_k": 0},
    {"num_beams": 0},
    {"max_new_tokens": 0},
])
def test_sampling_validation(kwargs):
    with pytest.raises(ValueError):
        SamplingParams(**kwargs)


def test_schedule_constant():
    s = TemperatureSchedule(mode="constant", start=0.8)
    assert s.temperature_at(0) == 0.8
    assert s.temperature_at(49) == 0.8


def test_schedule_linear_ramp():
    s = TemperatureSchedule(mode="linear", start=1.0, end=0.5, total_iterations=50)
    assert s.temperature_at(0) == pytest.approx(1.0)
    assert s.temperature_at(49) == pytest.approx(0.5)
    mid = s.temperature_at(24)
    assert 0.5 < mid < 1.0
    # monotone in between
    temps = [s.temperature_at(i) for i in range(50)]
    assert all(a >= b for a, b in zip(temps, temps[1:]))


def test_schedule_clamps_out_of_range_iterations():
    s = TemperatureSchedule(mode="linear", start=1.0, end=0.2, total_iterations=10)
    assert s.temperature_at(-5) == pytest.approx(1.0)
    assert s.temperature_at(99) == pytest.approx(0.2)


def test_schedule_single_iteration():
    s = TemperatureSchedule(mode="linear", start=0.7, end=0.1, total_iterations=1)
    assert s.temperature_at(0) == 0.7


def test_schedule_rejects_unknown_mode():
    with pytest.raises(ValueError):
        TemperatureSchedule(mode="cosine")


# ---------------------------------------------------------------------------
# Replay backend
# ---------------------------------------------------------------------------

def test_replay_returns_in_order_and_records_requests():
    backend = ReplayBackend(["f(x) = x", "f(x) = x^2"])
    assert backend.remaining == 2
    first = backend.complete(_request())
    second = backend.complete(_request())
    assert isinstance(first, CompletionResponse)
    assert first.text == "f(x) = x"
    assert second.text == "f(x) = x^2"
    assert backend.remaining == 0
    assert len(backend.calls) == 2
    assert backend.calls[0].model == "test-model"


def test_replay_exhaustion_raises():
    backend = ReplayBackend(["only one"])
    backend.complete(_request())
    with pytest.raises(ReplayExhaustedError):
        backend.complete(_request())
    assert issubclass(ReplayExhaustedError, BackendError)


def test_replay_rejects_non_string_entries():
    with pytest.raises(ValueError):
        ReplayBackend(["ok", 42])


# ---------------------------------------------------------------------------
# Live backend
# ---------------------------------------------------------------------------

class FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append(
            {"url": url, "json": json, "headers": headers, "timeout": timeout}
        )
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _ok(text="f(x) = x", usage=None):
    return FakeResponse(200, {
        "choices": [{"message": {"content": text}}],
        "usage": usage or {"total_tokens": 7},
    })


def test_live_requires_api_key(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    with pytest.raises(MissingAPIKeyError):
        LiveBackend("http://host/v1")


def test_live_reads_key_from_environment(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sekrit")
    session = FakeSession([_ok()])
    backend = LiveBackend("http://host/v1/", session=session, sleep=lambda _: None)
    backend.complete(_request())
    headers = session.requests[0]["headers"]
    assert headers["Authorization"] == "Bearer sekrit"


def test_live_posts_expected_body():
    session = FakeSession([_ok("f(x) = 2*x", usage={"total_tokens": 11})])
    backend = LiveBackend(
        "http://host/v1/", api_key="k", session=session, sleep=lambda _: None
    )
    params = SamplingParams(temperature=0.65, top_p=0.9, max_new_tokens=512)
    resp = backend.complete(_request(params=params, model="m1"))
    assert resp.text == "f(x) = 2*x"
    assert resp.usage == {"total_tokens": 11}
    req = session.requests[0]
    assert req["url"] == "http://host/v1/chat/completions"
    body = req["json"]
    assert body["model"] == "m1"
    assert body["temperature"] == 0.65
    assert body["top_p"] == 0.9
    assert body["max_tokens"] == 512
    # strict servers reject unknown fields, so these stay off the wire
    assert "top_k" not in body and "num_beams" not in body
    assert body["messages"][0]["role"] == "user"


def test_live_sampling_extras_are_opt_in():
    session = FakeSession([_ok()])
    backend = LiveBackend(
        "http://host", api_key="k", session=session,
        include_sampling_extras=True, sleep=lambda _: None,
    )
    backend.complete(_request())
    body = session.requests[0]["json"]
    assert body["top_k"] == 60
    assert body["num_beams"] == 1


def test_live_retries_rate_limit_with_doubling_backoff():
    session = FakeSession([FakeResponse(429), FakeResponse(503), _ok("late")])
    delays = []
    backend = LiveBackend(
        "http://host", api_key="k", session=session,
        max_attempts=3, backoff=0.5, sleep=delays.append,
    )
    resp = backend.complete(_request())
    assert resp.text == "late"
    assert len(session.requests) == 3
    assert delays == [0.5, 1.0]


def test_live_retries_transport_errors():
    session = FakeSession([requests.ConnectionError("down"), _ok("recovered")])
    backend = LiveBackend(
        "http://host", api_key="k", session=session, sleep=lambda _: None
    )
    assert backend.complete(_request()).text == "recovered"


def test_live_gives_up_after_max_attempts():
    session = FakeSession([FakeResponse(500)] * 3)
    backend = LiveBackend(
        "http://host", api_key="k", session=session,
        max_attempts=3, sleep=lambda _: None,
    )
    with pytest.raises(BackendError, match="after 3 attempts"):
        backend.complete(_request())
    assert len(session.requests) == 3


def test_live_client_errors_fail_immediately():
    session = FakeSession([FakeResponse(400, text="bad request")])
    backend = LiveBackend(
        "http://host", api_key="k", session=session, sleep=lambda _: None
    )
    with pytest.raises(BackendError, match="HTTP 400"):
        backend.complete(_request())
    assert len(session.requests) == 1


def test_live_malformed_payload():
    session = FakeSession([FakeResponse(200, {"choices": []})])
    backend = LiveBackend(
        "http://host", api_key="k", session=session, sleep=lambda _: None
    )
    with pytest.raises(BackendError, match="malformed"):
        backend.complete(_request())


def test_live_non_string_content():
    session = FakeSession([
        FakeResponse(200, {"choices": [{"message": {"content": 5}}]})
    ])
    backend = LiveBackend(
        "http://host", api_key="k", session=session, sleep=lambda _: None
    )
    with pytest.raises(BackendError, match="not a string"):
        backend.complete(_request())
