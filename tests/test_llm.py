import base64
import http.server
import json
import os
import socket
import ssl
import threading
import time

import pytest
import requests

from icsr import llm
from icsr.cli import EXIT_NO_SEEDS, main
from icsr.llm import (
    API_KEY_ENV,
    MAX_TIMEOUT,
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
    {"max_new_tokens": 2.5},
    {"top_k": True},
    {"num_beams": "2"},
    {"temperature": "hot"},
    {"temperature": float("inf")},
    {"top_p": None},
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


@pytest.mark.parametrize("key,bad", [
    ("start", "a"), ("start", -0.5), ("end", float("nan")), ("end", True),
    ("total_iterations", 2.5), ("total_iterations", 0),
])
def test_schedule_rejects_badly_typed_fields(key, bad):
    with pytest.raises(ValueError, match=key):
        TemperatureSchedule(mode="linear", **{key: bad})


# ---------------------------------------------------------------------------
# Replay backend
# ---------------------------------------------------------------------------

def test_replay_returns_in_order_and_records_requests():
    backend = ReplayBackend(["f(x) = x", "f(x) = x^2"])
    replay, seen = backend.complete, []
    backend.complete = lambda request: seen.append(request) or replay(request)
    assert backend.remaining == 2
    first = backend.complete(_request())
    second = backend.complete(_request())
    assert isinstance(first, CompletionResponse)
    assert first.text == "f(x) = x"
    assert second.text == "f(x) = x^2"
    assert backend.remaining == 0
    assert len(seen) == 2
    assert seen[0].model == "test-model"


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
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = headers or {}

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


@pytest.mark.parametrize("session", [None, requests.Session()], ids=["own", "requests"])
def test_live_refuses_a_key_that_cannot_be_a_header_value(session):
    # requests would raise InvalidHeader, retried as a transport error, and
    # http.client a ValueError that holds the key
    with pytest.raises(ValueError, match=f"api_key \\({API_KEY_ENV}\\)") as caught:
        LiveBackend("http://host/v1", api_key="k\nX-Evil: 1", session=session)
    assert "X-Evil" not in str(caught.value)


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


def _retry_delays(outcomes, **kwargs):
    session = FakeSession([*outcomes, _ok("late")])
    delays = []
    backend = LiveBackend(
        "http://host", api_key="k", session=session,
        max_attempts=len(outcomes) + 1, backoff=0.5, sleep=delays.append, **kwargs,
    )
    assert backend.complete(_request()).text == "late"
    return delays


def test_live_waits_what_retry_after_asks():
    delays = _retry_delays([
        FakeResponse(429, headers={"Retry-After": "3"}),
        FakeResponse(503, headers={"Retry-After": "0"}),
        FakeResponse(429, headers={"Retry-After": " 1.5 "}),
        FakeResponse(500),  # back to the doubling schedule
    ])
    assert delays == [3.0, 0.0, 1.5, 4.0]


def test_live_retry_after_is_capped_at_timeout():
    delays = _retry_delays([FakeResponse(503, headers={"Retry-After": "3600"})],
                           timeout=7.5)
    assert delays == [7.5]


@pytest.mark.parametrize("backoff,max_attempts,expected", [
    (1e300, 3, [2.0] * 2),  # uncapped, more than a sleep can take
    (1.0, 40, [1.0] + [2.0] * 38),  # uncapped, 2^38 s before the last attempt
])
def test_live_doubling_backoff_is_capped_at_timeout(backoff, max_attempts, expected):
    session = FakeSession([requests.ConnectionError("down")] * max_attempts)
    delays = []
    backend = LiveBackend(
        "http://host", api_key="k", session=session, timeout=2.0,
        max_attempts=max_attempts, backoff=backoff, sleep=delays.append,
    )
    with pytest.raises(BackendError, match=f"after {max_attempts} attempts"):
        backend.complete(_request())
    assert delays == expected


@pytest.mark.parametrize("value", [
    "Wed, 21 Oct 2015 07:28:00 GMT", "soon", "", "-1", "nan", "inf", "1e999",
])
def test_live_unusable_retry_after_falls_back_to_backoff(value):
    delays = _retry_delays([FakeResponse(429, headers={"Retry-After": value}),
                            FakeResponse(503, headers={"Retry-After": value})])
    assert delays == [0.5, 1.0]


def test_live_retry_after_applies_only_to_429_and_503():
    delays = _retry_delays([FakeResponse(500, headers={"Retry-After": "9"}),
                            FakeResponse(502, headers={"Retry-After": "9"}),
                            requests.ConnectionError("down")])
    assert delays == [0.5, 1.0, 2.0]


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


@pytest.mark.parametrize("usage", ["abc", 5, [1, 2], ["ab"]],
                         ids=["string", "number", "list", "pairs"])
def test_live_usage_that_is_not_an_object_is_a_malformed_payload(usage):
    # ["ab"] is one dict() would take, as {"a": "b"}
    session = FakeSession([_ok(usage=usage)])
    backend = LiveBackend(
        "http://host", api_key="k", session=session, sleep=lambda _: None
    )
    with pytest.raises(BackendError, match="malformed completion payload"):
        backend.complete(_request())


@pytest.mark.parametrize("usage", [
    '{"total_tokens": NaN}',
    '{"total_tokens": Infinity}',
    '{"prompt_tokens": -Infinity}',
    '{"details": {"cached_tokens": NaN}}',
    '{"per_choice": [1, Infinity]}',
], ids=["nan", "inf", "minus_inf", "nested", "in_list"])
def test_live_usage_with_a_non_finite_number_is_a_malformed_payload(usage):
    # the run log is strict JSON, which has no NaN or Infinity; requests'
    # json() reads both
    session = FakeSession([_ok(usage=json.loads(usage))])
    backend = LiveBackend(
        "http://host", api_key="k", session=session, sleep=lambda _: None
    )
    with pytest.raises(BackendError, match="malformed completion payload"):
        backend.complete(_request())


def test_live_reply_nested_too_deep_is_a_malformed_payload():
    class Deep(FakeResponse):
        def json(self):
            raise RecursionError("maximum recursion depth exceeded")

    session = FakeSession([Deep(200)])
    backend = LiveBackend(
        "http://host", api_key="k", session=session, sleep=lambda _: None
    )
    with pytest.raises(BackendError, match="malformed completion payload: maximum recursion"):
        backend.complete(_request())
    assert len(session.requests) == 1


def test_live_non_string_content():
    session = FakeSession([
        FakeResponse(200, {"choices": [{"message": {"content": 5}}]})
    ])
    backend = LiveBackend(
        "http://host", api_key="k", session=session, sleep=lambda _: None
    )
    with pytest.raises(BackendError, match="not a string"):
        backend.complete(_request())


@pytest.mark.parametrize("key,value", [
    ("timeout", 0), ("timeout", MAX_TIMEOUT * 2), ("timeout", "1"),
    ("max_attempts", 0), ("max_attempts", 2.0), ("backoff", -1),
    ("include_sampling_extras", 1),
    ("endpoint", "h/v1"), ("endpoint", "ftp://h/v1"), ("endpoint", "http:///v1"),
    ("endpoint", "http://h:99999/v1"), ("endpoint", "http://h/v 1"),
    ("endpoint", "http://h/v1\n"), ("endpoint", 7),
])
def test_live_backend_checks_its_settings(key, value):
    with pytest.raises(ValueError, match=key):
        LiveBackend(**{"endpoint": "http://h/v1", "api_key": "k", key: value})


# ---------------------------------------------------------------------------
# Live backend on its own transport, against loopback servers
# ---------------------------------------------------------------------------

class _Handler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with its server's next reply, a function of the
    handler, after noting the request's target, headers and body."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen.append((self.path, self.headers, body))
        self.server.replies.pop(0)(self)

    def do_CONNECT(self):  # a proxy's tunnel, which the reply relays
        self.server.seen.append((self.path, self.headers, None))
        self.server.replies.pop(0)(self)

    def log_message(self, *args):
        pass


@pytest.fixture
def serve(monkeypatch):
    """serve(*replies, context=None) -> (endpoint URL, server) for a new
    server on 127.0.0.1, over TLS when given an SSL context; no proxy
    from the environment applies unless the test sets one."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    servers = []

    def start(*replies, context=None):
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        server.replies, server.seen = list(replies), []
        if context is not None:
            server.socket = context.wrap_socket(server.socket, server_side=True)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(server)
        scheme = "http" if context is None else "https"
        return f"{scheme}://127.0.0.1:{server.server_port}/v1", server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _completion(text="f(x) = x", usage=None):
    return {"choices": [{"message": {"content": text}}], "usage": usage or {"total_tokens": 7}}


def _reply(status, doc=None, body=None, headers=(), close=False):
    """A reply of status, headers and doc as JSON (or raw body bytes);
    with close, the server then closes the connection without saying so."""
    def send(handler):
        data = json.dumps(doc).encode() if body is None else body
        handler.send_response(status)
        for name, value in headers:
            handler.send_header(name, value)
        handler.send_header("Content-Length", str(len(data)))
        handler.end_headers()
        handler.wfile.write(data)
        handler.close_connection = close
    return send


def _relay(handler):
    """Accepts a CONNECT and relays bytes both ways until both sides close."""
    def pipe(src, dst):
        try:
            while data := src.recv(1 << 16):
                dst.sendall(data)
            dst.shutdown(socket.SHUT_WR)
        except OSError:  # the other side is gone
            pass

    host, port = handler.path.rsplit(":", 1)
    with socket.create_connection((host, int(port))) as upstream:
        handler.send_response(200)
        handler.end_headers()
        back = threading.Thread(target=pipe, args=(upstream, handler.connection))
        back.start()
        pipe(handler.connection, upstream)
        back.join()
    handler.close_connection = True


def test_own_transport_returns_text_and_usage(serve):
    url, server = serve(_reply(200, _completion("f(x) = 2*x", {"total_tokens": 11})))
    backend = LiveBackend(url + "/", api_key="k", sleep=lambda _: None)
    resp = backend.complete(_request(model="m1"))
    assert (resp.text, resp.usage) == ("f(x) = 2*x", {"total_tokens": 11})
    [(path, headers, body)] = server.seen
    assert path == "/v1/chat/completions"
    assert headers["Authorization"] == "Bearer k"
    assert headers["Content-Type"] == "application/json"
    assert body["model"] == "m1" and body["max_tokens"] == 512


def test_own_transport_waits_what_retry_after_asks(serve):
    url, server = serve(_reply(503, body=b"busy", headers=[("Retry-After", "0")]),
                        _reply(200, _completion("late")))
    delays = []
    backend = LiveBackend(url, api_key="k", sleep=delays.append)
    assert backend.complete(_request()).text == "late"
    assert delays == [0.0] and len(server.seen) == 2


def test_own_transport_gives_up_after_max_attempts(serve):
    url, server = serve(*[_reply(500, body=b"oops")] * 3)
    backend = LiveBackend(url, api_key="k", max_attempts=3, sleep=lambda _: None)
    with pytest.raises(BackendError, match=r"after 3 attempts \(HTTP 500\)"):
        backend.complete(_request())
    assert len(server.seen) == 3


@pytest.mark.parametrize("status", [400, 302])
def test_own_transport_fails_other_statuses_with_their_text(serve, status):
    # a redirect is not followed
    url, server = serve(_reply(status, body=b"no such model: m1",
                               headers=[("Location", "http://127.0.0.1:9/v1")]))
    backend = LiveBackend(url, api_key="k", sleep=lambda _: None)
    with pytest.raises(BackendError, match=f"HTTP {status}: no such model: m1"):
        backend.complete(_request())
    assert len(server.seen) == 1


_DEEP = b'{"choices": ' + b"[" * 100_000


@pytest.mark.parametrize("body", [json.dumps({"choices": []}).encode(), b"<html>",
                                  b"\xff\xfe{", _DEEP],
                         ids=["no_choices", "not_json", "not_utf8", "too_deep"])
def test_own_transport_malformed_payload(serve, body):
    url, _ = serve(_reply(200, body=body))
    backend = LiveBackend(url, api_key="k", sleep=lambda _: None)
    with pytest.raises(BackendError, match="malformed completion payload"):
        backend.complete(_request())


def test_run_on_a_reply_nested_too_deep_fails_its_call(serve, tmp_path, monkeypatch):
    url, server = serve(_reply(200, body=_DEEP))
    monkeypatch.setenv(API_KEY_ENV, "k")
    code = main(["run", "--benchmark", "nguyen1", "--backend", "live", "--endpoint", url,
                 "--ns", "1", "--iterations", "0", "--out", str(tmp_path / "out")])
    assert code == EXIT_NO_SEEDS
    assert len(server.seen) == 1
    assert "malformed completion payload" in (tmp_path / "out" / "runlog.jsonl").read_text()


def _raw(data):
    """A reply of raw bytes, after which the server closes the connection."""
    def send(handler):
        handler.wfile.write(data)
        handler.close_connection = True
    return send


@pytest.mark.parametrize("data", [
    b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\n" + b"".join(b"X-%d: 1\r\n" % i for i in range(101)) + b"\r\n",
], ids=["status", "headers"])
def test_own_transport_names_a_malformed_http_reply(serve, data):
    url, _ = serve(_raw(data))
    backend = LiveBackend(url, api_key="k", max_attempts=1)
    with pytest.raises(BackendError, match=r"\(transport error: malformed HTTP reply"):
        backend.complete(_request())


def test_own_transport_does_not_resend_on_a_fresh_connection(serve):
    # the server closes each connection unanswered; each was fresh, so
    # each attempt sends once and the backoff runs between them
    url, server = serve(*[_raw(b"")] * 3)
    delays = []
    backend = LiveBackend(url, api_key="k", max_attempts=3, backoff=0.5, sleep=delays.append)
    with pytest.raises(BackendError, match="after 3 attempts"):
        backend.complete(_request())
    assert len(server.seen) == 3 and delays == [0.5, 1.0]


def test_a_read_that_starts_past_its_deadline_fails_unread():
    ours, theirs = socket.socketpair()
    with ours, theirs:
        theirs.sendall(b"x")
        reader = llm._Deadline(ours, time.monotonic() - 1)
        with pytest.raises(TimeoutError):
            reader.readinto(bytearray(1))
        assert reader.got == 0 and ours.recv(1) == b"x"
        reader.close()


def test_own_transport_resends_on_a_kept_alive_connection_the_server_closed(serve):
    url, server = serve(_reply(200, _completion("one"), close=True),
                        _reply(200, _completion("two"), close=True))
    delays = []
    backend = LiveBackend(url, api_key="k", sleep=delays.append)
    assert backend.complete(_request()).text == "one"
    time.sleep(0.05)  # the server's close arrives
    assert backend.complete(_request()).text == "two"
    assert delays == [] and len(server.seen) == 2


def test_own_transport_reads_a_body_sent_after_a_closing_header(serve):
    # "Connection: close" makes http.client close the connection, and hand
    # its socket to the reply, before the body arrives
    def send(handler):
        body = json.dumps(_completion("closing")).encode()
        handler.send_response(200)
        handler.send_header("Connection", "close")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        time.sleep(0.05)
        handler.wfile.write(body)
        handler.close_connection = True

    url, _ = serve(send)
    assert LiveBackend(url, api_key="k", max_attempts=1).complete(_request()).text == "closing"


def test_own_transport_goes_through_the_environment_proxy(serve, monkeypatch):
    url, origin = serve(_reply(200, _completion("direct")))
    proxy_url, proxy = serve(_reply(200, _completion("proxied")))
    monkeypatch.setenv("HTTP_PROXY", proxy_url.replace("//", "//us%65r:p%40ss@")[:-len("/v1")])
    assert LiveBackend(url, api_key="k").complete(_request()).text == "proxied"
    [(target, headers, _)] = proxy.seen
    assert target == url + "/chat/completions"  # the absolute form
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()
    monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
    assert LiveBackend(url, api_key="k").complete(_request()).text == "direct"
    [(target, headers, _)] = origin.seen
    assert target == "/v1/chat/completions" and "Proxy-Authorization" not in headers
    assert len(proxy.seen) == 1


def _self_signed(tmp_path):
    """PEM files of a throwaway certificate for 127.0.0.1 and its key."""
    pytest.importorskip("cryptography")
    import datetime
    import ipaddress

    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (x509.CertificateBuilder().subject_name(name).issuer_name(name)
            .public_key(key.public_key()).serial_number(x509.random_serial_number())
            .not_valid_before(now - datetime.timedelta(days=1))
            .not_valid_after(now + datetime.timedelta(days=1))
            .add_extension(x509.SubjectAlternativeName(
                [x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), critical=False)
            .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
            # digital_signature and key_cert_sign, of KeyUsage's nine flags
            .add_extension(x509.KeyUsage(True, False, False, False, False, True, False, False,
                                         False), critical=True)
            .add_extension(x509.SubjectKeyIdentifier.from_public_key(key.public_key()),
                           critical=False)
            .sign(key, hashes.SHA256()))
    cert_path, key_path = tmp_path / "cert.pem", tmp_path / "key.pem"
    cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_path.write_bytes(key.private_bytes(serialization.Encoding.PEM,
                                           serialization.PrivateFormat.PKCS8,
                                           serialization.NoEncryption()))
    return cert_path, key_path


def test_own_transport_verifies_tls_against_the_default_trust_store(serve, tmp_path, monkeypatch):
    cert, key = _self_signed(tmp_path)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    url, server = serve(_reply(200, _completion("secure")), _reply(200, _completion("tunnelled")),
                        context=context)
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    with pytest.raises(BackendError, match="CERTIFICATE_VERIFY_FAILED"):
        LiveBackend(url, api_key="k", max_attempts=1).complete(_request())
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    assert LiveBackend(url, api_key="k").complete(_request()).text == "secure"
    # through a CONNECT tunnel, whose credentials go to the proxy only
    proxy_url, proxy = serve(_relay)
    monkeypatch.setenv("HTTPS_PROXY", proxy_url.replace("//", "//user:pw@")[:-len("/v1")])
    assert LiveBackend(url, api_key="k").complete(_request()).text == "tunnelled"
    [(target, headers, _)] = proxy.seen
    assert target == url.split("//")[1][:-len("/v1")]
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()
    assert [path for path, _, _ in server.seen] == ["/v1/chat/completions"] * 2
    assert "Proxy-Authorization" not in server.seen[1][1]


def _drip(where, pause):
    """A 200 reply whose headers or body come one byte per pause seconds,
    for 8 bytes, and then the rest at once, while the client still listens."""
    def send(handler):
        body = json.dumps(_completion("late")).encode()
        status = b"HTTP/1.1 200 OK\r\n"
        head = status + f"Content-Length: {len(body)}\r\n\r\n".encode()
        data, start = head + body, len(status if where == "headers" else head)
        try:
            handler.wfile.write(data[:start])
            for i in range(start, start + 8):
                time.sleep(pause)
                handler.wfile.write(data[i:i + 1])
            handler.wfile.write(data[start + 8:])
        except OSError:  # the client hung up
            handler.close_connection = True
    return send


# at 0.8 s a byte, a read that waited a whole timeout would end at 1.6 s
@pytest.mark.parametrize("where,pause", [("headers", 0.5), ("body", 0.5), ("body", 0.8)])
def test_own_transport_ends_a_dripped_reply_at_the_deadline(serve, where, pause):
    url, _ = serve(_drip(where, pause))
    backend = LiveBackend(url, api_key="k", timeout=1.0, max_attempts=1)
    start = time.monotonic()
    with pytest.raises(BackendError, match="no complete reply within 1 s"):
        backend.complete(_request())
    assert time.monotonic() - start < 1.5


def test_own_transport_reads_no_body_past_its_cap(serve, monkeypatch):
    # the server stalls after one byte past the cap: a client that read on
    # would wait out its 2 s deadline
    monkeypatch.setattr(llm, "MAX_REPLY_BYTES", 1000, raising=False)
    stall = threading.Event()

    def send(handler):
        handler.send_response(200)
        handler.send_header("Content-Length", "2000")
        handler.end_headers()
        handler.wfile.write(b" " * 1001)
        stall.wait(5)
        handler.close_connection = True

    url, _ = serve(send)
    backend = LiveBackend(url, api_key="k", timeout=2.0, max_attempts=1)
    start = time.monotonic()
    try:
        with pytest.raises(BackendError, match="reply body longer than 1000 bytes"):
            backend.complete(_request())
        assert time.monotonic() - start < 1.0
    finally:
        stall.set()


def test_no_backend_loads_requests(fresh_python, tmp_path):
    # a fresh interpreter: this module imports requests itself
    replay = tmp_path / "replay.json"
    replay.write_text('["f1(x) = c*x^3 + c*x"]', encoding="utf-8")
    argv = ["run", "--benchmark", "nguyen1", "--replay-file", str(replay),
            "--ns", "1", "--iterations", "0", "--out", str(tmp_path / "out")]
    out = fresh_python(
        "import contextlib, io, json, os, threading\n"
        "from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer\n"
        "from icsr.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, heavy())\n"
        "class Handler(BaseHTTPRequestHandler):\n"
        "    def do_POST(self):\n"
        "        self.rfile.read(int(self.headers['Content-Length']))\n"
        "        body = json.dumps({'choices': [{'message': {'content': 'f(x) = x'}}]}).encode()\n"
        "        self.send_response(200)\n"
        "        self.send_header('Content-Length', str(len(body)))\n"
        "        self.end_headers()\n"
        "        self.wfile.write(body)\n"
        "server = ThreadingHTTPServer(('127.0.0.1', 0), Handler)\n"
        "threading.Thread(target=server.serve_forever, daemon=True).start()\n"
        "for name in [n for n in os.environ if n.lower().endswith('_proxy')]:\n"
        "    del os.environ[name]\n"
        "from icsr.llm import CompletionRequest, LiveBackend, SamplingParams\n"
        "backend = LiveBackend(f'http://127.0.0.1:{server.server_port}/v1', api_key='k')\n"
        "print(backend.complete(CompletionRequest('m', (), SamplingParams())).text)\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'requests', 'urllib3'}))\n"
    )
    assert out.splitlines() == ["0 []", "f(x) = x", "[]"]
