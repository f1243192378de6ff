import base64
import json
import math
import os
import re
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from ensattack import client, nn, oracle, server
from ensattack.errors import CapabilityError, ProtocolError, TransportError


@pytest.fixture(scope="module")
def soft_pair():
    model = util.tiny_model(40, 2)
    with server.serve(model, mode="soft") as handle:
        yield model, handle


@pytest.fixture
def connect():
    """client.connect, with every handle it opened closed when the test ends."""
    opened = []

    def connect(*args, **kwargs):
        orc = client.connect(*args, **kwargs)
        opened.append(orc)
        return orc
    yield connect
    for orc in opened:
        orc.close()


def _predict_body(image):
    image = np.ascontiguousarray(image, dtype="<f4")
    return {"shape": list(image.shape),
            "pixels": base64.b64encode(image.tobytes()).decode("ascii")}


def test_meta_handshake(soft_pair, connect):
    model, handle = soft_pair
    orc = connect(handle.url)
    assert orc.num_classes == model.num_classes
    assert orc.mode == "soft"
    assert orc.input_shape == model.input_shape


def test_soft_loopback_logits_bitwise(soft_pair, connect):
    model, handle = soft_pair
    orc = connect(handle.url)
    for k in range(5):
        x = util.rand_image(100 + k)
        remote = orc.query(x)
        local = oracle.LocalOracle(model).query(x)
        assert np.array_equal(remote.logits, local.logits)
        assert remote.label == local.label


def test_remote_log_matches_local_interface(soft_pair, connect):
    model, handle = soft_pair
    orc = connect(handle.url)
    x = util.rand_image(41)
    goal = util.targeted(1)
    resp = orc.query(x, goal)
    assert orc.count == 1 and len(orc.log) == 1
    rec = orc.log[0]
    assert rec.digest == oracle.image_digest(x)
    assert rec.success == oracle.is_success(resp.label, goal)


def test_request_count_includes_meta(connect):
    model = util.tiny_model(42, 1)
    with server.serve(model, mode="soft") as handle:
        orc = connect(handle.url)
        for k in range(3):
            orc.query(util.rand_image(200 + k))
        assert handle.request_count == 4


def test_fresh_handle_skips_the_handshake(connect):
    model = util.tiny_model(42, 1)
    with server.serve(model, mode="soft") as handle:
        orc = connect(handle.url)
        orc.query(util.rand_image(210))
        other = orc.fresh()
        other.query(util.rand_image(211))
        other.query(util.rand_image(212))
        assert handle.request_count == 4
        assert other._session is orc._session and other.count == 2
        assert orc.count == 1 and len(orc.log) == 1


def test_hard_server_returns_label_only(connect):
    model = util.tiny_model(43, 0)
    with server.serve(model, mode="hard") as handle:
        orc = connect(handle.url)
        assert orc.mode == "hard"
        x = util.rand_image(43)
        resp = orc.query(x)
        assert resp.logits is None
        assert resp.label == oracle.LocalOracle(model, "hard").query(x).label


def test_budget_exhaustion_surfaces_partial_log(connect):
    model = util.tiny_model(44, 3)
    with server.serve(model, mode="soft", budget=2) as handle:
        orc = connect(handle.url)
        orc.query(util.rand_image(300))
        orc.query(util.rand_image(301))
        with pytest.raises(TransportError) as err:
            orc.query(util.rand_image(302))
        assert "429" in str(err.value) and "budget_exhausted" in str(err.value)
        assert len(err.value.partial_log) == 2
        assert orc.count == 2
        # the unread body of the refused request must not garble the next one
        with pytest.raises(TransportError, match="429"):
            orc.query(util.rand_image(303))


def test_server_rejects_bad_requests(soft_pair):
    model, handle = soft_pair
    ok = _predict_body(util.rand_image(45))

    def post(body, raw=None):
        if raw is not None:
            return requests.post(f"{handle.url}/v1/predict", data=raw, timeout=5)
        return requests.post(f"{handle.url}/v1/predict", json=body, timeout=5)

    assert post(None, raw=b"{not json").status_code == 400
    assert post({"shape": ok["shape"]}).status_code == 400  # missing pixels
    assert post({**ok, "shape": [2, 6, 6]}).status_code == 400  # wrong shape
    short = dict(ok, pixels=base64.b64encode(b"\x00" * 8).decode("ascii"))
    assert post(short).status_code == 400  # pixel count mismatch
    for entry in (1.9, True, 1.0):  # the right shape, but an entry is no JSON integer
        assert post({**ok, "shape": [entry, 6, 6]}).status_code == 400, entry
    hot = util.rand_image(45)
    hot.flat[0] = 1.5
    assert post(_predict_body(hot)).status_code == 400  # out of range
    hot.flat[0] = np.nan
    assert post(_predict_body(hot)).status_code == 400  # not finite
    assert post(ok).status_code == 200
    assert requests.post(f"{handle.url}/v1/other", json=ok, timeout=5).status_code == 404
    assert requests.get(f"{handle.url}/v1/other", timeout=5).status_code == 404


def _raw_post_headers(url, content_length):
    """A loopback socket that has sent the headers of a predict request
    declaring ``content_length``, and no body; times out instead of hanging."""
    host, port = url.rsplit("/", 1)[-1].split(":")
    sock = socket.create_connection((host, int(port)), timeout=3.0)
    sock.sendall(f"POST /v1/predict HTTP/1.1\r\nHost: {host}\r\n"
                 f"Content-Length: {content_length}\r\n\r\n".encode("ascii"))
    return sock


def _reply_head(sock):
    """Status and lower-cased status line and headers of the next reply."""
    reply = b""
    while b"\r\n\r\n" not in reply:
        chunk = sock.recv(4096)
        assert chunk, "server closed the connection without a reply"
        reply += chunk
    head = reply.split(b"\r\n\r\n", 1)[0].decode("ascii").lower()
    return int(head.split()[1]), head


def _raw_post_status(url, content_length):
    """Reply to a predict request that declares ``content_length`` and sends
    no body."""
    with _raw_post_headers(url, content_length) as sock:
        return _reply_head(sock)


def test_server_bounds_content_length(soft_pair):
    model, handle = soft_pair
    limit = server._max_body(model.input_shape)
    assert len(json.dumps(_predict_body(util.rand_image(51)))) < limit
    for length, status in (("-1", 400), ("twelve", 400), (str(10**12), 413),
                           (str(limit + 1), 413)):
        got, head = _raw_post_status(handle.url, length)
        assert got == status, length
        assert "connection: close" in head
    assert requests.post(f"{handle.url}/v1/predict", json=_predict_body(util.rand_image(51)),
                         timeout=5).status_code == 200


def test_server_drops_short_or_slow_body(soft_pair, monkeypatch, capsys):
    # a body that never arrives, or stops at EOF, closes the connection with
    # no reply instead of holding the handler until the client hangs up
    monkeypatch.setattr(server, "BODY_TIMEOUT_S", 0.5)
    _, handle = soft_pair
    host, port = handle.url.rsplit("/", 1)[-1].split(":")
    for hang_up in (False, True):
        with socket.create_connection((host, int(port)), timeout=3.0) as sock:
            sock.sendall(f"POST /v1/predict HTTP/1.1\r\nHost: {host}\r\n"
                         f"Content-Length: 100\r\n\r\n{{".encode("ascii"))
            if hang_up:
                sock.shutdown(socket.SHUT_WR)
            assert sock.recv(4096) == b"", hang_up
    assert requests.post(f"{handle.url}/v1/predict", json=_predict_body(util.rand_image(52)),
                         timeout=5).status_code == 200
    assert capsys.readouterr().err == ""


def test_stalled_body_uses_no_budget(monkeypatch):
    # a query is charged once its body has arrived, so a body that never
    # does leaves the client's whole budget for its next predict
    monkeypatch.setattr(server, "BODY_TIMEOUT_S", 0.5)
    with server.serve(util.tiny_model(53, 1), mode="soft", budget=1) as handle:
        with _raw_post_headers(handle.url, 100) as sock:
            sock.sendall(b"{")
            assert sock.recv(4096) == b""
        assert requests.post(f"{handle.url}/v1/predict", timeout=5,
                             json=_predict_body(util.rand_image(53))).status_code == 200


@pytest.mark.parametrize("read_reply", [False, True], ids=["before-reply", "after-reply"])
def test_a_client_that_resets_the_connection_leaves_no_traceback(read_reply, monkeypatch,
                                                                   capfd):
    # the client sends a whole predict and resets the connection, either
    # before its reply, which the forward waits for, so the reply's write
    # fails, or after reading it, while the server awaits the next request.
    # Either way the handler closes the connection quietly, and the reply
    # stays counted.
    reset, closed = threading.Event(), threading.Event()
    real_forward, real_shutdown = nn.forward, server._Server.shutdown_request
    monkeypatch.setattr(nn, "forward", lambda *a: reset.wait(5.0) and real_forward(*a))
    monkeypatch.setattr(server._Server, "shutdown_request",
                        lambda self, request: real_shutdown(self, request) or closed.set())
    with server.serve(util.tiny_model(59, 1), mode="soft") as handle:
        body = json.dumps(_predict_body(util.rand_image(59))).encode("ascii")
        with _raw_post_headers(handle.url, len(body)) as sock:
            sock.sendall(body)
            if read_reply:
                reset.set()
                assert _reply_head(sock)[0] == 200
            # a zero linger time makes close() send a reset
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        reset.set()
        assert closed.wait(5.0)
        assert requests.post(f"{handle.url}/v1/predict", json=_predict_body(util.rand_image(60)),
                             timeout=5).status_code == 200
        metrics = requests.get(f"{handle.url}/v1/metrics", timeout=5).json()
    assert metrics["requests"] == {"200": 2}  # both predicts
    assert capfd.readouterr().err == ""


def test_budget_charged_when_body_arrives():
    # A's headers pass the budget check, then B spends the last query while
    # A's body is on its way; A's body is read, so its 429 keeps the connection
    with server.serve(util.tiny_model(54, 1), mode="soft", budget=1) as handle:
        body = json.dumps(_predict_body(util.rand_image(54))).encode("ascii")
        with _raw_post_headers(handle.url, len(body)) as sock_a:
            deadline = time.monotonic() + 3.0
            while handle.request_count < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # A's handler is now waiting for its body
            assert requests.post(f"{handle.url}/v1/predict", data=body,
                                 timeout=5).status_code == 200
            sock_a.sendall(body)
            status, head = _reply_head(sock_a)
        assert status == 429 and "connection: close" not in head


def test_concurrent_predicts_never_overspend_budget():
    # more client threads than cores race for the last queries of one
    # client address; a lost update would answer more than `budget` with 200.
    # A large input keeps many bodies in flight between check and charge.
    budget, workers, each = 17, 8, 4
    shape = (3, 64, 64)
    body = _predict_body(util.rand_image(57, shape))
    statuses = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with server.serve(util.const_model(shape), mode="soft", budget=budget) as handle:
            def post_all():
                with requests.Session() as session:
                    got = [session.post(f"{handle.url}/v1/predict", json=body,
                                        timeout=10).status_code for _ in range(each)]
                statuses.extend(got)

            threads = [threading.Thread(target=post_all) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            metrics = requests.get(f"{handle.url}/v1/metrics", timeout=5).json()
    finally:
        sys.setswitchinterval(switch)
    assert sorted(statuses) == [200] * budget + [429] * (workers * each - budget)
    assert metrics["budget_used"] == {"127.0.0.1": budget}


def test_keepalive_round_trip_has_no_ack_stall(connect):
    # headers and body go out as two writes; with Nagle's algorithm on the
    # server socket each reply waited for the client's delayed ACK (>= 40 ms)
    with server.serve(util.tiny_model(55, 2), mode="soft") as handle:
        orc = connect(handle.url)
        rtt = []
        for k in range(21):
            start = time.perf_counter()
            orc.query(util.rand_image(600 + k))
            rtt.append(time.perf_counter() - start)
    assert statistics.median(rtt) < 0.020, rtt


def test_metrics_endpoint(connect):
    with server.serve(util.tiny_model(56, 0), mode="soft", budget=2) as handle:
        orc = connect(handle.url)
        orc.query(util.rand_image(700))
        orc.query(util.rand_image(701))
        with pytest.raises(TransportError, match="429"):
            orc.query(util.rand_image(702))
        assert requests.get(f"{handle.url}/v1/other", timeout=5).status_code == 404
        r = requests.get(f"{handle.url}/v1/metrics", timeout=5)
    assert r.status_code == 200
    metrics = r.json()
    assert metrics["requests"] == {"200": 3, "404": 1, "429": 1}
    assert metrics["budget_used"] == {"127.0.0.1": 2}
    handle_ms = metrics["handle_ms"]
    assert handle_ms["n"] == 5
    for q in ("p50", "p90", "p99"):
        assert math.isfinite(handle_ms[q]) and handle_ms[q] >= 0.0, q


def test_client_raises_transport_error_on_400(soft_pair, connect):
    _, handle = soft_pair
    orc = connect(handle.url)
    bad = util.rand_image(46)
    bad.flat[0] = 2.0
    with pytest.raises(TransportError):
        orc.query(bad)
    assert orc.count == 0


def test_the_package_does_not_load_requests():
    # the client speaks HTTP with the standard library; requests is a test
    # dependency only
    code = ("import sys, ensattack.harness, ensattack.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'requests', 'urllib3'}))")
    src = os.path.dirname(os.path.dirname(client.__file__))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_connect_dead_url():
    with pytest.raises(TransportError):
        client.connect("http://127.0.0.1:9", timeout=0.75)


@pytest.mark.parametrize("url", ["ftp://127.0.0.1:9", "127.0.0.1:9", "http://", "http://:9",
                                 "http://127.0.0.1:99999", "http://127.0.0.1:nine",
                                 "http://bad..host/", "http://a b/"])
def test_connect_refuses_an_unusable_url(url):
    with pytest.raises(TransportError):
        client.connect(url, timeout=0.75)


def test_capability_and_config_checks(connect):
    model = util.tiny_model(47, 2)
    with server.serve(model, mode="hard") as handle:
        orc = connect(handle.url)
        assert orc.mode == "hard"
        with pytest.raises(CapabilityError):
            oracle.require_soft(orc)


class _RogueHandler(BaseHTTPRequestHandler):
    meta = b""
    predict = b""
    predict_status = 200

    def log_message(self, fmt, *args):
        pass

    def _reply(self, body, status=200):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        self._reply(self.meta)

    def do_POST(self):
        self._reply(self.predict, self.predict_status)


def _rogue(meta, predict=b"{}", predict_status=200):
    handler = type("H", (_RogueHandler,), {"meta": meta, "predict": predict,
                                           "predict_status": predict_status})
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": server.POLL_INTERVAL_S},
                     daemon=True).start()
    return httpd, f"http://127.0.0.1:{httpd.server_address[1]}"


def _stop(httpd):
    httpd.shutdown()
    httpd.server_close()


def test_rogue_meta_raises_protocol_error():
    httpd, url = _rogue(b"this is not json")
    try:
        with pytest.raises(ProtocolError):
            client.connect(url)
    finally:
        _stop(httpd)
    httpd2, url2 = _rogue(json.dumps({"num_classes": 4, "mode": "fuzzy",
                                      "input_shape": [1, 6, 6]}).encode())
    try:
        with pytest.raises(ProtocolError):
            client.connect(url2)
    finally:
        _stop(httpd2)


def _rogue_predict_fails(mode, predict, error, predict_status=200):
    """A query to a server that answers predict with ``predict`` raises
    ``error``, carries the log so far and is not counted."""
    meta = json.dumps({"num_classes": 4, "mode": mode, "input_shape": [1, 6, 6]}).encode()
    httpd, url = _rogue(meta, predict, predict_status)
    try:
        with closing(client.connect(url)) as orc:
            with pytest.raises(error) as err:
                orc.query(util.rand_image(48))
            assert err.value.partial_log is orc.log
            assert orc.count == 0
            return err.value
    finally:
        _stop(httpd)


def test_rogue_predict_raises_protocol_error():
    for payload in ({}, {"logits": [1.0, 2.0]}, {"logits": [1.0, None, 2.0, 3.0]},
                    {"logits": ["a", "b", "c", "d"]}, {"logits": "abcd"},
                    {"logits": {"0": 1.0}}, {"logits": [[1.0, 2.0, 3.0, 4.0]]},
                    [1.0, 2.0, 3.0, 4.0]):
        _rogue_predict_fails("soft", json.dumps(payload).encode(), ProtocolError)
    _rogue_predict_fails("soft", b"garbage", ProtocolError)
    # a refusal is a transport error whatever JSON its body holds
    err = _rogue_predict_fails("soft", b"[1, 2]", TransportError, predict_status=500)
    assert type(err) is TransportError and "500" in str(err)


def test_rogue_hard_label_out_of_range():
    for label in (9, -1, "x", None, 1.7, True, 1.0, [1]):
        _rogue_predict_fails("hard", json.dumps({"label": label}).encode(), ProtocolError)
    _rogue_predict_fails("hard", b"{}", ProtocolError)


def test_serve_mode_validation():
    with pytest.raises(ValueError):
        server.serve(util.tiny_model(50, 0), mode="fuzzy")


@pytest.mark.parametrize("budget", [-1, -5, 2.0, True, "3"])
def test_serve_refuses_a_budget_that_is_not_a_count(budget):
    # budget=-1 used to start a victim that answered every predict with 429
    with pytest.raises(ValueError, match="budget"):
        server.serve(util.tiny_model(50, 0), budget=budget)


def test_serve_takes_a_numpy_integer_budget():
    with server.serve(util.tiny_model(50, 0), budget=np.int64(0)) as handle:
        assert handle.url.startswith("http://127.0.0.1:")


@pytest.mark.parametrize("bind", ["127.0.0.1:99999", "127.0.0.1:65536", "127.0.0.1:-1", ":-1",
                                  "127.0.0.1:x", "127.0.0.1:"])
def test_serve_refuses_a_port_out_of_range(bind):
    # ports past 65535 or below 0 died in bind() with a bare OverflowError
    with pytest.raises(ValueError, match="port"):
        server.serve(util.tiny_model(50, 0), bind=bind)


def test_float32_round_trip_is_exact(soft_pair, connect):
    # logits travel as decimal text printed from float64; casting the parsed
    # doubles back to float32 must reproduce the server's float32 values
    model, handle = soft_pair
    orc = connect(handle.url)
    for k in range(10):
        x = util.rand_image(400 + k)
        assert np.array_equal(orc.query(x).logits, nn.forward(model, x))


_META_4 = json.dumps({"num_classes": 4, "mode": "soft", "input_shape": [1, 6, 6]}).encode()
_LOGITS_4 = json.dumps({"logits": [0.5, -1.25, 3.0, 2.0]}).encode()


def _http_reply(body, status=b"HTTP/1.1 200 OK", headers=None):
    """Reply bytes with a Content-Length and no Connection header."""
    if headers is None:
        headers = [b"Content-Type: application/json", b"Content-Length: %d" % len(body)]
    return b"\r\n".join([status, *headers, b"", body])


class _RawReplyHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def handle_one_request(self):
        # as the package's server does: a client that resets the connection
        # ends it without a traceback on stderr
        try:
            super().handle_one_request()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def do_GET(self):
        self.wfile.write(_http_reply(self.server.meta))

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.wfile.write(self.server.reply)
        self.close_connection = not self.server.keep_open


class _RawRogue(ThreadingHTTPServer):
    """A loopback server that answers a GET with ``meta`` and keeps the
    connection, and answers a POST with the raw bytes ``self.reply`` and
    then closes the connection, unless ``self.keep_open``. ``self.closed``
    is set each time it has closed a connection."""

    daemon_threads = True

    def __init__(self, reply=b"", meta=_META_4):
        super().__init__(("127.0.0.1", 0), _RawReplyHandler)
        self.reply, self.keep_open, self.meta = reply, False, meta
        self.closed = threading.Event()
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        threading.Thread(target=self.serve_forever, daemon=True,
                         kwargs={"poll_interval": server.POLL_INTERVAL_S}).start()

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.set()

    def __exit__(self, *exc):
        self.shutdown()
        self.server_close()


@pytest.mark.parametrize("meta", [{"num_classes": 3.7}, {"num_classes": True},
                                  {"num_classes": -4}, {"input_shape": [0, -1]},
                                  {"input_shape": [1.5, 12, 12]}, {"input_shape": "166"}])
def test_meta_counts_must_be_json_integers(meta):
    # a class count of at least 2 and shape entries of at least 1, each a
    # JSON integer: int() would read 3.7 as 3 and true as 1
    meta = {"num_classes": 4, "mode": "soft", "input_shape": [1, 6, 6], **meta}
    with _RawRogue(meta=json.dumps(meta).encode()) as rogue:
        with pytest.raises(ProtocolError, match="malformed meta"):
            client.connect(rogue.url)


def test_client_reopens_a_connection_the_server_closed(connect):
    # each reply comes under HTTP/1.1 with no "Connection: close", and then
    # the server hangs up; a client that reused the dead connection would
    # send its predict into it and get no reply
    with _RawRogue(_http_reply(_LOGITS_4)) as rogue:
        orc = connect(rogue.url)
        for k in range(2):
            rogue.closed.clear()
            orc.query(util.rand_image(800 + k))
            assert rogue.closed.wait(3.0)
        assert orc.count == 2


def test_next_query_reconnects_after_a_transport_error(monkeypatch, connect):
    with _RawRogue(b"") as rogue:  # hangs up before any reply
        orc = connect(rogue.url)
        with pytest.raises(TransportError) as err:
            orc.query(util.rand_image(810))
        assert err.value.partial_log is orc.log and orc.count == 0
        assert orc._session.sock is None
        rogue.reply, rogue.keep_open = _http_reply(_LOGITS_4), True
        assert orc.query(util.rand_image(811)).label == 2
        assert orc.query(util.rand_image(812)).label == 2
        assert orc.count == 2
    # the same after a refusal by a real server, which keeps its connection
    model = util.tiny_model(58, 1)
    with server.serve(model, mode="soft") as handle:
        orc = connect(handle.url)
        bad = util.rand_image(813)
        bad.flat[0] = 2.0
        with pytest.raises(TransportError, match="400"):
            orc.query(bad)
        assert orc._session.sock is None
        x = util.rand_image(814)
        assert np.array_equal(orc.query(x).logits, nn.forward(model, x))
        # an interrupt between a request and its reply leaves no half-done
        # exchange on the connection either

        def interrupted():
            raise KeyboardInterrupt
        monkeypatch.setattr(orc._session, "getresponse", interrupted)
        with pytest.raises(KeyboardInterrupt):
            orc.query(x)
        monkeypatch.undo()
        assert np.array_equal(orc.query(x).logits, nn.forward(model, x))
        assert orc.count == 2


def test_a_reply_over_the_size_limit_closes_the_connection(connect):
    # a valid soft reply padded past MAX_REPLY_BYTES, on a connection the
    # server would keep: the client refuses it unread and hangs up
    padded = json.dumps({"logits": [0.5, -1.25, 3.0, 2.0],
                         "pad": "a" * client.MAX_REPLY_BYTES}).encode()
    with _RawRogue(_http_reply(padded)) as rogue:
        rogue.keep_open = True
        orc = connect(rogue.url)
        rogue.closed.clear()
        with pytest.raises(ProtocolError, match="longer than") as err:
            orc.query(util.rand_image(820))
        assert err.value.partial_log is orc.log and orc.count == 0
        assert orc._session.sock is None and rogue.closed.wait(3.0)
        rogue.reply = _http_reply(_LOGITS_4)
        assert orc.query(util.rand_image(821)).label == 2
        assert orc.count == 1


_MUTATIONS = ("hang up", "status", "headers", "length", "body", "truncate")
_STATUS_LINES = [b"HTTP/1.0 200 OK", b"HTTP/1.1 204 No Content", b"HTTP/1.1 abc OK",
                 b"HTTP/1.1", b"", b"ICY 200 OK", b"HTTP/1.1 2000 OK",
                 b"HTTP/1.1 100 Continue", b"\xff\xfe 200"]
_BODIES = [b"\xff\xfe\xfd{\"logits\"", b"[" * 100000, b"{" * 3000,
           "{\"logits\": [1, 2, 3, \"\u00e9\"]}".encode("latin-1"), b""]
_EXTRA_HEADERS = [[b"X-Long: " + b"a" * 70000], [b"X-%d: v" % i for i in range(120)],
                  [b"no colon here"], [b"\xff\xfe: \x80"], [b" folded continuation"],
                  [b"Transfer-Encoding: chunked"], [b"Connection: close"]]


@st.composite
def _rogue_predict_replies(draw):
    """(reply bytes, whether the server keeps the connection after it): a
    valid soft reply with up to two of _MUTATIONS."""
    mutations = draw(st.sets(st.sampled_from(_MUTATIONS), max_size=2))
    if "hang up" in mutations:  # before any reply
        return b"", False
    body = _LOGITS_4
    if "body" in mutations:  # not UTF-8, nested too deep, not the protocol's, or empty
        body = draw(st.sampled_from(_BODIES) | st.binary(max_size=64))
    length = len(body)
    if "truncate" in mutations:  # the server hangs up before the whole body
        body = body[:draw(st.integers(0, max(len(body) - 1, 0)))]
    if "length" in mutations:
        length = draw(st.sampled_from([10**12, "abc", "-1", "", "1 2"])
                      | st.integers(0, len(body) + 64))
    status = b"HTTP/1.1 200 OK"
    if "status" in mutations:
        status = draw(st.sampled_from(_STATUS_LINES) | st.binary(max_size=24))
    headers = [b"Content-Type: application/json", b"Content-Length: %s" % str(length).encode()]
    if "headers" in mutations:  # oversized, too many or malformed
        headers += draw(st.sampled_from(_EXTRA_HEADERS))
    # a server that sends less than it declares, or an unframed body, has
    # to hang up, or the client would wait out its timeout
    framed = (status == b"HTTP/1.1 200 OK" and isinstance(length, int) and length <= len(body)
              and len(headers) == 2)
    return _http_reply(body, status, headers), framed and draw(st.booleans())


def test_client_survives_rogue_predict_replies(connect):
    # only the client's typed errors escape, whatever the predict reply; a
    # failed query is not counted and hands over the log so far. The handles
    # share one connection across examples, so each also starts wherever the
    # previous reply left it.
    with _RawRogue() as rogue:
        base = connect(rogue.url, timeout=2.0)

        @given(_rogue_predict_replies())
        @settings(max_examples=300, deadline=None)
        def check(case):
            rogue.reply, rogue.keep_open = case
            orc = base.fresh()
            log = orc.log
            try:
                resp = orc.query(util.rand_image(820))
            except TransportError as err:
                assert err.partial_log is log
                assert orc.count == 0 and log == []
            else:
                assert orc.count == 1
                assert resp.logits.shape == (4,) and np.isfinite(resp.logits).all()

        check()


_FUZZ_SHAPE = (3, 32, 32)
_HEADER_NAMES = ["Content-Type", "Connection", "Expect", "Transfer-Encoding", "Host",
                 "X-Forwarded-For"]
_LENGTHS = ["-1", "abc", "", "1e3", "0x10", "+12", " 12", "12 ", "1 2", str(10**30), "\xb2"]
_header_text = st.text(st.characters(min_codepoint=32, max_codepoint=255,
                                     exclude_characters="\x7f"), max_size=24)


def _json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    _json_containers, max_leaves=12)


@st.composite
def _predict_requests(draw):
    """Raw bytes of a POST /v1/predict the server must refuse or drop:
    random headers, a random Content-Length or none, and a body that is
    never a valid request (its pixels, if any, are too few to fill the
    shape). The Content-Length is the body's length half of the time."""
    shape = st.lists(st.integers(-2, 7) | st.floats(0, 13) | st.booleans(), max_size=4)
    body = draw(st.one_of(
        st.binary(max_size=300),
        _json_values.map(lambda v: json.dumps(v).encode()),
        st.fixed_dictionaries({"shape": shape | _json_values,
                               "pixels": st.text(max_size=100) | _json_values})
        .map(lambda v: json.dumps(v).encode()),
        # nested deeper than the recursion limit (hypothesis raises it while
        # it runs), within the body bound
        st.integers(1000, server._max_body(_FUZZ_SHAPE) - 16).map(lambda n: b"[" * n),
        st.just(b'{"shape": [1e400, 32, 32], "pixels": ""}')))
    length = draw(st.sampled_from([str(len(body))] * 3 + [None, "other", "number"]))
    if length == "other":
        length = draw(st.sampled_from(_LENGTHS))
    elif length == "number":
        length = str(draw(st.integers(0, len(body) + 64)))
    headers = [(name, draw(_header_text))
               for name in draw(st.lists(st.sampled_from(_HEADER_NAMES)
                                         | st.from_regex(r"\A[A-Za-z-]{1,12}\Z"), max_size=6))]
    if length is not None:
        headers.insert(draw(st.integers(0, len(headers))), ("Content-Length", length))
    head = "".join(f"{name}: {value}\r\n" for name, value in headers)
    return f"POST /v1/predict HTTP/1.1\r\n{head}\r\n".encode("latin-1") + body


def _final_statuses(raw):
    """Status codes of the whole final (not 1xx) replies at the start of
    ``raw``, in order, and the bytes after the last of them."""
    statuses = []
    while True:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = re.fullmatch(r"HTTP/1\.[01] (\d{3}) .*", lines[0])
        if not sep or status is None:
            return statuses, raw
        length = next((int(line.split(":", 1)[1]) for line in lines[1:]
                       if line.lower().startswith("content-length:")), 0)
        if len(rest) < length:
            return statuses, raw
        raw = rest[length:]
        if int(status[1]) >= 200:
            statuses.append(int(status[1]))


def test_refusal_reaches_a_client_still_sending(soft_pair):
    # a refusal that leaves the body unread lingers before it closes: a
    # close with 17,000 bytes unread would reset the connection, and the
    # client, still sending, would lose the 400
    _, handle = soft_pair
    host, port = handle.url.rsplit("/", 1)[-1].split(":")
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        sock.sendall(f"POST /v1/predict HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii")
                     + b"x" * 17_000)
        time.sleep(0.05)
        sock.shutdown(socket.SHUT_WR)
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    assert _final_statuses(raw) == ([400], b"")


def test_server_survives_random_predict_requests(capsys):
    # each request gets a 4xx or a dropped connection, never a 5xx or a
    # traceback, and /v1/metrics counts exactly the replies received
    with server.serve(util.const_model(_FUZZ_SHAPE), mode="soft") as handle:
        host, port = handle.url.rsplit("/", 1)[-1].split(":")

        def replies_counted():
            return sum(requests.get(f"{handle.url}/v1/metrics",
                                    timeout=5).json()["requests"].values())

        @given(_predict_requests())
        @settings(max_examples=300, deadline=None)
        def check(request):
            before = replies_counted()
            raw = b""
            with socket.create_connection((host, int(port)), timeout=5.0) as sock:
                sock.sendall(request)
                sock.shutdown(socket.SHUT_WR)
                while chunk := sock.recv(65536):
                    raw += chunk
            statuses, rest = _final_statuses(raw)
            assert all(400 <= s < 500 for s in statuses), statuses
            counted = replies_counted() - before - 1  # the metrics reply counts itself
            assert rest == b"" and counted == len(statuses), (rest, counted, statuses)
            assert capsys.readouterr().err == ""

        check()
