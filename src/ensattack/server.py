"""HTTP inference server hosting one model behind a tiny JSON protocol.

Wire protocol
-------------
GET /v1/meta
    200 {"num_classes": C, "mode": "soft"|"hard", "input_shape": [c, h, w]}
GET /v1/metrics
    200 {"requests": {status: n}, "budget_used": {client address: n},
         "handle_ms": {"p50": ms, "p90": ms, "p99": ms, "n": n}}
    replies sent so far by status; predict queries charged per client; and
    handler time quantiles over the last HANDLE_WINDOW replies (null before
    the first). Only answered requests are counted.
POST /v1/predict
    request  {"shape": [c, h, w], "pixels": "<base64 little-endian float32>"}
    200 soft {"logits": [...]}  |  200 hard {"label": k}
    400 {"error": "..."} on malformed input, NaN or infinite pixels included,
    413 when Content-Length exceeds what the model's input shape can need,
    429 {"error": "budget_exhausted"} once a client exceeds the per-client
    query budget. Replies that leave the body unread close the connection.
    A body that arrives short, or not within BODY_TIMEOUT_S, closes the
    connection with no reply. A predict uses one query of the client's
    budget only once its whole body has arrived.

Pixels travel as base64-wrapped binary and logits as JSON numbers printed
from double precision, so a float32 round trip through the wire is exact and
remote attacks can reproduce in-process trajectories bit for bit.
"""

import base64
import collections
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from . import nn
from .oracle import check_image

# seconds a request's body may take to arrive once its headers are in; idle
# keep-alive connections between requests are not bounded
BODY_TIMEOUT_S = 10.0

# handled requests whose handler times /v1/metrics summarises
HANDLE_WINDOW = 1024


def _max_body(input_shape) -> int:
    """Largest predict body a valid request for this input shape needs: the
    base64 float32 pixels plus 1 KiB for the JSON around them."""
    return 4 * -(-4 * int(np.prod(input_shape)) // 3) + 1024


def _quantiles(samples) -> dict:
    """Nearest-rank p50/p90/p99 of ``samples``, None when there are none."""
    ordered = sorted(samples)
    out = {f"p{round(q * 100)}": ordered[math.ceil(q * len(ordered)) - 1] if ordered else None
           for q in (0.5, 0.9, 0.99)}
    out["n"] = len(ordered)
    return out


class _Handler(BaseHTTPRequestHandler):
    server_version = "ensattack"
    protocol_version = "HTTP/1.1"
    # _send writes the headers and the body separately; with Nagle's
    # algorithm the body would wait for the client's delayed ACK (40 ms)
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # keep test output quiet
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        # recorded before the reply goes out, so a client never sees a reply
        # that /v1/metrics does not count yet
        with self.server.lock:
            self.server.statuses[status] += 1
            self.server.handle_ms.append((time.perf_counter() - self._started) * 1e3)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _refuse(self, status: int, payload: dict) -> None:
        # the refused request's body is never read and would be parsed as the
        # next request on this connection, so the reply closes it
        self.close_connection = True
        self._send(status, payload)

    def _read_body(self, length: int) -> bytes | None:
        """The request body, or None, with the connection marked for closing,
        when it arrives short or not within BODY_TIMEOUT_S."""
        self.connection.settimeout(BODY_TIMEOUT_S)
        try:
            raw = self.rfile.read(length)
        except OSError:  # timed out, or reset by the client
            raw = b""
        finally:
            self.connection.settimeout(self.timeout)
        if len(raw) < length:
            self.close_connection = True
            return None
        return raw

    def _begin(self) -> None:
        self._started = time.perf_counter()
        with self.server.lock:
            self.server.request_count += 1

    def _within_budget(self, client: str, charge: bool) -> bool:
        """Whether ``client`` has budget left; with ``charge`` a True answer
        also uses one query of it."""
        with self.server.lock:
            used = self.server.budget_used.get(client, 0)
            if self.server.budget is not None and used >= self.server.budget:
                return False
            if charge:
                self.server.budget_used[client] = used + 1
            return True

    def _metrics(self) -> dict:
        with self.server.lock:
            statuses = dict(self.server.statuses)
            budget_used = dict(self.server.budget_used)
            handle_ms = list(self.server.handle_ms)
        return {"requests": dict(sorted(statuses.items())),
                "budget_used": budget_used,
                "handle_ms": _quantiles(handle_ms)}

    def do_GET(self):
        self._begin()
        if self.path == "/v1/metrics":
            self._send(200, self._metrics())
            return
        if self.path != "/v1/meta":
            self._send(404, {"error": "unknown path"})
            return
        model = self.server.model
        self._send(200, {
            "num_classes": model.num_classes,
            "mode": self.server.mode,
            "input_shape": list(model.input_shape),
        })

    def do_POST(self):
        self._begin()
        if self.path != "/v1/predict":
            self._refuse(404, {"error": "unknown path"})
            return
        length = self.headers.get("Content-Length", "")
        if not length.isdecimal():
            self._refuse(400, {"error": "missing or malformed Content-Length"})
            return
        length = int(length)
        if length > self.server.max_body:
            self._refuse(413, {"error": f"body of {length} bytes exceeds the "
                                        f"{self.server.max_body} a request can need"})
            return
        client = self.client_address[0]
        if not self._within_budget(client, charge=False):
            self._refuse(429, {"error": "budget_exhausted"})
            return
        raw = self._read_body(length)
        if raw is None:
            return
        if not self._within_budget(client, charge=True):
            # a concurrent request from the same client took the last query
            # while this body arrived; the body is read, so the connection stays
            self._send(429, {"error": "budget_exhausted"})
            return
        try:
            body = json.loads(raw.decode("utf-8"))
            shape = tuple(int(v) for v in body["shape"])
            pixels = np.frombuffer(base64.b64decode(body["pixels"]), dtype="<f4")
        except (KeyError, TypeError, ValueError) as exc:
            self._send(400, {"error": f"malformed request: {exc}"})
            return
        model = self.server.model
        if shape != model.input_shape:
            self._send(400, {"error": f"shape {list(shape)} does not match model "
                                      f"input {list(model.input_shape)}"})
            return
        if pixels.size != int(np.prod(shape)):
            self._send(400, {"error": "pixel count does not match shape"})
            return
        try:
            image = check_image(pixels.reshape(shape))
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        z = nn.forward(model, image)
        if self.server.mode == "soft":
            self._send(200, {"logits": [float(v) for v in z]})
        else:
            self._send(200, {"label": int(np.argmax(z))})


class ServerHandle:
    def __init__(self, httpd: ThreadingHTTPServer, thread: threading.Thread):
        self._httpd = httpd
        self._thread = thread
        host, port = httpd.server_address[:2]
        self.url = f"http://{host}:{port}"

    @property
    def request_count(self) -> int:
        return self._httpd.request_count

    def close(self) -> None:
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve(model: nn.Model, mode: str = "soft", bind: str = "127.0.0.1:0",
          budget: int | None = None) -> ServerHandle:
    """Starts the server on a background thread and returns a ServerHandle
    whose .url is ready for connect()."""
    if mode not in ("soft", "hard"):
        raise ValueError(f"unknown mode {mode!r}")
    host, _, port = bind.rpartition(":")
    httpd = ThreadingHTTPServer((host or "127.0.0.1", int(port)), _Handler)
    httpd.daemon_threads = True
    httpd.model = model
    httpd.mode = mode
    httpd.budget = budget
    httpd.max_body = _max_body(model.input_shape)
    httpd.lock = threading.Lock()  # guards the four counters below
    httpd.budget_used = {}  # predict queries charged per client address
    httpd.request_count = 0
    httpd.statuses = collections.Counter()
    httpd.handle_ms = collections.deque(maxlen=HANDLE_WINDOW)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return ServerHandle(httpd, thread)
