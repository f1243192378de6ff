"""Remote oracle: the HTTP client side of the server.py wire protocol.

RemoteOracle is an oracle.Oracle whose answers come from a server, so
attacks run unchanged over the network. connect() opens one keep-alive
HTTP/1.1 connection with the standard library's http.client (which turns
off Nagle's algorithm on it) and makes the /v1/meta handshake over it. The
handle it returns, and every fresh() copy of it, send their predicts over
that one connection; each copy keeps its own count and log, and close()
on any of them closes it. The client reads no proxy or netrc settings
from the environment: it always talks to the victim directly.

Before each request, an idle connection that the server has closed is
reopened. A request whose body has gone out is never sent again, because
the server may already have charged it to the budget. Everything the
server sends is checked before it is used: a reply the client cannot read
as the protocol says raises ProtocolError, a refused or failed request
TransportError, and neither counts as a query. A failed request closes the
connection, so the next one starts on a new connection.
"""

import base64
import http.client
import json
import select
from urllib.parse import urlsplit

import numpy as np

from .errors import ProtocolError, TransportError
from .oracle import Oracle, read_shape

# longest reply body read; a soft reply takes about 26 bytes per class
MAX_REPLY_BYTES = 1 << 20

_JSON_HEADERS = {"Content-Type": "application/json"}


def _round_trip(conn: http.client.HTTPConnection, method: str, path: str,
                body: bytes | None, log=None):
    """The JSON payload of the 200 reply to one request over ``conn``.

    A request that fails or is refused raises TransportError, and a reply
    that is not JSON ProtocolError; each carries ``log`` as its partial_log.
    Whatever the exception, ``conn`` is closed, so the next request opens a
    new connection.
    """
    what = path.rsplit("/", 1)[1]  # "meta" or "predict", for the messages
    try:
        # a readable idle socket means the server has closed it (or has
        # written out of turn): start this request on a new connection
        if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            conn.close()
        try:
            conn.request(method, path, body, _JSON_HEADERS if body is not None else {})
            reply = conn.getresponse()
            # bounded: http.client would allocate a declared length up front
            raw = reply.read(MAX_REPLY_BYTES + 1)
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(f"{what} request failed: {exc!r}", partial_log=log) from None
        if len(raw) > MAX_REPLY_BYTES:
            raise ProtocolError(f"{what} reply is longer than {MAX_REPLY_BYTES} bytes",
                                partial_log=log)
        if reply.length:  # the server hung up before the declared length arrived
            raise TransportError(f"{what} reply ended {reply.length} bytes short",
                                 partial_log=log)
        try:
            payload, readable = json.loads(raw), True
        except (ValueError, RecursionError):  # RecursionError: nested too deep
            payload, readable = None, False
        if reply.status != 200:
            detail = payload.get("error", "") if isinstance(payload, dict) else ""
            raise TransportError(f"{what} returned {reply.status}: {detail}", partial_log=log)
        if not readable:
            raise ProtocolError(f"{what} reply is not JSON", partial_log=log)
        return payload
    except BaseException:  # an interrupt, too, leaves the exchange half done
        conn.close()
        raise


class RemoteOracle(Oracle):
    def __init__(self, num_classes: int, mode: str, input_shape: tuple,
                 session: http.client.HTTPConnection, path_prefix: str):
        super().__init__(mode, num_classes)
        self.input_shape = input_shape
        self._session = session  # the one connection every fresh() copy shares
        self._predict_path = f"{path_prefix}/v1/predict"

    def close(self) -> None:
        """Closes the connection this handle and its fresh() copies share."""
        self._session.close()

    def _predict(self, image):
        image = np.ascontiguousarray(image, dtype="<f4")
        body = json.dumps({
            "shape": list(image.shape),
            "pixels": base64.b64encode(image.tobytes()).decode("ascii"),
        }).encode("ascii")
        payload = _round_trip(self._session, "POST", self._predict_path, body, self.log)
        if not isinstance(payload, dict):
            raise ProtocolError("predict response is not a JSON object", partial_log=self.log)
        if self.mode == "soft":
            if "logits" not in payload:
                raise ProtocolError("soft response missing 'logits'", partial_log=self.log)
            try:
                # values were printed from double precision, so this cast
                # makes the float32 round trip exact
                z = np.asarray(payload["logits"], dtype=np.float64).astype(np.float32)
            except (TypeError, ValueError, OverflowError):
                raise ProtocolError("logits are not numbers", partial_log=self.log) from None
            if z.ndim != 1 or z.size != self.num_classes or not np.all(np.isfinite(z)):
                raise ProtocolError("malformed logits", partial_log=self.log)
            return int(np.argmax(z)), z
        if "label" not in payload:
            raise ProtocolError("hard response missing 'label'", partial_log=self.log)
        label = payload["label"]
        # bool is an int subclass, and int() would truncate 1.7 to 1
        if type(label) is not int:
            raise ProtocolError(f"label {label!r} is not an integer", partial_log=self.log)
        if not 0 <= label < self.num_classes:
            raise ProtocolError(f"label {label} out of range", partial_log=self.log)
        return label, None


def connect(url: str, timeout: float = 10.0) -> RemoteOracle:
    """Performs the /v1/meta handshake and returns a query-capable handle.

    ``url`` is http://host[:port] with an optional path prefix; ``timeout``
    bounds the connect and each wait for the server, in seconds.
    """
    url = url.rstrip("/")
    try:
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError("need http://host[:port]")
        parts.hostname.encode("idna")  # the check the socket layer makes later
        conn = http.client.HTTPConnection(parts.hostname, parts.port or 80, timeout=timeout)
    except (ValueError, http.client.HTTPException) as exc:
        raise TransportError(f"cannot use victim URL {url!r}: {exc}") from None
    meta = _round_trip(conn, "GET", f"{parts.path}/v1/meta", None)
    try:
        num_classes, mode, input_shape = _check_meta(meta)
    except ProtocolError:
        conn.close()
        raise
    return RemoteOracle(num_classes, mode, input_shape, conn, parts.path)


def _check_meta(meta) -> tuple:
    """(num_classes, mode, input_shape) from a /v1/meta payload. The class
    count and the shape entries must be JSON integers: at least 2 classes,
    and every entry at least 1."""
    try:
        num_classes = meta["num_classes"]
        mode = meta["mode"]
        input_shape = read_shape(meta["input_shape"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed meta response: {exc}") from None
    # bool is an int subclass, and a JSON 3.7 is no class count
    if type(num_classes) is not int or num_classes < 2:
        raise ProtocolError(f"malformed meta response: num_classes {num_classes!r}")
    if mode not in ("soft", "hard"):
        raise ProtocolError(f"unknown server mode {mode!r}")
    return num_classes, mode, input_shape
