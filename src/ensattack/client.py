"""Remote oracle: the HTTP client side of the server.py wire protocol.

RemoteOracle exposes the same interface as oracle.LocalOracle (query, log,
count, num_classes, mode), so attacks run unchanged over the network.
"""

import base64
import time

import numpy as np
import requests

from .errors import CapabilityError, ConfigError, ProtocolError, TransportError
from .losses import AttackGoal
from .oracle import OracleResponse, QueryLog, QueryRecord, image_digest, is_success


class RemoteOracle:
    def __init__(self, url: str, num_classes: int, mode: str, input_shape: tuple,
                 session: requests.Session, timeout: float):
        self.url = url
        self.num_classes = num_classes
        self.mode = mode
        self.input_shape = input_shape
        self.log = QueryLog()
        self.count = 0
        self._session = session
        self._timeout = timeout

    def query(self, image: np.ndarray, goal: AttackGoal | None = None) -> OracleResponse:
        image = np.ascontiguousarray(image, dtype="<f4")
        body = {
            "shape": list(image.shape),
            "pixels": base64.b64encode(image.tobytes()).decode("ascii"),
        }
        start = time.perf_counter()
        try:
            r = self._session.post(f"{self.url}/v1/predict", json=body, timeout=self._timeout)
        except requests.RequestException as exc:
            raise TransportError(f"predict request failed: {exc}", partial_log=self.log) from None
        latency = time.perf_counter() - start
        if r.status_code != 200:
            detail = ""
            try:
                detail = r.json().get("error", "")
            except ValueError:
                pass
            raise TransportError(f"predict returned {r.status_code}: {detail}",
                                 partial_log=self.log)
        try:
            payload = r.json()
        except ValueError:
            raise ProtocolError("predict response is not JSON", partial_log=self.log) from None
        if self.mode == "soft":
            if "logits" not in payload:
                raise ProtocolError("soft response missing 'logits'", partial_log=self.log)
            # values were printed from double precision, so this cast makes
            # the float32 round trip exact
            z = np.asarray(payload["logits"], dtype=np.float64).astype(np.float32)
            if z.ndim != 1 or z.size != self.num_classes or not np.all(np.isfinite(z)):
                raise ProtocolError("malformed logits", partial_log=self.log)
            resp = OracleResponse("soft", int(np.argmax(z)), z, latency)
        else:
            if "label" not in payload:
                raise ProtocolError("hard response missing 'label'", partial_log=self.log)
            label = int(payload["label"])
            if not 0 <= label < self.num_classes:
                raise ProtocolError(f"label {label} out of range", partial_log=self.log)
            resp = OracleResponse("hard", label, None, latency)
        self.count += 1
        self.log.append(QueryRecord(self.count, image_digest(image), resp.kind, resp.label,
                                    None if goal is None else is_success(resp.label, goal),
                                    time.time()))
        return resp


def connect(url: str, require_mode: str | None = None, expect_classes: int | None = None,
            timeout: float = 10.0) -> RemoteOracle:
    """Performs the /v1/meta handshake and returns a query-capable handle."""
    url = url.rstrip("/")
    session = requests.Session()
    try:
        r = session.get(f"{url}/v1/meta", timeout=timeout)
    except requests.RequestException as exc:
        raise TransportError(f"meta request failed: {exc}") from None
    if r.status_code != 200:
        raise TransportError(f"meta returned {r.status_code}")
    try:
        meta = r.json()
        num_classes = int(meta["num_classes"])
        mode = meta["mode"]
        input_shape = tuple(int(v) for v in meta["input_shape"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed meta response: {exc}") from None
    if mode not in ("soft", "hard"):
        raise ProtocolError(f"unknown server mode {mode!r}")
    if require_mode is not None and mode != require_mode:
        raise CapabilityError(f"server mode is {mode!r} but {require_mode!r} is required")
    if expect_classes is not None and num_classes != expect_classes:
        raise ConfigError(f"server reports {num_classes} classes, expected {expect_classes}")
    return RemoteOracle(url, num_classes, mode, input_shape, session, timeout)
