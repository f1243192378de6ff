"""Remote oracle: the HTTP client side of the server.py wire protocol.

RemoteOracle is an oracle.Oracle whose answers come from a server, so
attacks run unchanged over the network. Its handles share one
requests.Session: fresh() gives a new count and log over the same
connection. Everything the server sends is checked before it is used; a
reply the client cannot read as the protocol says raises ProtocolError, a
refused or failed request TransportError, and neither counts as a query.
"""

import base64

import numpy as np
import requests

from .errors import CapabilityError, ConfigError, ProtocolError, TransportError
from .oracle import Oracle


class RemoteOracle(Oracle):
    def __init__(self, url: str, num_classes: int, mode: str, input_shape: tuple,
                 session: requests.Session, timeout: float):
        super().__init__(mode, num_classes)
        self.url = url
        self.input_shape = input_shape
        self._session = session
        self._timeout = timeout

    def _predict(self, image):
        image = np.ascontiguousarray(image, dtype="<f4")
        body = {
            "shape": list(image.shape),
            "pixels": base64.b64encode(image.tobytes()).decode("ascii"),
        }
        try:
            r = self._session.post(f"{self.url}/v1/predict", json=body, timeout=self._timeout)
        except requests.RequestException as exc:
            raise TransportError(f"predict request failed: {exc}", partial_log=self.log) from None
        try:
            payload = r.json()
        except ValueError:
            payload = None
        if r.status_code != 200:
            detail = payload.get("error", "") if isinstance(payload, dict) else ""
            raise TransportError(f"predict returned {r.status_code}: {detail}",
                                 partial_log=self.log)
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
