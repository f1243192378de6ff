"""Blackbox victim oracles: one query interface over every transport.

Oracle.query is the only place queries are counted and logged: every answered
call adds one to ``count`` and appends exactly one QueryRecord (index, image
digest, label, goal success) to ``log``, and answers with an OracleResponse:
the label, and the logits in soft mode.
Subclasses only say how a label (and logits) are obtained: LocalOracle runs
an in-process model, client.RemoteOracle posts to a server, so attack code
never knows which transport it is talking to.
"""

import copy
import zlib
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import CapabilityError
from .losses import AttackGoal


@dataclass
class OracleResponse:
    label: int  # argmax class (ties toward lowest index)
    logits: np.ndarray | None  # None for hard-label responses


@dataclass
class QueryRecord:
    index: int  # 1-based query number
    digest: str  # image_digest of the query image: 16 hex chars
    label: int
    success: bool | None  # goal-evaluated flag; None when no goal was given


def image_digest(image: np.ndarray) -> str:
    """A non-cryptographic 64-bit fingerprint of the image's float32 bytes,
    as 16 hex chars: CRC-32 then Adler-32. It tells the query images of one
    run apart; it is no defence against images made to collide."""
    data = np.ascontiguousarray(image, dtype="<f4").tobytes()
    return f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"


def is_success(label: int, goal: AttackGoal) -> bool:
    """Argmax predicate on the predicted label: targeted wants label == y*,
    untargeted label != y."""
    if goal.mode == "targeted":
        return label == goal.label
    return label != goal.label


def read_shape(value) -> tuple:
    """An image shape read from JSON: ValueError unless it is a nonempty
    list of JSON integers, each at least 1 (a bool or a float is none)."""
    if not isinstance(value, list) or not value or \
            not all(type(v) is int and v >= 1 for v in value):
        raise ValueError(f"shape {value!r} is not a list of integers >= 1")
    return tuple(value)


def check_image(image: np.ndarray) -> np.ndarray:
    """The query image as float32; ValueError unless every pixel is a
    finite value in [0,1]."""
    image = np.asarray(image, dtype=np.float32)
    # NaN fails every comparison, so only the negated form rejects it
    if image.size and not (float(image.min()) >= 0.0 and float(image.max()) <= 1.0):
        raise ValueError("query image has pixels outside [0,1] or not finite")
    return image


class Oracle:
    """A victim answering queries in mode "soft" (logits) or "hard" (label
    only). Subclasses implement _predict(image) -> (label, logits or None)
    and raise before answering when the query cannot be answered; the two
    transports also say which ``input_shape`` the victim takes."""

    def __init__(self, mode: str, num_classes: int):
        if mode not in ("soft", "hard"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        self.mode = mode
        self.num_classes = num_classes
        self.count = 0
        self.log = []  # one QueryRecord per answered query

    def _predict(self, image):
        raise NotImplementedError

    def fresh(self):
        """The same victim, over the same connection, with its own count
        and log starting from zero."""
        other = copy.copy(self)
        other.count = 0
        other.log = []
        return other

    def close(self) -> None:
        """Releases what the victim holds open: nothing, unless a subclass
        says otherwise."""

    def query(self, image: np.ndarray, goal: AttackGoal | None = None) -> OracleResponse:
        label, logits = self._predict(image)
        self.count += 1
        self.log.append(QueryRecord(self.count, image_digest(image), label,
                                    None if goal is None else is_success(label, goal)))
        return OracleResponse(label, logits if self.mode == "soft" else None)


class LocalOracle(Oracle):
    """In-process victim model."""

    def __init__(self, model: nn.Model, mode: str = "soft"):
        super().__init__(mode, model.num_classes)
        self.model = model
        self.input_shape = model.input_shape

    def _predict(self, image):
        z = nn.forward(self.model, check_image(image))
        return int(np.argmax(z)), z


def require_soft(oracle) -> None:
    if getattr(oracle, "mode", None) != "soft":
        raise CapabilityError("this attack needs a soft-label (logit) oracle")
