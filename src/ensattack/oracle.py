"""Blackbox victim oracles: uniform query interface over in-process models.

An oracle owns its QueryLog and query counter; every call to query() appends
exactly one entry. The remote HTTP backend in client.py implements the same
interface, so attack code never knows which transport it is talking to.
"""

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import CapabilityError
from .losses import AttackGoal


@dataclass
class OracleResponse:
    kind: str  # "soft" or "hard"
    label: int  # argmax class (ties toward lowest index)
    logits: np.ndarray | None  # None for hard-label responses
    latency: float  # seconds spent answering this query


@dataclass
class QueryRecord:
    index: int  # 1-based query number
    digest: str  # sha256 of the query image bytes (first 16 hex chars)
    kind: str
    label: int
    success: bool | None  # goal-evaluated flag; None when no goal was given
    wall_time: float


@dataclass
class QueryLog:
    entries: list = field(default_factory=list)

    def append(self, record: QueryRecord) -> None:
        self.entries.append(record)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def image_digest(image: np.ndarray) -> str:
    data = np.ascontiguousarray(image, dtype="<f4").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def is_success(label: int, goal: AttackGoal) -> bool:
    """Argmax predicate on the predicted label: targeted wants label == y*,
    untargeted label != y."""
    if goal.mode == "targeted":
        return label == goal.label
    return label != goal.label


def check_image(image: np.ndarray) -> np.ndarray:
    """The query image as float32; ValueError unless every pixel is a
    finite value in [0,1]."""
    image = np.asarray(image, dtype=np.float32)
    # NaN fails every comparison, so only the negated form rejects it
    if image.size and not (float(image.min()) >= 0.0 and float(image.max()) <= 1.0):
        raise ValueError("query image has pixels outside [0,1] or not finite")
    return image


class LocalOracle:
    """In-process victim; mode "soft" returns logits, "hard" only a label."""

    def __init__(self, model: nn.Model, mode: str = "soft"):
        if mode not in ("soft", "hard"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        self.model = model
        self.mode = mode
        self.log = QueryLog()
        self.count = 0

    @property
    def num_classes(self) -> int:
        return self.model.num_classes

    def query(self, image: np.ndarray, goal: AttackGoal | None = None) -> OracleResponse:
        image = check_image(image)
        start = time.perf_counter()
        z = nn.forward(self.model, image)
        label = int(np.argmax(z))
        latency = time.perf_counter() - start
        if self.mode == "soft":
            resp = OracleResponse("soft", label, z, latency)
        else:
            resp = OracleResponse("hard", label, None, latency)
        self.count += 1
        self.log.append(QueryRecord(self.count, image_digest(image), resp.kind, label,
                                    None if goal is None else is_success(label, goal),
                                    time.time()))
        return resp


def require_soft(oracle) -> None:
    if getattr(oracle, "mode", None) != "soft":
        raise CapabilityError("this attack needs a soft-label (logit) oracle")
