"""Exception hierarchy shared across the package, and the two checks every
numeric setting goes through: ``check_number`` and ``check_int``."""

import math
import numbers


class EnsAttackError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(EnsAttackError, ValueError):
    """An input tensor does not match the shape a model or op expects."""


class LayerSpecError(EnsAttackError, ValueError):
    """A layer stack does not compose into a valid classifier."""


class DegenerateClassifierError(EnsAttackError, ValueError):
    """Fewer than two classes; adversarial losses are undefined."""


class EnsembleArityError(EnsAttackError, ValueError):
    """Ensemble outputs and weight vector have mismatched lengths, or no
    member has a nonzero weight."""


class TrainingDivergedError(EnsAttackError, RuntimeError):
    """Training loss became non-finite."""


class FormatError(EnsAttackError, ValueError):
    """A persisted file is corrupt or has the wrong magic/version.

    ``offset`` is the byte offset at which decoding failed.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class ConfigError(EnsAttackError, ValueError):
    """An experiment configuration is inconsistent. CLI exit code 2."""


class TransportError(EnsAttackError, RuntimeError):
    """A remote oracle could not be reached or failed mid-attack.

    ``partial_log`` preserves whatever query log existed when the
    transport failed, so an interrupted attack is still auditable.
    """

    def __init__(self, message: str, partial_log=None):
        super().__init__(message)
        self.partial_log = partial_log


class ProtocolError(TransportError):
    """The remote oracle answered with a malformed payload."""


class CapabilityError(EnsAttackError, RuntimeError):
    """The remote oracle cannot serve what the caller needs (e.g. logits
    requested from a hard-label server)."""


def check_number(name: str, value, positive: bool = True) -> None:
    """ValueError unless value is a finite real number, > 0 or (with
    positive=False) >= 0. A bool is not a number here, though Python counts
    it as an int, and json.load reads Infinity and NaN."""
    try:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool) \
            and math.isfinite(value) and (value > 0 if positive else value >= 0)
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite number {'>' if positive else '>='} 0, "
                         f"got {value!r}")


def check_int(name: str, value, minimum: int | None = None, error=ValueError) -> None:
    """``error`` unless value is a Python or NumPy integer, never a bool,
    and at least ``minimum`` when one is given."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or \
            (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
