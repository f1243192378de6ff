"""Exception hierarchy shared across the package."""


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
