"""Exception types shared across the package."""


class VistabError(Exception):
    """Base class for all library errors."""


class DimensionError(VistabError):
    """Shapes of the operands are incompatible."""


class CapacityError(VistabError):
    """A token sequence exceeds the encoder's maximum length."""


class ContractError(VistabError):
    """A documented precondition was violated."""


class StateError(VistabError):
    """An object was used before it was ready (e.g. transform before fit)."""


class TapeError(ContractError):
    """Gradient tape misuse: replayed twice, or loss not recorded on a tape."""


class WeightFormatError(VistabError):
    """Weight container could not be parsed.

    ``offset`` is the absolute byte position at which decoding failed,
    when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class MissingTensorError(WeightFormatError):
    """A required tensor name is absent from a weight container."""


class CsvParseError(VistabError):
    """CSV input is malformed; message carries the row/column location."""


class StratificationError(VistabError):
    """Stratified splitting could not give every class a training sample."""


class ConfigError(VistabError):
    """A stored configuration (e.g. checkpoint metadata) is missing, malformed or incomplete."""
