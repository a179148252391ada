"""Exception types shared across the package, :func:`class_labels`, the one check
every class label (a dataset's, a loss target's, a confusion matrix's) goes through,
and :func:`seeded_rng`, the one check every seed goes through."""

import numpy as np


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
    """A stored configuration (checkpoint metadata, a CSV schema) or a stored experiment
    report is missing, malformed or incomplete."""


def class_labels(labels, n_classes: int, what: str = "label") -> np.ndarray:
    """`labels` as int64; raises :class:`ContractError` naming the first label that is
    not a whole number in ``[0, n_classes)``, so a float label is never truncated."""
    raw = np.asarray(labels)
    if raw.dtype.kind not in "biuf":
        raise ContractError(f"{what} values must be numbers, got dtype {raw.dtype}")
    bad = raw[(raw < 0) | (raw >= n_classes) | (raw != np.floor(raw))]
    if bad.size:
        raise ContractError(f"{what} {bad[0]} is not a whole number in [0, {n_classes})")
    return raw.astype(np.int64)


def seeded_rng(seed, what: str = "seed") -> np.random.Generator:
    """``np.random.default_rng(seed)``; raises :class:`ContractError` naming `what` when
    `seed` is not an ``int`` of at least 0 (a ``bool`` or a numpy integer is none)."""
    if type(seed) is not int or seed < 0:
        raise ContractError(f"{what} must be a non-negative int, got {seed!r}")
    return np.random.default_rng(seed)
