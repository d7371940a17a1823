"""Exception types shared by all surgfed modules, and the field checks
every config dataclass runs on itself."""

from __future__ import annotations

import sys

import numpy as np


class ConfigError(ValueError):
    """Bad user-supplied configuration: shapes, ranges, missing fields.

    ``field`` names the offending field when one field is at fault, and
    the message then begins with it."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field} {message}")
        self.field = field


def need_int(value, field: str, low: int | None = None) -> int:
    """``value`` as an int if it is an integer, a numpy integer too (not
    a bool of either kind), that fits in a signed 64-bit integer and is
    at least ``low``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ConfigError("must be an integer that fits in 64 bits", field)
    value = int(value)
    if not -2**63 <= value < 2**63:
        raise ConfigError("must be an integer that fits in 64 bits", field)
    if low is not None and value < low:
        raise ConfigError(f"must be at least {low}", field)
    return value


def need_number(value, field: str) -> float:
    """``value`` as a float if it is a finite int or float, a numpy integer
    or floating value too (not a bool of either kind).  The range test
    also rejects NaN and integers beyond the float range."""
    if isinstance(value, (np.integer, np.floating)):
        value = value.item()  # an int or a float; a long double stays one
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.floating))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError("must be a finite number", field)
    return float(value)


def need_flag(value, field: str) -> bool:
    """``value`` if it is a real bool."""
    if not isinstance(value, bool):
        raise ConfigError("must be true or false", field)
    return value


def need_binary(labels: np.ndarray) -> np.ndarray:
    """``labels == 1`` if every entry of ``labels`` is exactly 0 or 1,
    whatever its dtype; checked before any cast, which would turn 0.5
    into 0."""
    is_pos = labels == 1
    if not np.all(is_pos | (labels == 0)):
        raise ConfigError("labels must be exactly 0 or 1")
    return is_pos


class ContractViolation(RuntimeError):
    """Internal inconsistency between objects that should agree (stale
    activations, head width not matching a registry, and so on)."""


class NumericError(ArithmeticError):
    """Non-finite value produced during a numeric computation.

    ``layer`` is the index of the layer that produced the value when the
    failure happened inside a forward pass, ``client`` the client id when
    it happened during local training, and ``round`` the communication
    round of the run it happened in (0 for the warmup).
    """

    def __init__(self, message: str, layer: int | None = None, client: int | None = None,
                 round: int | None = None):
        super().__init__(message)
        self.layer = layer
        self.client = client
        self.round = round
