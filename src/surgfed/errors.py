"""Exception types shared by all surgfed modules."""

from __future__ import annotations


class ConfigError(ValueError):
    """Bad user-supplied configuration: shapes, ranges, missing fields."""


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
