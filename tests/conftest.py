from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from surgfed import (
    Architecture,
    ClassRegistry,
    ScenarioSpec,
    build_architecture,
    init_model,
)


@pytest.fixture
def small_registry() -> ClassRegistry:
    """Three clients over five classes: one shared by all, one partial,
    three unique."""
    return ClassRegistry(
        ["a", "b", "c", "d", "e"],
        [(0, 1, 2), (0, 1, 3), (0, 4)],
    )


@pytest.fixture
def tiny_arch() -> Architecture:
    return build_architecture(4, hidden=(6, 3))


@pytest.fixture
def tiny_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        n_per_client=60,
        d=5,
        M=4,
        K=2,
        seed=42,
        assignment=[[0, 1, 2], [1, 2, 3]],
    )


def random_params(arch: Architecture, head_classes: int, seed: int):
    """Model params with noisy (non-identity) batch-norm state, so tests
    notice when statistics are mishandled."""
    params = init_model(arch, head_classes, seed)
    rng = np.random.default_rng(seed + 777)
    for i in list(params.bn_mean):
        params.bn_mean[i] = rng.normal(size=params.bn_mean[i].shape)
        params.bn_var[i] = rng.uniform(0.5, 2.0, size=params.bn_var[i].shape)
        params.feature[f"{i}.gamma"] = rng.uniform(0.5, 1.5, size=params.feature[f"{i}.gamma"].shape)
        params.feature[f"{i}.beta"] = rng.normal(size=params.feature[f"{i}.beta"].shape)
    return params


@pytest.fixture
def traced_rise():
    """``traced_rise(fn)`` calls ``fn()`` with tracemalloc on and returns
    ``(result, rise)``: how far, in bytes, the traced peak rose above
    the traced size at the call's start."""

    def measure(fn):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    return measure
