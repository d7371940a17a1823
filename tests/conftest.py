from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from surgfed import (
    Architecture,
    ClassRegistry,
    ExperimentConfig,
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


def class_layout(draw, K: int, M: int, layout: str) -> list[tuple[int, ...]]:
    """Per-client class lists over M classes covering every class:
    ``random`` subsets, one ``single_holder`` per class (a client left
    without a class takes one more holder of class 0), or ``all_shared``."""
    if layout == "all_shared":
        return [tuple(range(M))] * K
    if layout == "single_holder":
        owner = draw(st.lists(st.integers(0, K - 1), min_size=M, max_size=M))
        return [tuple(c for c in range(M) if owner[c] == k) or (0,) for k in range(K)]
    subsets = [tuple(sorted(draw(st.sets(st.integers(0, M - 1), min_size=1, max_size=M)))) for _ in range(K)]
    for i, c in enumerate(sorted(set(range(M)) - set().union(*subsets))):
        subsets[i % K] = tuple(sorted(set(subsets[i % K]) | {c}))
    return subsets


@st.composite
def experiment_configs(draw, method: str, strategy: str):
    """A small valid run of ``method`` under ``strategy``: K 1-6 clients,
    M 1-8 classes in a random, single-holder or all-shared layout, E 1-3
    local epochs over 1-3 rounds (T may leave part of a round unused),
    0-2 warmup epochs, a batch size that may leave a short last batch,
    with and without batch norm and sample weighting."""
    K, M = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    layout = draw(st.sampled_from(["random", "single_holder", "all_shared"]))
    shift = draw(st.sampled_from([0.0, 0.5]))
    spec = ScenarioSpec(
        n_per_client=draw(st.integers(40, 60)), d=3, M=M, K=K, seed=draw(st.integers(0, 2**16)),
        assignment=class_layout(draw, K, M, layout), skew="feature_shift" if shift else "iid",
        shift_sigma=shift, n_test=draw(st.integers(30, 50)),
    )
    E = draw(st.integers(1, 3))
    return ExperimentConfig(
        scenario=spec, method=method, strategy=strategy, E=E,
        T=E * draw(st.integers(1, 3)) + draw(st.integers(0, E - 1)),
        lr=draw(st.sampled_from([0.05, 0.2])), batch_size=draw(st.integers(3, 20)),
        warmup_epochs=draw(st.integers(0, 2)), warmup_lr=0.05,
        hidden=draw(st.sampled_from([(1,), (4,), (4, 3)])), use_batchnorm=draw(st.booleans()),
        sample_weighted=draw(st.booleans()),
    )
