from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgfed import (
    ClassRegistry,
    ConfigError,
    clients_with_class,
    init_model,
    sharing_profile,
)


def test_basic_construction(small_registry) -> None:
    assert small_registry.n_classes == 5
    assert small_registry.n_clients == 3
    assert small_registry.global_classes == ("a", "b", "c", "d", "e")
    assert small_registry.client_classes == ((0, 1, 2), (0, 1, 3), (0, 4))


def test_client_lists_are_sorted_and_coerced() -> None:
    reg = ClassRegistry(["x", "y", "z"], [(2, 0), (1,)])
    assert reg.client_classes[0] == (0, 2)


def test_rejects_empty_class_list() -> None:
    with pytest.raises(ConfigError):
        ClassRegistry([], [(0,)])


def test_rejects_duplicate_names() -> None:
    with pytest.raises(ConfigError):
        ClassRegistry(["a", "a"], [(0, 1)])


def test_rejects_empty_client() -> None:
    with pytest.raises(ConfigError):
        ClassRegistry(["a", "b"], [(0, 1), ()])


def test_rejects_duplicate_class_at_client() -> None:
    with pytest.raises(ConfigError):
        ClassRegistry(["a", "b"], [(0, 0), (1,)])


def test_rejects_unknown_index() -> None:
    with pytest.raises(ConfigError):
        ClassRegistry(["a", "b"], [(0, 5)])


def test_class_ids_are_checked_not_coerced(tiny_arch) -> None:
    """A bool, float or string class id used to be read through ``int``:
    ``[1.9, 0]`` became classes 0 and 1 and ``class_ids=[0.5]`` drew
    column 0's initial weights.  Numpy integers are still ids."""
    for bad in ([[1.9, 0], [True]], [["1", 0]], [[0, 1.0]], [[0, np.float64(1.0)]]):
        with pytest.raises(ConfigError, match="must be integers"):
            ClassRegistry(["a", "b"], bad)
    reg = ClassRegistry(["a", "b"], [[np.int64(1), np.int32(0)], [np.uint8(1)]])
    assert reg.client_classes == ((0, 1), (1,))
    assert all(type(c) is int for cs in reg.client_classes for c in cs)
    for bad in ([0.5], [True], ["0"], [-1]):
        with pytest.raises(ConfigError):
            init_model(tiny_arch, 1, seed=0, class_ids=bad)
    np.testing.assert_array_equal(init_model(tiny_arch, 1, seed=0, class_ids=[np.int64(3)]).head_W,
                                  init_model(tiny_arch, 1, seed=0, class_ids=[3]).head_W)


def test_rejects_uncovered_class() -> None:
    with pytest.raises(ConfigError, match="held by no client"):
        ClassRegistry(["a", "b", "c"], [(0,), (1,)])


def test_rejects_no_clients() -> None:
    with pytest.raises(ConfigError):
        ClassRegistry(["a"], [])


def test_clients_with_class_ascending(small_registry) -> None:
    assert clients_with_class(small_registry, 0) == (0, 1, 2)
    assert clients_with_class(small_registry, 1) == (0, 1)
    assert clients_with_class(small_registry, 3) == (1,)
    assert clients_with_class(small_registry, 4) == (2,)
    with pytest.raises(ConfigError):
        clients_with_class(small_registry, 5)


@pytest.mark.parametrize("bad", [True, 1.0, "1", -1, np.float64(0.0)])
def test_clients_with_class_takes_an_integer_id(small_registry, bad) -> None:
    """``True`` used to be read as class 1 and ``1.0`` raised
    ``TypeError``; a numpy integer is still an id."""
    with pytest.raises(ConfigError):
        clients_with_class(small_registry, bad)
    assert clients_with_class(small_registry, np.int64(1)) == (0, 1)


def test_sharing_profile(small_registry) -> None:
    prof = sharing_profile(small_registry)
    assert prof.shared_by_all == (0,)
    assert prof.partially_shared == (1,)
    assert prof.unique == (2, 3, 4)


def test_single_client_everything_shared() -> None:
    # with one client every class is held by all clients
    reg = ClassRegistry(["a", "b"], [(0, 1)])
    prof = sharing_profile(reg)
    assert prof.shared_by_all == (0, 1)
    assert prof.unique == ()


def test_two_sites_with_overlapping_dictionaries() -> None:
    """Two clients over 20 classes: the first holds 14, the second 13,
    and 7 of those coincide.  The profile must count 7 shared and 13
    unique classes with nothing in between."""
    first = tuple(range(14))           # classes 0..13
    second = tuple(range(7, 20))       # classes 7..19, overlap = 7..13
    reg = ClassRegistry([f"c{i}" for i in range(20)], [first, second])
    prof = sharing_profile(reg)
    assert len(prof.shared_by_all) == 7
    assert len(prof.unique) == 13
    assert prof.partially_shared == ()


@st.composite
def registries(draw):
    M = draw(st.integers(min_value=1, max_value=8))
    K = draw(st.integers(min_value=1, max_value=5))
    subsets = []
    for _ in range(K):
        subset = draw(
            st.sets(st.integers(min_value=0, max_value=M - 1), min_size=1, max_size=M)
        )
        subsets.append(tuple(sorted(subset)))
    # ensure coverage by topping up missing classes round-robin
    covered = set()
    for s in subsets:
        covered.update(s)
    for i, c in enumerate(sorted(set(range(M)) - covered)):
        k = i % K
        subsets[k] = tuple(sorted(set(subsets[k]) | {c}))
    return ClassRegistry([f"g{i}" for i in range(M)], subsets)


@given(registries())
@settings(max_examples=150, deadline=None)
def test_profile_partitions_the_classes(reg) -> None:
    prof = sharing_profile(reg)
    combined = sorted(prof.shared_by_all + prof.partially_shared + prof.unique)
    assert combined == list(range(reg.n_classes))


@given(registries())
@settings(max_examples=150, deadline=None)
def test_clients_with_class_matches_membership(reg) -> None:
    for c in range(reg.n_classes):
        holders = clients_with_class(reg, c)
        assert list(holders) == sorted(holders)
        assert len(holders) >= 1
        for k in range(reg.n_clients):
            assert (k in holders) == (c in reg.client_classes[k])
