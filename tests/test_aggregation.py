from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgfed import (
    ClassRegistry,
    ClientState,
    ConfigError,
    ContractViolation,
    STRATEGIES,
    LabeledSet,
    NumericError,
    ParamSet,
    build_architecture,
    collect_bn_stats,
    init_model,
    mean_arrays,
    params_equal,
    server_update,
    simulator,
    surgical_head_update,
)

from conftest import class_layout, random_params


def _heads_for(registry: ClassRegistry, n_feat: int, seed: int):
    rng = np.random.default_rng(seed)
    heads = []
    for cs in registry.client_classes:
        heads.append((rng.normal(size=(n_feat, len(cs))), rng.normal(size=len(cs)), cs))
    return heads


# --- the independent FedAvg reference -------------------------------------------


def fedavg_feature(param_sets, weights=None):
    """Average every feature tensor, including batch-norm gamma/beta and
    the running statistics, one ``mean_arrays`` call per tensor.
    Returns ``(feature, bn_mean, bn_var)``."""
    def average(group):
        names = sorted(getattr(param_sets[0], group))
        return {k: mean_arrays([getattr(ps, group)[k] for ps in param_sets], weights) for k in names}

    return average("feature"), average("bn_mean"), average("bn_var")


def fedavg_full(param_sets, weights=None) -> ParamSet:
    """Plain federated averaging of entire parameter sets, heads of equal
    width included: the classical aggregation, written independently of
    the per-class merge."""
    if len({ps.head_cols for ps in param_sets}) != 1:
        raise ContractViolation("fedavg_full needs equal head widths")
    feature, bn_mean, bn_var = fedavg_feature(param_sets, weights)
    head_W = mean_arrays([ps.head_W for ps in param_sets], weights)
    head_b = mean_arrays([ps.head_b for ps in param_sets], weights)
    return ParamSet(feature=feature, bn_mean=bn_mean, bn_var=bn_var, head_W=head_W, head_b=head_b)


# --- mean_arrays ------------------------------------------------------------


def test_mean_arrays_literal() -> None:
    out = mean_arrays([np.array([1.0, 0.0, 5.0]), np.array([3.0, 2.0, 7.0])])
    np.testing.assert_array_equal(out, [2.0, 1.0, 6.0])


def test_mean_arrays_weighted() -> None:
    out = mean_arrays([np.array([0.0]), np.array([10.0])], weights=[3, 1])
    np.testing.assert_array_equal(out, [2.5])


def test_mean_arrays_validation() -> None:
    with pytest.raises(ConfigError):
        mean_arrays([])
    with pytest.raises(ConfigError):
        mean_arrays([np.zeros(2)], weights=[1, 2])
    with pytest.raises(ConfigError):
        mean_arrays([np.zeros(2), np.zeros(2)], weights=[1, -1])


def test_mean_arrays_does_not_mutate_inputs() -> None:
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 4.0])
    mean_arrays([a, b])
    np.testing.assert_array_equal(a, [1.0, 2.0])


def test_columnwise_mean_equals_matrix_mean() -> None:
    """The per-class merge averages columns one at a time while the
    classical path averages whole matrices.  With a shared left-to-right
    accumulator the two must agree bit for bit."""
    rng = np.random.default_rng(11)
    for K in (2, 3, 5, 7):
        mats = [rng.normal(size=(6, 4)) for _ in range(K)]
        whole = mean_arrays(mats)
        by_col = np.column_stack([mean_arrays([m[:, j] for m in mats]) for j in range(4)])
        np.testing.assert_array_equal(whole, by_col)


# --- per-class head merge -----------------------------------------------------


def test_head_merge_literal_example() -> None:
    reg = ClassRegistry(["a", "b"], [(0, 1), (0,)])
    heads = [
        (np.array([[1.0, 10.0], [3.0, 30.0]]), np.array([5.0, 50.0]), (0, 1)),
        (np.array([[3.0], [5.0]]), np.array([7.0]), (0,)),
    ]
    W, b = surgical_head_update(heads, reg)
    # class 0 is averaged over both clients, class 1 passes through
    np.testing.assert_array_equal(W[:, 0], [2.0, 4.0])
    assert b[0] == 6.0
    np.testing.assert_array_equal(W[:, 1], [10.0, 30.0])
    assert b[1] == 50.0


def test_singleton_class_passthrough_is_bit_exact(small_registry) -> None:
    heads = _heads_for(small_registry, 5, seed=2)
    W, b = surgical_head_update(heads, small_registry)
    # classes 2, 3, 4 live at exactly one client each
    for c, (k, j) in {2: (0, 2), 3: (1, 2), 4: (2, 1)}.items():
        np.testing.assert_array_equal(W[:, c], heads[k][0][:, j])
        assert b[c] == heads[k][1][j]


def test_homogeneous_merge_equals_plain_average() -> None:
    reg = ClassRegistry(["a", "b", "c"], [(0, 1, 2)] * 4)
    rng = np.random.default_rng(7)
    heads = [(rng.normal(size=(5, 3)), rng.normal(size=3), (0, 1, 2)) for _ in range(4)]
    W, b = surgical_head_update(heads, reg)
    np.testing.assert_array_equal(W, mean_arrays([h[0] for h in heads]))
    np.testing.assert_array_equal(b, mean_arrays([h[1] for h in heads]))


def test_non_contributors_cannot_interfere(small_registry) -> None:
    heads = _heads_for(small_registry, 5, seed=3)
    W1, b1 = surgical_head_update(heads, small_registry)
    # client 2 holds classes (0, 4); wreck everything it owns except class 0
    heads[2][0][:, 1] += 1e6
    heads[2][1][1] -= 1e6
    W2, b2 = surgical_head_update(heads, small_registry)
    for c in (1, 2, 3):
        np.testing.assert_array_equal(W1[:, c], W2[:, c])
        assert b1[c] == b2[c]
    assert not np.array_equal(W1[:, 4], W2[:, 4])


def test_merge_weighted_by_client(small_registry) -> None:
    heads = _heads_for(small_registry, 4, seed=4)
    W, b = surgical_head_update(heads, small_registry, weights=[1.0, 3.0, 0.5])
    # class 1 is held by clients 0 and 1 with weights 1 and 3
    expected = (heads[0][0][:, 1] * 1.0 + heads[1][0][:, 1] * 3.0) / 4.0
    np.testing.assert_allclose(W[:, 1], expected, rtol=1e-15)


def test_merge_contract_checks(small_registry) -> None:
    heads = _heads_for(small_registry, 4, seed=5)
    with pytest.raises(ContractViolation):
        surgical_head_update(heads[:2], small_registry)
    bad = list(heads)
    W0, b0, _ = bad[0]
    bad[0] = (W0, b0, (0, 1, 4))
    with pytest.raises(ContractViolation):
        surgical_head_update(bad, small_registry)
    bad[0] = (W0[:, :2], b0[:2], (0, 1, 2))
    with pytest.raises(ContractViolation):
        surgical_head_update(bad, small_registry)


@st.composite
def merge_cases(draw):
    M = draw(st.integers(min_value=1, max_value=6))
    K = draw(st.integers(min_value=1, max_value=5))
    subsets = []
    for _ in range(K):
        s = draw(st.sets(st.integers(min_value=0, max_value=M - 1), min_size=1, max_size=M))
        subsets.append(tuple(sorted(s)))
    covered = set().union(*subsets)
    for i, c in enumerate(sorted(set(range(M)) - covered)):
        k = i % K
        subsets[k] = tuple(sorted(set(subsets[k]) | {c}))
    reg = ClassRegistry([f"g{i}" for i in range(M)], subsets)
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return reg, _heads_for(reg, 3, seed)


@given(merge_cases())
@settings(max_examples=120, deadline=None)
def test_merge_equals_sequential_contributor_mean(case) -> None:
    reg, heads = case
    W, b = surgical_head_update(heads, reg)
    for c in range(reg.n_classes):
        holders = [k for k, cs in enumerate(reg.client_classes) if c in cs]
        acc = None
        for k in holders:
            Wk, bk, cs = heads[k]
            col = np.concatenate([Wk[:, cs.index(c)], [bk[cs.index(c)]]])
            acc = col.copy() if acc is None else acc + col
        acc /= len(holders)
        np.testing.assert_array_equal(W[:, c], acc[:-1])
        assert b[c] == acc[-1]


def _per_class_merge(heads, registry: ClassRegistry, weights=None):
    """Independent oracle: the per-class merge written as one
    ``mean_arrays`` call per global class over its holders' columns."""
    M = registry.n_classes
    n_feat = heads[0][0].shape[0]
    global_W = np.empty((n_feat, M))
    global_b = np.empty(M)
    for c in range(M):
        holders = [k for k, cs in enumerate(registry.client_classes) if c in cs]
        cols = []
        for k in holders:
            W, b, classes = heads[k]
            j = tuple(classes).index(c)
            cols.append(np.concatenate([W[:, j], [b[j]]]))
        merged = mean_arrays(cols, None if weights is None else [weights[k] for k in holders])
        global_W[:, c] = merged[:-1]
        global_b[c] = merged[-1]
    return global_W, global_b


def _assert_bitwise(got, expected) -> None:
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@st.composite
def oracle_merge_cases(draw):
    # K past 8: a (K, 1) stack reduced by np.add.reduce sums pairwise from there
    M = draw(st.integers(min_value=1, max_value=8))
    K = draw(st.integers(min_value=1, max_value=12))
    layout = draw(st.sampled_from(["random", "single_holder", "all_shared"]))
    reg = ClassRegistry([f"g{i}" for i in range(M)], class_layout(draw, K, M, layout))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, 1e-300, -1e300, 0.1, -0.3])
    heads = []
    for cs in reg.client_classes:
        W = rng.normal(size=(3, len(cs)))
        b = rng.normal(size=len(cs))
        # sprinkle exact values whose sums are sensitive to order and sign
        W[rng.random(W.shape) < 0.3] = rng.choice(special)
        b[rng.random(b.shape) < 0.3] = rng.choice(special)
        heads.append((W, b, cs))
    weights = None
    if draw(st.booleans()):
        weights = [draw(st.sampled_from([0.25, 1.0, 3.0, 0.1, 7.5, 1e-3])) for _ in range(K)]
    return reg, heads, weights


@given(oracle_merge_cases())
@settings(max_examples=300, deadline=None)
def test_merge_equals_per_class_mean_arrays_oracle(case) -> None:
    reg, heads, weights = case
    W, b = surgical_head_update(heads, reg, weights)
    W_ref, b_ref = _per_class_merge(heads, reg, weights)
    _assert_bitwise(W, W_ref)
    _assert_bitwise(b, b_ref)


def test_merge_keeps_negative_zero_of_a_single_holder() -> None:
    reg = ClassRegistry(["a", "b"], [(0, 1), (0,)])
    heads = [
        (np.array([[-0.0, -0.0], [2.0, -0.0]]), np.array([-0.0, -0.0]), (0, 1)),
        (np.array([[-0.0], [1.0]]), np.array([-0.0]), (0,)),
    ]
    W, b = surgical_head_update(heads, reg)
    # class 1 lives at client 0 only: its -0.0 entries pass through as -0.0
    assert np.signbit(W[0, 1]) and np.signbit(W[1, 1]) and np.signbit(b[1])
    # class 0 is shared: -0.0 + -0.0 stays -0.0, as in the oracle
    _assert_bitwise(W, _per_class_merge(heads, reg)[0])
    assert np.signbit(b[0])


def test_merge_rejects_a_class_whose_holders_weigh_nothing(small_registry) -> None:
    heads = _heads_for(small_registry, 4, seed=6)
    # class 4 is held by client 2 alone
    with pytest.raises(ConfigError, match="positive"):
        surgical_head_update(heads, small_registry, weights=[1.0, 1.0, 0.0])
    with pytest.raises(ConfigError, match="positive"):
        _per_class_merge(heads, small_registry, weights=[1.0, 1.0, 0.0])
    with pytest.raises(ConfigError):
        surgical_head_update(heads, small_registry, weights=[1.0, 1.0])


# --- feature strategies ---------------------------------------------------------


def test_fedavg_feature_averages_everything(tiny_arch) -> None:
    sets = [random_params(tiny_arch, 2, seed=s) for s in (1, 2, 3)]
    feature, bn_mean, bn_var = fedavg_feature(sets)
    np.testing.assert_array_equal(
        feature["0.W"], mean_arrays([ps.feature["0.W"] for ps in sets])
    )
    np.testing.assert_array_equal(bn_mean[1], mean_arrays([ps.bn_mean[1] for ps in sets]))
    np.testing.assert_array_equal(bn_var[1], mean_arrays([ps.bn_var[1] for ps in sets]))


def test_fedbn_plus_pins_stats_to_pretrained(small_registry, tiny_arch) -> None:
    clients = _client_states(small_registry, tiny_arch, seed=26)
    pre_mean = {1: np.array([9.0] * 6)}
    pre_var = {1: np.array([0.25] * 6)}
    gp, _ = server_update(clients, small_registry, "fedbn_plus", pretrained_bn=(pre_mean, pre_var))
    np.testing.assert_array_equal(
        gp.feature["1.gamma"], mean_arrays([c.params.feature["1.gamma"] for c in clients])
    )
    np.testing.assert_array_equal(gp.bn_mean[1], pre_mean[1])
    np.testing.assert_array_equal(gp.bn_var[1], pre_var[1])
    assert gp.bn_mean[1] is not pre_mean[1]
    with pytest.raises(ConfigError):
        server_update(clients, small_registry, "fedbn_plus", pretrained_bn=({}, {}))


def test_collect_bn_stats_matches_manual(tiny_arch) -> None:
    params = init_model(tiny_arch, 2, seed=6)
    x = np.random.default_rng(7).normal(size=(64, 4))
    mean_stats, var_stats = collect_bn_stats(params, tiny_arch, x)
    pre_bn = x @ params.feature["0.W"] + params.feature["0.b"]
    np.testing.assert_allclose(mean_stats[1], pre_bn.mean(axis=0), rtol=1e-15)
    np.testing.assert_allclose(var_stats[1], pre_bn.var(axis=0), rtol=1e-15)


def test_collect_bn_stats_does_not_touch_params(tiny_arch) -> None:
    params = random_params(tiny_arch, 2, seed=8)
    snap = params.copy()
    collect_bn_stats(params, tiny_arch, np.random.default_rng(9).normal(size=(16, 4)))
    assert params_equal(params, snap)


def test_fedavg_full_requires_equal_widths(tiny_arch) -> None:
    a = init_model(tiny_arch, 2, seed=1)
    b = init_model(tiny_arch, 3, seed=1)
    with pytest.raises(ContractViolation):
        fedavg_full([a, b])


# --- full server round ---------------------------------------------------------


def _client_states(registry: ClassRegistry, arch, seed: int):
    rng = np.random.default_rng(seed)
    states = []
    for k, cs in enumerate(registry.client_classes):
        params = random_params(arch, len(cs), seed=seed + k)
        n = 20
        x = rng.normal(size=(n, arch.in_dim))
        y = (rng.random((n, len(cs))) < 0.5).astype(float)
        states.append(
            ClientState(
                id=k, arch=arch, params=params, classes=cs,
                train=LabeledSet(x, y), val=LabeledSet(x, y),
                rng=np.random.default_rng(k),
            )
        )
    return states


def test_server_update_round_trip(small_registry, tiny_arch) -> None:
    clients = _client_states(small_registry, tiny_arch, seed=21)
    gp, sendbacks = server_update(clients, small_registry)
    assert gp.head_cols == small_registry.n_classes
    assert len(sendbacks) == 3
    for k, ps in enumerate(sendbacks):
        cs = small_registry.client_classes[k]
        assert ps.head_cols == len(cs)
        np.testing.assert_array_equal(ps.head_W, gp.head_W[:, list(cs)])
        # everyone gets the averaged running statistics under fedavg
        np.testing.assert_array_equal(ps.bn_mean[1], gp.bn_mean[1])
        np.testing.assert_array_equal(ps.feature["0.W"], gp.feature["0.W"])


def test_reconstruct_client_head(small_registry, tiny_arch) -> None:
    """``server_update`` rebuilds each client's head from the global
    columns of its classes, in sorted class order, as a copy in C order:
    a fancy-indexed slice of the global head is F-ordered, and the
    matmuls of the next round take another BLAS path on it and round
    differently."""
    clients = _client_states(small_registry, tiny_arch, seed=27)
    gp, sendbacks = server_update(clients, small_registry)
    for k, ps in enumerate(sendbacks):
        cols = list(small_registry.client_classes[k])
        np.testing.assert_array_equal(ps.head_W, gp.head_W[:, cols])
        np.testing.assert_array_equal(ps.head_b, gp.head_b[cols])
        assert ps.head_W.flags.c_contiguous and ps.head_b.flags.c_contiguous
        assert not np.shares_memory(ps.head_W, gp.head_W)
        assert not np.shares_memory(ps.head_b, gp.head_b)


def test_server_update_fedbn_plus_keeps_local_stats(small_registry, tiny_arch) -> None:
    clients = _client_states(small_registry, tiny_arch, seed=22)
    own_stats = [c.params.bn_mean[1].copy() for c in clients]
    pre = ({1: np.zeros(6)}, {1: np.ones(6)})
    gp, sendbacks = server_update(clients, small_registry, "fedbn_plus", pretrained_bn=pre)
    np.testing.assert_array_equal(gp.bn_mean[1], 0.0)
    np.testing.assert_array_equal(gp.bn_var[1], 1.0)
    for ps, stats in zip(sendbacks, own_stats):
        np.testing.assert_array_equal(ps.bn_mean[1], stats)


def test_server_update_idempotent_on_consensus(small_registry, tiny_arch) -> None:
    """Aggregating a fleet that already agrees must hand back the same
    model.  Exact when the divisor is a power of two, within an ulp
    otherwise."""
    clients = _client_states(small_registry, tiny_arch, seed=23)
    gp, sendbacks = server_update(clients, small_registry)
    for c, ps in zip(clients, sendbacks):
        c.params = ps
    gp2, _ = server_update(clients, small_registry)
    for key in gp.feature:
        np.testing.assert_allclose(gp2.feature[key], gp.feature[key], rtol=3e-16, atol=0.0)
    np.testing.assert_allclose(gp2.head_W, gp.head_W, rtol=3e-16, atol=0.0)


def test_server_update_idempotent_exact_for_power_of_two() -> None:
    reg = ClassRegistry(["a", "b"], [(0, 1), (0, 1)])
    arch = build_architecture(3, hidden=(4,), use_batchnorm=False)
    clients = _client_states(reg, arch, seed=24)
    _, sendbacks = server_update(clients, reg)
    for c, ps in zip(clients, sendbacks):
        c.params = ps
    _, sendbacks2 = server_update(clients, reg)
    assert params_equal(sendbacks2[0], sendbacks[0])
    assert params_equal(sendbacks2[1], sendbacks[1])


def test_server_update_contracts(small_registry, tiny_arch) -> None:
    clients = _client_states(small_registry, tiny_arch, seed=25)
    with pytest.raises(ConfigError):
        server_update(clients, small_registry, "fedbn")
    with pytest.raises(ConfigError):
        server_update(clients, small_registry, "fedbn_plus")  # needs pretrained stats
    with pytest.raises(ConfigError):
        server_update(clients, small_registry, "median")
    clients[0].classes = (0, 1, 3)
    with pytest.raises(ContractViolation):
        server_update(clients, small_registry)
    with pytest.raises(ContractViolation):
        server_update(clients[:2], small_registry)


def test_server_update_names_the_server_when_the_merge_overflows() -> None:
    """Finite client tensors whose weighted mean is not finite: with
    weights 1600, ``W * w`` of a head near 1e306 is inf.  The round
    raises ``NumericError`` naming the merged tensor and the server, with
    no client; a feature tensor names its layer too.  At unit weights the
    same heads merge to a finite mean."""
    reg = ClassRegistry(["a", "b"], [(0, 1), (0, 1)])
    arch = build_architecture(3, hidden=(4, 2), use_batchnorm=False)
    clients = _client_states(reg, arch, seed=26)
    for c in clients:
        c.params.head_W[...] = 1e306
    gp, _ = server_update(clients, reg)
    np.testing.assert_array_equal(gp.head_W, 1e306)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="head_W on the server") as err:
        server_update(clients, reg, weights=[1600, 1600])
    assert (err.value.client, err.value.layer) == (None, None)
    for c in clients:
        c.params.feature["2.W"][0, 0] = 1e306
    with np.errstate(over="ignore"), pytest.raises(NumericError, match=r"feature\['2.W'\] on the server") as err:
        server_update(clients, reg, weights=[1600, 1600])
    assert (err.value.client, err.value.layer) == (None, 2)


# --- every exchanging method against an independent FedAvg oracle --------------

_EXCHANGING = tuple(m for m, row in simulator.METHOD_TABLE.items() if row.exchanges)
_FULL_WIDTH = ("vanilla_fl", "fl_partial_loss")


def _round_oracle(method, strategy, clients, registry, pretrained_bn, weights):
    """One round of ``method`` written with whole-tensor FedAvg:
    ``fedavg_feature`` for the feature extractor, ``fedavg_full`` for a
    full-width head, one ``mean_arrays`` call per class for the surgical
    head.  Returns ``(global ParamSet | None, sendbacks)``."""
    sets = [c.params for c in clients]
    feature, avg_mean, avg_var = fedavg_feature(sets, weights)
    if strategy == "fedavg":
        kept = [(avg_mean, avg_var)] * len(sets)
        global_stats = (avg_mean, avg_var)
    else:
        kept = [(ps.bn_mean, ps.bn_var) for ps in sets]
        global_stats = pretrained_bn
    gp = None
    if method == "pfl":
        heads = [(ps.head_W, ps.head_b) for ps in sets]
    elif method in _FULL_WIDTH:
        full = fedavg_full(sets, weights)
        heads = [(full.head_W, full.head_b)] * len(sets)
        gp = full if strategy == "fedavg" else ParamSet(feature, *global_stats, full.head_W, full.head_b)
    else:
        W, b = _per_class_merge(
            [(ps.head_W, ps.head_b, c.classes) for c, ps in zip(clients, sets)], registry, weights
        )
        heads = [(W[:, list(cs)], b[list(cs)]) for cs in registry.client_classes]
        gp = ParamSet(feature, *global_stats, W, b)
    sendbacks = [ParamSet(feature, *kept[k], *heads[k]) for k in range(len(sets))]
    return gp, sendbacks


def _assert_params_bitwise(got: ParamSet, want: ParamSet) -> None:
    for group in ("feature", "bn_mean", "bn_var"):
        g, w = getattr(got, group), getattr(want, group)
        assert sorted(g) == sorted(w)
        for key in g:
            _assert_bitwise(g[key], w[key])
    _assert_bitwise(got.head_W, want.head_W)
    _assert_bitwise(got.head_b, want.head_b)


@st.composite
def round_cases(draw, method=None, strategy=None, special=(0.0, -0.0, 1e-300, -1e300, 0.1, -0.3)):
    """A round's inputs; ``method`` and ``strategy`` are drawn unless
    given, and ``special`` values are planted in every tensor.  A
    one-unit hidden layer, and a full-width head over M=1 classes, make
    tensors one value wide."""
    reg, _, _ = draw(oracle_merge_cases())
    method = method or draw(st.sampled_from(_EXCHANGING))
    strategy = strategy or draw(st.sampled_from([s for s in STRATEGIES if s != "fedbn" or method == "pfl"]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    arch = build_architecture(3, hidden=draw(st.sampled_from([(4,), (1,)])))
    rng = np.random.default_rng(seed)
    special = np.array(special)
    clients = []
    for k, cs in enumerate(reg.client_classes):
        params = random_params(arch, reg.n_classes if method in _FULL_WIDTH else len(cs), seed=seed + k)
        for arr in [*params.feature.values(), *params.bn_mean.values(), params.head_W, params.head_b]:
            arr[rng.random(arr.shape) < 0.3] = rng.choice(special)
        n = draw(st.integers(min_value=1, max_value=300))
        y = np.zeros((n, params.head_cols))
        clients.append(
            ClientState(
                id=k, arch=arch, params=params, classes=cs,
                train=LabeledSet(np.zeros((n, 3)), y), val=LabeledSet(np.zeros((1, 3)), y[:1]),
                rng=np.random.default_rng(k),
            )
        )
    pretrained = tuple({i: rng.normal(size=v.shape) for i, v in clients[0].params.bn_mean.items()}
                       for _ in range(2))
    weights = [c.train.n for c in clients] if draw(st.booleans()) else None
    return method, strategy, reg, clients, pretrained, weights


@given(round_cases())
@settings(max_examples=200, deadline=None)
def test_server_update_equals_the_fedavg_oracle(case) -> None:
    """``server_update`` for each exchanging method and strategy, with
    and without sample-count weights, is bitwise the whole-tensor FedAvg
    oracle: the global model and every sendback.  Called on clients of
    their own, no sendback shares memory with a client's parameters.
    Called as the run calls it, on clients stacked into lock-step groups,
    the sendbacks are the clients' own rows: no two clients share memory,
    and no client shares memory with the global model."""
    method, strategy, reg, clients, pretrained, weights = case
    row = simulator.METHOD_TABLE[method]
    want_global, want_sendbacks = _round_oracle(method, strategy, clients, reg, pretrained, weights)

    def tensors(ps):
        return [*ps.feature.values(), *ps.bn_mean.values(), *ps.bn_var.values(), ps.head_W, ps.head_b]

    for stacked in (False, True):
        if stacked:
            simulator._client_groups(clients)
        got_global, got_sendbacks = server_update(
            clients, simulator._head_registry(row, reg), strategy, pretrained, weights
        )
        assert (got_global is None) == (want_global is None) == (not row.global_model)
        if want_global is not None:
            _assert_params_bitwise(got_global, want_global)
        assert len(got_sendbacks) == len(clients)
        for c, got, want in zip(clients, got_sendbacks, want_sendbacks):
            _assert_params_bitwise(got, want)
            if stacked:
                assert got is c.params
            else:
                assert not any(np.shares_memory(a, b) for a in tensors(c.params) for b in tensors(got))
    held = [tensors(c.params) for c in clients]
    assert not any(np.shares_memory(a, b) for k, own in enumerate(held) for other in held[k + 1:]
                   for a in own for b in other)
    if got_global is not None:
        assert not any(np.shares_memory(a, b) for own in held for a in own for b in tensors(got_global))


# --- weights=None is the weighted rule with unit weights --------------------------

# values whose sums and products are sensitive to sign, order, underflow
# (5e-324 is the smallest subnormal) and overflow
_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, np.inf, -np.inf)
_ROUNDS = [(m, s) for m in _EXCHANGING for s in STRATEGIES if s != "fedbn" or m == "pfl"]


def _plant_extremes(rng, arrays) -> None:
    for arr in arrays:
        spots = rng.random(arr.shape) < 0.4
        arr[spots] = rng.choice(_EXTREMES, size=int(spots.sum()))


@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**31))
@settings(max_examples=200, deadline=None)
def test_mean_arrays_without_weights_is_the_unit_weighted_mean(K, width, seed) -> None:
    """Bitwise, for every value a tensor can hold: ``weights=None`` gives
    what ``[1.0] * K`` gives, and both give the plain left-to-right sum
    divided by K."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(2, width)) for _ in range(K)]
    _plant_extremes(rng, arrays)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 1e300 + 1e300
        plain = arrays[0].copy()
        for a in arrays[1:]:
            plain += a
        plain /= K
        _assert_bitwise(mean_arrays(arrays), mean_arrays(arrays, [1.0] * K))
        _assert_bitwise(mean_arrays(arrays), plain)


@given(oracle_merge_cases(), st.integers(0, 2**31))
@settings(max_examples=200, deadline=None)
def test_head_merge_without_weights_is_the_unit_weighted_merge(case, seed) -> None:
    reg, heads, _ = case
    _plant_extremes(np.random.default_rng(seed), [a for W, b, _ in heads for a in (W, b)])
    with np.errstate(over="ignore", invalid="ignore"):
        W, b = surgical_head_update(heads, reg)
        W1, b1 = surgical_head_update(heads, reg, [1.0] * reg.n_clients)
    _assert_bitwise(W, W1)
    _assert_bitwise(b, b1)


@pytest.mark.parametrize("method,strategy", _ROUNDS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_server_update_without_weights_is_the_unit_weighted_round(method, strategy, data) -> None:
    """Every exchanging method under every strategy it runs with: the
    global model and each sendback are bitwise those of unit weights."""
    _, _, reg, clients, pretrained, _ = data.draw(round_cases(method, strategy, _EXTREMES))
    head_registry = simulator._head_registry(simulator.METHOD_TABLE[method], reg)
    with np.errstate(over="ignore", invalid="ignore"):
        plain = server_update(clients, head_registry, strategy, pretrained)
        unit = server_update(clients, head_registry, strategy, pretrained, [1.0] * len(clients))
    assert (plain[0] is None) == (unit[0] is None)
    for got, want in zip([plain[0], *plain[1]], [unit[0], *unit[1]]):
        if want is not None:
            _assert_params_bitwise(got, want)
