from __future__ import annotations

import numpy as np
import pytest

from surgfed import (
    METHODS,
    ClientState,
    ConfigError,
    ContractViolation,
    ExperimentConfig,
    LabeledSet,
    NumericError,
    ScenarioSpec,
    backward,
    forward,
    generate_synthetic,
    head_warmup,
    init_model,
    load_checkpoint,
    local_train,
    masked_bce_loss,
    params_equal,
    save_checkpoint,
    sgd_step,
    simulator,
    validation_loss,
)

from conftest import random_params


def _client(arch, classes, seed=0, n=48, width=None, stream=7) -> ClientState:
    rng = np.random.default_rng(seed)
    m = width if width is not None else len(classes)
    x = rng.normal(size=(n, arch.in_dim))
    y = (rng.random((n, m)) < 0.5).astype(float)
    y[0, :] = 1.0
    y[1, :] = 0.0
    params = init_model(arch, m, seed=seed, class_ids=range(m) if width else classes)
    return ClientState(
        id=0, arch=arch, params=params, classes=tuple(classes),
        train=LabeledSet(x[: n - 8], y[: n - 8]), val=LabeledSet(x[n - 8 :], y[n - 8 :]),
        rng=np.random.default_rng([stream, 0]),
    )


# --- init ---------------------------------------------------------------------


def test_init_is_deterministic(tiny_arch) -> None:
    a = init_model(tiny_arch, 3, seed=5)
    b = init_model(tiny_arch, 3, seed=5)
    assert params_equal(a, b)
    c = init_model(tiny_arch, 3, seed=6)
    assert not params_equal(a, c)


def test_init_shapes_and_constants(tiny_arch) -> None:
    params = init_model(tiny_arch, 4, seed=0)
    assert params.feature["0.W"].shape == (4, 6)
    assert params.feature["3.W"].shape == (6, 3)
    np.testing.assert_array_equal(params.feature["0.b"], 0.0)
    np.testing.assert_array_equal(params.feature["1.gamma"], 1.0)
    np.testing.assert_array_equal(params.feature["1.beta"], 0.0)
    np.testing.assert_array_equal(params.bn_mean[1], 0.0)
    np.testing.assert_array_equal(params.bn_var[1], 1.0)
    np.testing.assert_array_equal(params.head_b, 0.0)
    assert params.head_W.shape == (3, 4)


def test_init_bounds_follow_fan_in_out(tiny_arch) -> None:
    params = init_model(tiny_arch, 1, seed=3)
    lim0 = np.sqrt(6.0 / (4 + 6))
    assert np.abs(params.feature["0.W"]).max() <= lim0
    lim_head = np.sqrt(6.0 / (3 + 1))
    assert np.abs(params.head_W).max() <= lim_head


def test_head_columns_keyed_by_class_id(tiny_arch) -> None:
    """A shared class starts from the same column at every client, no
    matter how wide each head is or in which slot the class sits."""
    narrow = init_model(tiny_arch, 2, seed=9, class_ids=[4, 7])
    wide = init_model(tiny_arch, 5, seed=9, class_ids=[1, 3, 4, 6, 7])
    np.testing.assert_array_equal(narrow.head_W[:, 0], wide.head_W[:, 2])
    np.testing.assert_array_equal(narrow.head_W[:, 1], wide.head_W[:, 4])
    other_seed = init_model(tiny_arch, 2, seed=10, class_ids=[4, 7])
    assert not np.array_equal(narrow.head_W[:, 0], other_seed.head_W[:, 0])


def test_init_validation(tiny_arch) -> None:
    with pytest.raises(ConfigError):
        init_model(tiny_arch, 0, seed=0)
    with pytest.raises(ConfigError):
        init_model(tiny_arch, 2, seed=0, class_ids=[1])


# --- client state ----------------------------------------------------------


def test_client_width_contracts(tiny_arch) -> None:
    c = _client(tiny_arch, classes=(0, 2), width=4)
    assert c.params.head_cols == 4
    with pytest.raises(ContractViolation):
        _client(tiny_arch, classes=(0, 1, 2), width=2)


def test_loss_columns_modes(tiny_arch) -> None:
    narrow = _client(tiny_arch, classes=(1, 3))
    assert narrow.loss_columns("local_classes") == (0, 1)
    assert narrow.loss_columns("all_classes_negatives") == (0, 1)
    wide = _client(tiny_arch, classes=(1, 3), width=5)
    assert wide.loss_columns("local_classes") == (1, 3)
    assert wide.loss_columns("all_classes_negatives") == (0, 1, 2, 3, 4)
    with pytest.raises(ConfigError):
        narrow.loss_columns("everything")


# --- training ------------------------------------------------------------------


def test_zero_warmup_is_a_no_op(tiny_arch) -> None:
    c = _client(tiny_arch, classes=(0, 1))
    before = c.params.copy()
    head_warmup([c], 0, 0.01, 16)
    assert params_equal(c.params, before)
    assert c.epoch_counter == 0


def test_warmup_freezes_features_but_not_stats(tiny_arch) -> None:
    c = _client(tiny_arch, classes=(0, 1))
    before = c.params.copy()
    head_warmup([c], 2, 0.05, 16)
    for k in before.feature:
        np.testing.assert_array_equal(c.params.feature[k], before.feature[k])
    assert not np.array_equal(c.params.head_W, before.head_W)
    # batch-norm running statistics moved with the data
    assert not np.array_equal(c.params.bn_mean[1], before.bn_mean[1])


def test_local_train_updates_and_counts(tiny_arch) -> None:
    c = _client(tiny_arch, classes=(0, 1))
    before = c.params.copy()
    local_train([c], 3, 0.05, 16)
    assert c.epoch_counter == 3
    assert np.isfinite(c.last_train_loss)
    assert not params_equal(c.params, before)


def test_epoch_split_equals_one_call(tiny_arch) -> None:
    """E epochs in one call and E epochs over two calls walk the same RNG
    stream, so they must land on bit-identical parameters."""
    a = _client(tiny_arch, classes=(0, 1), stream=3)
    b = _client(tiny_arch, classes=(0, 1), stream=3)
    local_train([a], 4, 0.05, 16)
    local_train([b], 1, 0.05, 16)
    local_train([b], 3, 0.05, 16)
    assert params_equal(a.params, b.params)
    assert a.epoch_counter == b.epoch_counter == 4


def test_full_coverage_modes_agree(tiny_arch) -> None:
    # when a client holds every class the two loss modes are the same thing
    a = _client(tiny_arch, classes=(0, 1, 2), stream=5)
    b = _client(tiny_arch, classes=(0, 1, 2), stream=5)
    local_train([a], 2, 0.05, 16, loss_mode="local_classes")
    local_train([b], 2, 0.05, 16, loss_mode="all_classes_negatives")
    assert params_equal(a.params, b.params)


def test_training_validation_errors(tiny_arch) -> None:
    c = _client(tiny_arch, classes=(0, 1))
    with pytest.raises(ConfigError):
        local_train([c], 0, 0.05, 16)
    with pytest.raises(ConfigError):
        local_train([c], 1, 0.05, 0)
    with pytest.raises(ConfigError):
        head_warmup([c], -1, 0.05, 16)


def _group(arch, n_clients=3, **kw) -> list[ClientState]:
    group = [_client(arch, seed=k, stream=11 + k, **kw) for k in range(n_clients)]
    for k, c in enumerate(group):
        c.id = 20 + k
    return group


def test_group_numeric_error_names_layer_and_client(tiny_arch) -> None:
    """A forward failure inside lock-step training carries both the layer
    and the client.  Finiteness is checked after every layer (a check on
    the logits alone would miss relu(-inf) = 0), so the first layer is
    named."""
    group = _group(tiny_arch, classes=(0, 1))
    group[1].params.feature["0.W"][0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
        local_train(group, 1, 0.05, 16)
    assert err.value.layer == 0
    assert err.value.client == 21


def test_group_members_must_share_a_shape(tiny_arch) -> None:
    group = [_client(tiny_arch, classes=(0, 1)), _client(tiny_arch, classes=(0, 1, 2))]
    with pytest.raises(ContractViolation):
        local_train(group, 1, 0.05, 16)
    with pytest.raises(ConfigError):
        local_train([], 1, 0.05, 16)


def test_group_with_per_client_loss_columns_equals_solo(tiny_arch) -> None:
    """Wide heads with a different held-class subset per client: one
    lock-step group gives each client what training it alone gives."""
    subsets = [(0, 2), (1, 3), (2, 4)]
    grouped = [_client(tiny_arch, classes=cs, width=5, seed=k, stream=30 + k)
               for k, cs in enumerate(subsets)]
    solo = [_client(tiny_arch, classes=cs, width=5, seed=k, stream=30 + k)
            for k, cs in enumerate(subsets)]
    head_warmup(grouped, 1, 0.05, 16)
    local_train(grouped, 2, 0.05, 16)
    for c in solo:
        head_warmup([c], 1, 0.05, 16)
        local_train([c], 2, 0.05, 16)
    for a, b in zip(grouped, solo):
        assert params_equal(a.params, b.params)
        assert a.last_train_loss == b.last_train_loss
        assert a.rng.random() == b.rng.random()


# --- the lean lock-step step against the per-batch loop ---------------------


def _oracle_train(c: ClientState, epochs: int, lr: float, batch_size: int, frozen, loss_mode: str):
    """The per-batch loop, one client at a time, built only from the
    public kernel: gather a batch, ``forward``, ``masked_bce_loss``,
    ``backward``, ``sgd_step``.  Returns the per-epoch mean losses."""
    cols = c.loss_columns(loss_mode)
    params, losses = c.params.copy(), []
    for _ in range(epochs):
        order = c.rng.permutation(c.train.n)
        total, batches = 0.0, 0
        for start in range(0, c.train.n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = c.train.x[idx], c.train.y[idx]
            acts, p = forward(params, c.arch, xb, "train", [c.id])
            total += masked_bce_loss(p, yb, cols)
            params = sgd_step(params, backward(params, c.arch, acts, p, yb, cols), lr, frozen)
            batches += 1
        losses.append(total / batches)
    c.params = params
    return losses


def _oracle_local_train(c: ClientState, epochs: int, lr: float, batch_size: int, loss_mode: str):
    losses = _oracle_train(c, epochs, lr, batch_size, frozenset(), loss_mode)
    c.epoch_counter += epochs
    c.last_train_loss = float(np.mean(losses))


# sizes 3, 3, 3, 2: same-width groups, and under fl_partial_loss three
# clients with different loss columns in one group (a per-model mask)
ORACLE_SCENARIO = ScenarioSpec(
    n_per_client=50, d=5, M=6, K=4, seed=3,
    assignment=[[0, 1, 2], [0, 3, 4], [1, 2, 5], [3, 5]],
)


def _method_clients(method: str) -> list[ClientState]:
    cfg = ExperimentConfig(scenario=ORACLE_SCENARIO, method=method, T=2)
    return simulator._build_clients(generate_synthetic(cfg.scenario), cfg, cfg.architecture())


@pytest.mark.parametrize("method", METHODS)
def test_lean_step_equals_the_per_batch_oracle(method) -> None:
    """Warmup, then E=2 in one call and E=1 in two calls through the
    run's lock-step groups, each bit for bit what the per-batch loop of
    the public kernel gives: parameters, batch-norm statistics, losses,
    epoch counts and the next draw of every client's RNG stream.  The
    batch size leaves a short last batch."""
    loss_mode = simulator.METHOD_TABLE[method].loss_mode
    once, twice, oracle = _method_clients(method), _method_clients(method), _method_clients(method)
    groups = simulator._client_groups(once, loss_mode)
    if method == "fl_partial_loss":
        assert any(len({c.loss_columns(loss_mode) for c in g}) > 1 for g in groups)
    for g in groups:
        head_warmup(g, 1, 0.02, 16, loss_mode)
        local_train(g, 2, 0.05, 16, loss_mode)
    for g in simulator._client_groups(twice, loss_mode):
        head_warmup(g, 1, 0.02, 16, loss_mode)
        local_train(g, 1, 0.05, 16, loss_mode)
        local_train(g, 1, 0.05, 16, loss_mode)
    for c in oracle:
        _oracle_train(c, 1, 0.02, 16, frozenset({"feature_extractor"}), loss_mode)
        _oracle_local_train(c, 2, 0.05, 16, loss_mode)
    for a, b, o in zip(once, twice, oracle):
        assert params_equal(a.params, o.params)
        assert params_equal(b.params, o.params)
        assert a.last_train_loss == o.last_train_loss
        assert a.epoch_counter == b.epoch_counter == o.epoch_counter == 2
        assert a.rng.random() == b.rng.random() == o.rng.random()


@pytest.mark.parametrize("layer", [0, 3])
def test_lean_step_numeric_error_matches_the_oracle(tiny_arch, layer) -> None:
    """An inf weight in one client's dense layer: the group raises with
    the layer and client the per-batch loop names, and every member keeps
    the parameters it had before the call, batch-norm statistics included
    (at layer 3 the failing forward pass has already updated layer 1's)."""
    group, solo = _group(tiny_arch, classes=(0, 1)), _group(tiny_arch, classes=(0, 1))
    for g in (group, solo):
        g[2].params.feature[f"{layer}.W"][1, 0] = np.inf
    before = [c.params.copy() for c in group]
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as lean:
        local_train(group, 1, 0.05, 16)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as oracle:
        for c in solo:
            _oracle_local_train(c, 1, 0.05, 16, "local_classes")
    assert (lean.value.layer, lean.value.client) == (oracle.value.layer, oracle.value.client)
    assert (lean.value.layer, lean.value.client) == (layer, 22)
    for c, snap in zip(group, before):
        assert params_equal(c.params, snap)
        assert c.epoch_counter == 0


def test_validation_loss_is_pure(tiny_arch) -> None:
    c = _client(tiny_arch, classes=(0, 1))
    local_train([c], 1, 0.05, 16)
    snap = c.params.copy()
    v1 = validation_loss(c)
    v2 = validation_loss(c)
    assert v1 == v2
    assert params_equal(c.params, snap)


# --- checkpoints -----------------------------------------------------------


def test_checkpoint_round_trip(tiny_arch, tmp_path) -> None:
    params = random_params(tiny_arch, 3, seed=19)
    path = tmp_path / "model.csv"
    save_checkpoint(params, path)
    back = load_checkpoint(path)
    assert params_equal(params, back)


def test_checkpoint_rejects_foreign_files(tmp_path) -> None:
    path = tmp_path / "junk.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "row",
    [
        "feature,0.W,2.0,1,1.5,2.5",  # a non-integer shape
        "feature,0.W",  # too few fields
        "feature,0.W,2,2,1.5,2.5,3.5",  # three values for a 2 x 2 shape
        "feature,0.b,3,0,1.5,2.5",  # two values for a length-3 vector
        "feature,0.b,1,0,one",  # a value that is not a number
        "bn_mean,first,1,0,0.5",  # a batch-norm row without a layer index
    ],
)
def test_checkpoint_rejects_malformed_rows(tmp_path, row) -> None:
    path = tmp_path / "model.csv"
    path.write_text(f"surgfed-checkpoint-v1\nhead_b,head_b,1,0,0.5\n{row}\n")
    with pytest.raises(ConfigError, match="line 3"):
        load_checkpoint(path)
