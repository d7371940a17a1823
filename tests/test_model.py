from __future__ import annotations

import math

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
    effect_of_clients_scenarios,
    generate_synthetic,
    head_warmup,
    init_model,
    load_checkpoint,
    local_train,
    params_equal,
    save_checkpoint,
    simulator,
    validation_loss,
)

import reference_kernel
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


def _loss_columns_rule(c: ClientState, loss_mode: str) -> tuple[int, ...]:
    """The loss columns a method's ``loss_mode`` gives a client: every
    head column for missing-as-negative, else the columns of its classes."""
    width = c.params.head_cols
    if loss_mode == "all_classes_negatives" or width == len(c.classes):
        return tuple(range(width))
    return c.classes


def test_loss_columns_modes(tiny_arch) -> None:
    """Every client of every method, on the oracle scenario and the K=5
    ladder rung, holds the loss columns its method's ``loss_mode`` gives;
    a client built without any holds the columns of its classes, and
    columns outside the head fail at the first training or validation
    call."""
    for spec in (ORACLE_SCENARIO, effect_of_clients_scenarios(7000)[3]):  # K=4, K=5
        for method in METHODS:
            loss_mode = simulator.METHOD_TABLE[method].loss_mode
            for c in _method_clients(method, spec):
                assert c.loss_cols == _loss_columns_rule(c, loss_mode), (method, c.id)
    assert _client(tiny_arch, classes=(1, 3)).loss_cols == (0, 1)
    assert _client(tiny_arch, classes=(1, 3), width=5).loss_cols == (1, 3)
    bad = _client(tiny_arch, classes=(1, 3), width=5)
    bad.loss_cols = (1, 5)
    with pytest.raises(ConfigError):
        local_train([bad], 1, 0.05, 16)
    with pytest.raises(ConfigError):
        validation_loss(bad)


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
    b.loss_cols = (0, 1, 2)  # what missing-as-negative methods give a client
    local_train([a], 2, 0.05, 16)
    local_train([b], 2, 0.05, 16)
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


def _oracle_train(c: ClientState, epochs: int, lr: float, batch_size: int, frozen):
    """The per-batch loop, one client at a time, built from the reference
    kernel: gather a batch, forward pass, loss and gradients over an
    explicit cut of the loss columns (batch-norm statistics worked out
    again from the activations), SGD step.  The first layer whose output
    is not finite raises the error that names it and the client.
    Returns the per-epoch mean losses."""
    cols = np.array(sorted(set(c.loss_cols)))
    params, losses = c.params.copy(), []
    for _ in range(epochs):
        order = c.rng.permutation(c.train.n)
        total, batches = 0.0, 0
        for start in range(0, c.train.n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = c.train.x[idx], c.train.y[idx]
            acts, p, _ = reference_kernel.forward(params, c.arch, xb, True)
            bad = [i for i, a in enumerate(acts[1:]) if not np.isfinite(a).all()]
            if bad:
                raise NumericError("non-finite activation", layer=bad[0], client=c.id)
            total += reference_kernel.loss(p, yb, cols)
            grads = reference_kernel.gradients(params, c.arch, acts, p, yb, cols)
            reference_kernel.sgd(params, grads, lr, frozen)
            batches += 1
        losses.append(total / batches)
    c.params = params
    return losses


def _oracle_local_train(c: ClientState, epochs: int, lr: float, batch_size: int):
    losses = _oracle_train(c, epochs, lr, batch_size, frozenset())
    c.epoch_counter += epochs
    c.last_train_loss = float(np.mean(losses))


# sizes 3, 3, 3, 2: same-width groups, and under fl_partial_loss three
# clients with different loss columns in one group (a per-model mask)
ORACLE_SCENARIO = ScenarioSpec(
    n_per_client=50, d=5, M=6, K=4, seed=3,
    assignment=[[0, 1, 2], [0, 3, 4], [1, 2, 5], [3, 5]],
)


def _method_clients(method: str, scenario=ORACLE_SCENARIO) -> list[ClientState]:
    cfg = ExperimentConfig(scenario=scenario, method=method, T=2)
    return simulator._build_clients(generate_synthetic(cfg.scenario), cfg, cfg.architecture())


@pytest.mark.parametrize("method", METHODS)
def test_lean_step_equals_the_per_batch_oracle(method) -> None:
    """Warmup, then E=2 in one call and E=1 in two calls through the
    run's lock-step groups, each bit for bit what the per-batch loop of
    the reference kernel gives: parameters, batch-norm statistics, losses,
    epoch counts and the next draw of every client's RNG stream.  The
    batch size leaves a short last batch."""
    once, twice, oracle = _method_clients(method), _method_clients(method), _method_clients(method)
    groups = simulator._client_groups(once)
    if method == "fl_partial_loss":
        assert any(len({c.loss_cols for c in g}) > 1 for g in groups)
    for g in groups:
        head_warmup(g, 1, 0.02, 16)
        local_train(g, 2, 0.05, 16)
    for g in simulator._client_groups(twice):
        head_warmup(g, 1, 0.02, 16)
        local_train(g, 1, 0.05, 16)
        local_train(g, 1, 0.05, 16)
    for c in oracle:
        _oracle_train(c, 1, 0.02, 16, frozenset({"feature_extractor"}))
        _oracle_local_train(c, 2, 0.05, 16)
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
            _oracle_local_train(c, 1, 0.05, 16)
    assert (lean.value.layer, lean.value.client) == (oracle.value.layer, oracle.value.client)
    assert (lean.value.layer, lean.value.client) == (layer, 22)
    for c, snap in zip(group, before):
        assert params_equal(c.params, snap)
        assert c.epoch_counter == 0


def test_groups_sharing_a_dirty_arena_equal_the_oracle() -> None:
    """Every group of a fl_partial_loss federation (per-model loss
    columns) steps in one arena, NaN-filled before each call and sized
    for the full batch of the widest group only: the short last batch
    (40 rows at batch 16) and the other groups carve their own views of
    the same memory, and every client still ends bitwise where the
    per-batch oracle does, losses and RNG streams included."""
    from surgfed.nn import Arena

    clients, oracle = _method_clients("fl_partial_loss"), _method_clients("fl_partial_loss")
    groups = simulator._client_groups(clients)
    arena = Arena(*[g.step_shapes(16)[16] for g in groups])
    for g in groups:
        g.arena = arena
    for epochs, lr, train in ((1, 0.02, head_warmup), (2, 0.05, local_train)):
        for g in groups:
            arena.flat.fill(np.nan)
            train(g, epochs, lr, 16)
    assert len(groups) > 1 and arena.flat.size == max(sum(map(math.prod, g.step_shapes(16)[16]))
                                                      for g in groups)
    for c in oracle:
        _oracle_train(c, 1, 0.02, 16, frozenset({"feature_extractor"}))
        _oracle_local_train(c, 2, 0.05, 16)
    for a, o in zip(clients, oracle):
        assert params_equal(a.params, o.params)
        assert a.last_train_loss == o.last_train_loss
        assert a.rng.random() == o.rng.random()


def test_an_epoch_in_the_groups_arena_rises_less_than_half_as_far(traced_rise) -> None:
    """Once a group's arena exists, a lock-step epoch writes every array
    with a sample axis into it.  On 8 clients with 40-column heads and
    192 training rows at batch 32 the traced peak of one ``local_train``
    epoch rises about 294 KB; allocating those arrays in every step took
    it 1,195 KB up.  The bound is half of that."""
    from surgfed import build_architecture
    from surgfed.model import ClientGroup

    arch = build_architecture(20, (32, 16))
    group = ClientGroup(_group(arch, n_clients=8, classes=range(40), n=200))
    local_train(group, 1, 0.05, 32)
    _, rise = traced_rise(lambda: local_train(group, 1, 0.05, 32))
    assert rise < 1_195_351 / 2, rise


def test_an_epoch_in_the_arena_rises_a_quarter_as_far(traced_rise, monkeypatch) -> None:
    """Once the arena exists, an epoch gathers its rows and labels and
    writes every gradient there.  On 8 clients with 40-column heads and
    192 training rows at batch 32 the traced peak of the epoch inside
    ``local_train`` rises about 25 KB; with gradients allocated in every
    step it rose 136 KB.  The bound is a quarter of that.  numpy's ufunc
    iterator takes a scratch buffer of ``np.getbufsize()`` elements (64 KB
    by default) for a broadcast or a cast, so the epoch runs with 1,024
    and the rise counts the arrays the epoch makes."""
    from surgfed import build_architecture
    from surgfed import model
    from surgfed.model import ClientGroup

    rises, epoch = [], model._train_epoch

    def traced_epoch(*args):
        loss, rise = traced_rise(lambda: epoch(*args))
        rises.append(rise)
        return loss

    arch = build_architecture(20, (32, 16))
    group = ClientGroup(_group(arch, n_clients=8, classes=range(40), n=200))
    local_train(group, 1, 0.05, 32)
    monkeypatch.setattr(model, "_train_epoch", traced_epoch)
    bufsize = np.setbufsize(1024)
    try:
        local_train(group, 1, 0.05, 32)
    finally:
        np.setbufsize(bufsize)
    assert rises[0] < 136_083 / 4, rises


def test_validation_in_an_arena_is_the_fresh_pass(tiny_arch) -> None:
    """Validation writes into views of a dirty arena and gives the bits
    of the reference kernel's eval pass and loss, as does a call with a
    fresh arena of its own, under either kind of loss columns; an arena
    too small for the pass is replaced by one that fits."""
    from surgfed.nn import Arena

    arena = Arena([(3,)])
    for width in (None, 5):
        c = _client(tiny_arch, classes=(1, 3), width=width)
        local_train([c], 1, 0.05, 16)
        scores = reference_kernel.forward(c.params, c.arch, c.val.x, False)[1]
        want = float(reference_kernel.loss(scores, c.val.y, c.cols))
        assert validation_loss(c) == want
        arena.flat.fill(np.nan)
        assert validation_loss(c, arena) == want
    assert arena.flat.size == 8 * (6 + 3 + 5 + 5)


def test_group_validation_is_each_clients_own_pass(tiny_arch) -> None:
    """One eval pass over a group gives every client the loss of the
    reference kernel's pass over that client alone, bit for bit, under
    one shared set of loss columns and under a row of them per client.
    A non-finite value names the first layer that holds one and the
    lowest client there, as lock-step training does: client 22's layer
    0, where a loop over the clients in order would stop at client 21's
    layer 3."""
    for subsets, width in (([(0, 1)] * 3, None), ([(0, 2), (1, 3), (2, 4)], 5)):
        group = [_client(tiny_arch, classes=cs, width=width, seed=k, stream=30 + k)
                 for k, cs in enumerate(subsets)]
        local_train(group, 1, 0.05, 16)
        want = [float(reference_kernel.loss(reference_kernel.forward(c.params, c.arch, c.val.x, False)[1],
                                            c.val.y, c.cols)) for c in group]
        assert validation_loss(group).tolist() == want
    group = _group(tiny_arch, classes=(0, 1))
    group[1].params.feature["3.W"][1, 0] = np.inf
    group[2].params.feature["0.W"][1, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
        validation_loss(group)
    assert (err.value.layer, err.value.client) == (0, 22)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
        validation_loss(group[1])
    assert (err.value.layer, err.value.client) == (3, 21)


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
