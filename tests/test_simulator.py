from __future__ import annotations

import hashlib
import json
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from surgfed import (
    METHODS,
    STRATEGIES,
    ConfigError,
    ExperimentConfig,
    NumericError,
    ScenarioSpec,
    SeedBundle,
    auroc,
    default_seeds,
    effect_of_clients_scenarios,
    forward,
    generate_synthetic,
    head_warmup,
    local_train,
    params_equal,
    resolve_assignment,
    run_experiment,
    run_suite,
    scatter_restricted,
    simulator,
)
from surgfed.cli import parse_config
from surgfed.model import ClientGroup, client_groups

HOMOG = ScenarioSpec(
    n_per_client=40, d=4, M=2, K=3, seed=11,
    assignment=[[0, 1], [0, 1], [0, 1]],
)

HETERO = ScenarioSpec(
    n_per_client=40, d=4, M=4, K=2, seed=12,
    assignment=[[0, 1, 2], [0, 3]],
)


def _cfg(method: str, scenario=HETERO, **kw) -> ExperimentConfig:
    kw.setdefault("T", 4)
    kw.setdefault("E", 1)
    kw.setdefault("warmup_epochs", 1)
    return ExperimentConfig(scenario=scenario, method=method, **kw)


def _reference(**kw) -> ExperimentConfig:
    """configs/reference_run.json (K=4, M=8, n=2000), with fields replaced."""
    path = Path(__file__).resolve().parents[1] / "configs" / "reference_run.json"
    return replace(parse_config(json.loads(path.read_text())), **kw)


# the README "Methods" table: global model, full-width head, exchanges
README_METHODS = {
    "surgical": (True, False, True),
    "vanilla_fl": (True, True, True),
    "fl_partial_loss": (True, True, True),
    "pfl": (False, False, True),
    "centralized": (True, True, False),
    "individual": (False, False, False),
}


def test_method_lists() -> None:
    """Every row of the method table says what the README "Methods"
    table states: which methods keep a global model, have a head over
    all M classes, exchange parameters, and pool the data (the one
    global model that is never exchanged)."""
    assert METHODS == tuple(simulator.METHOD_TABLE) == tuple(README_METHODS)
    assert METHODS[0] == "surgical"
    assert simulator.PERSONAL_METHODS == ("pfl", "individual")
    for method, (global_model, wide, exchanges) in README_METHODS.items():
        row = simulator.METHOD_TABLE[method]
        assert (row.global_model, row.wide, row.exchanges) == (global_model, wide, exchanges), method
        assert row.pooled == (method == "centralized"), method


def test_config_validation() -> None:
    with pytest.raises(ConfigError):
        _cfg("gossip")
    with pytest.raises(ConfigError):
        _cfg("surgical", strategy="fedbn")  # keeps no global model
    _cfg("pfl", strategy="fedbn")  # but this pairing is allowed
    with pytest.raises(ConfigError):
        _cfg("surgical", T=2, E=5)
    with pytest.raises(ConfigError):
        _cfg("surgical", lr=0.0)
    with pytest.raises(ConfigError):
        _cfg("surgical", warmup_epochs=-1)
    with pytest.raises(ConfigError):
        _cfg("surgical", hidden=(8, 0))


def test_default_seeds_derive_from_scenario_seed() -> None:
    a = default_seeds(5)
    assert a == default_seeds(5)
    assert a != default_seeds(6)
    assert a.init != a.shuffle


def test_explicit_seed_bundle_wins() -> None:
    cfg = _cfg("surgical", seeds=SeedBundle(init=1, shuffle=2))
    assert cfg.resolved_seeds() == SeedBundle(1, 2)


def test_round_accounting() -> None:
    seen = []
    captured = {}

    def hook(r, global_params, clients):
        seen.append(r)
        captured["clients"] = clients

    run_experiment(_cfg("surgical", T=10, E=3), round_hook=hook)
    assert seen == [1, 2, 3]
    # 3 rounds of 3 epochs; the tenth epoch would never be communicated
    assert all(c.epoch_counter == 9 for c in captured["clients"])


def test_report_shape() -> None:
    result = run_experiment(_cfg("surgical"))
    assert len(result.reports) == 4
    assert [r.round for r in result.reports] == [1, 2, 3, 4]
    for rep in result.reports:
        assert len(rep.client_train_loss) == 2
        assert len(rep.client_val_loss) == 2
        assert rep.test_mean_auroc is not None
        assert len(rep.test_per_class) == 4
    assert result.best_round == int(
        np.argmin([r.mean_val_loss for r in result.reports]) + 1
    )


def _bits(values):
    return [None if v is None else np.float64(v).tobytes() for v in values]


def test_test_scores_equal_a_fresh_scalar_loop() -> None:
    """Every round's per-class test AUROC, scored through the run's test
    plan, is bitwise ``auroc`` on that round's global model, one class
    column at a time; so is the result's final evaluation."""
    cfg = _cfg("surgical")
    test = generate_synthetic(cfg.scenario).test
    arch = cfg.architecture()

    def scalar_loop(params):
        _, scores = forward(params, arch, test.x, "eval")
        return [auroc(scores[:, c], test.y[:, c]) for c in range(cfg.scenario.M)]

    expected = []
    result = run_experiment(cfg, round_hook=lambda r, gp, cs: expected.append(scalar_loop(gp)))
    assert [_bits(rep.test_per_class) for rep in result.reports] == [_bits(e) for e in expected]
    final = result.global_eval().per_class
    assert _bits(final[c] for c in range(cfg.scenario.M)) == _bits(scalar_loop(result.global_params))


def test_numeric_error_names_round_client_and_layer() -> None:
    def poison(r, global_params, clients):
        if r == 2:
            clients[1].params.feature["0.W"][0, 0] = np.inf

    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
        run_experiment(_cfg("surgical"), round_hook=poison)
    assert (err.value.round, err.value.client, err.value.layer) == (3, 1, 0)
    assert "round 3" in str(err.value)


def test_numeric_error_in_warmup_is_round_zero(monkeypatch) -> None:
    build = simulator._build_clients

    def poisoned(data, cfg, arch):
        clients = build(data, cfg, arch)
        clients[1].params.feature["0.W"][0, 0] = np.inf
        return clients

    monkeypatch.setattr(simulator, "_build_clients", poisoned)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
        run_experiment(_cfg("surgical"))
    assert (err.value.round, err.value.client, err.value.layer) == (0, 1, 0)
    assert "round 0" in str(err.value)


def test_non_finite_batch_norm_statistics_stop_the_run() -> None:
    """A shift this large overflows the batch variance, which batch norm
    turns into zero activations; the running variance it folds in is
    inf.  The run stops in the warmup and names the layer and the first
    bad client, rather than scoring chance AUROC with an inf in its
    checkpoint."""
    spec = ScenarioSpec(n_per_client=40, d=3, M=3, K=2, seed=0, assignment=[[0, 1], [1, 2]],
                        skew="feature_shift", shift_sigma=1e300)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as err:
        run_experiment(_cfg("surgical", scenario=spec, T=2, warmup_epochs=5))
    assert (err.value.round, err.value.client, err.value.layer) == (0, 0, 1)
    assert "batch-norm running statistic" in str(err.value)


def test_surgical_equals_classical_when_homogeneous() -> None:
    """With every class everywhere the per-class merge degenerates to
    plain averaging: the two code paths must stay in bitwise lockstep
    round by round."""
    surgical_rounds = []
    vanilla_rounds = []
    run_experiment(
        _cfg("surgical", scenario=HOMOG),
        round_hook=lambda r, gp, cs: surgical_rounds.append(gp.copy()),
    )
    run_experiment(
        _cfg("vanilla_fl", scenario=HOMOG),
        round_hook=lambda r, gp, cs: vanilla_rounds.append(gp.copy()),
    )
    assert len(surgical_rounds) == len(vanilla_rounds) == 4
    for gs, gv in zip(surgical_rounds, vanilla_rounds):
        assert params_equal(gs, gv)


def test_centralized_single_client_equals_individual() -> None:
    solo = ScenarioSpec(n_per_client=50, d=4, M=3, K=1, seed=13, assignment=[[0, 1, 2]])
    cent = run_experiment(_cfg("centralized", scenario=solo))
    indiv = run_experiment(_cfg("individual", scenario=solo))
    assert cent.global_params is not None
    assert indiv.client_params is not None
    assert params_equal(cent.global_params, indiv.client_params[0])
    for a, b in zip(cent.reports, indiv.reports):
        assert a.mean_val_loss == b.mean_val_loss


def test_rerun_is_bit_identical() -> None:
    a = run_experiment(_cfg("surgical"))
    b = run_experiment(_cfg("surgical"))
    assert params_equal(a.global_params, b.global_params)
    for ra, rb in zip(a.reports, b.reports):
        assert ra.client_train_loss == rb.client_train_loss
        assert ra.mean_val_loss == rb.mean_val_loss
        assert ra.test_mean_auroc == rb.test_mean_auroc


def test_parallel_training_is_bit_identical() -> None:
    """``parallel`` is checked and changes nothing: the run starts no
    thread and gives the same bits."""
    before = threading.active_count()
    seen = []
    seq = run_experiment(_cfg("surgical"), parallel=1)
    par = run_experiment(_cfg("surgical"), parallel=3,
                         round_hook=lambda *_: seen.append(threading.active_count()))
    assert params_equal(seq.global_params, par.global_params)
    for ra, rb in zip(seq.reports, par.reports):
        assert ra.client_train_loss == rb.client_train_loss
    assert seen and set(seen) == {before}
    with pytest.raises(ConfigError):
        run_experiment(_cfg("surgical"), parallel=0)


def test_round_loop_reuses_its_large_arrays() -> None:
    """Between two round hooks of a reference-shaped run the traced peak
    rises at most 722 KB above the round's starting level.  Allocating
    the training gather (1.2 MB) and the test forward pass's activations
    (about 2.3 MB) afresh every round took it 2,890 KB above; with the
    run's own buffers the rise is about 450 KB."""
    rises, start = [], None

    def hook(r, global_params, clients):
        nonlocal start
        if start is not None:
            rises.append(tracemalloc.get_traced_memory()[1] - start)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        run_experiment(_reference(T=5), 1, hook)
    finally:
        tracemalloc.stop()
    assert len(rises) == 4
    assert max(rises) <= 722 * 1024, rises


@pytest.mark.parametrize("K", [2, 8])
def test_round_work_does_not_grow_with_the_client_count(K, monkeypatch) -> None:
    """K clients of one shape form one lock-step group.  In each of T=2
    rounds the kernel's forward pass runs once per training step (three
    batches of 12, 12 and 8 rows), once to validate the group and once to
    score the global model, at K=2 as at K=8; and the round loop makes no
    ``ParamSet.copy`` or ``stack_params`` call."""
    import surgfed.model as model
    import surgfed.nn as nn

    counts, in_loop, per_round = {}, [], []

    def counted(name, fn):
        def call(*args, **kwargs):
            if in_loop:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(nn, "_forward", counted("forward", nn._forward))
    monkeypatch.setattr(nn.ParamSet, "copy", counted("copy", nn.ParamSet.copy))
    for mod in (nn, model):
        monkeypatch.setattr(mod, "stack_params", counted("stack_params", nn.stack_params))
    monkeypatch.setattr(simulator, "_train_all", lambda *a, train=simulator._train_all: in_loop.append(1) or train(*a))

    def hook(r, global_params, clients):
        per_round.append(dict(counts))
        counts.clear()

    spec = ScenarioSpec(n_per_client=40, d=4, M=2, K=K, seed=11, assignment=[[0, 1]] * K)
    run_experiment(_cfg("surgical", scenario=spec, T=2, batch_size=12), round_hook=hook)
    assert per_round == [{"forward": 3 + 1 + 1}] * 2


def test_run_drops_its_scenario_data_before_training(monkeypatch) -> None:
    """Once the test plan holds the test set, the run keeps no reference
    to the generated scenario, so its test labels (and, for wide-head
    methods, the restricted label stacks their clients' labels were
    widened from) are freed before round 1.  The rows the clients train
    on are generation's own stacks, so they stay."""
    import weakref

    for method in ("surgical", "vanilla_fl"):
        drawn, dead = [], []

        def draw(spec):
            data = generate_synthetic(spec)
            drawn.append(weakref.ref(data))
            return data

        monkeypatch.setattr(simulator, "generate_synthetic", draw)
        run_experiment(_cfg(method, T=2), round_hook=lambda r, gp, cs: dead.append(drawn[0]() is None))
        assert len(drawn) == 1 and dead == [True, True], method


# every client holds two classes, so each method forms one lock-step group
EVEN = ScenarioSpec(n_per_client=40, d=4, M=5, K=3, seed=13, assignment=[[0, 1], [1, 2], [3, 4]])


def _is_memory_of(a: np.ndarray, b: np.ndarray) -> bool:
    """``a`` is ``b``'s memory: the same address, shape, dtype and strides."""
    return a.__array_interface__ == b.__array_interface__


@pytest.mark.parametrize("method", METHODS)
def test_set_up_copies_no_clients_rows(method, monkeypatch) -> None:
    """A run trains on the arrays generation wrote.  In round 1 each
    client's features, and for narrow heads its labels, are its generated
    splits' memory; ``centralized``'s one client holds the generated
    feature stacks, every site's rows in site order, and the widened
    labels in the same order.  Wide heads hold their site's labels in its
    class columns."""
    drawn, checked = [], []

    def draw(spec):
        drawn.append(generate_synthetic(spec))
        return drawn[-1]

    def hook(r, global_params, clients):
        sites, row = drawn[0].clients, simulator.METHOD_TABLE[method]
        widened = [[scatter_restricted(s.y, cd.classes, EVEN.M) for s in (cd.train, cd.val)] for cd in sites]
        if row.pooled:
            (c,) = clients
            for i, split in enumerate((c.train, c.val)):
                parts = [(cd.train, cd.val)[i] for cd in sites]
                n = parts[0].n
                assert all(_is_memory_of(split.x[k * n:(k + 1) * n], p.x) for k, p in enumerate(parts))
                np.testing.assert_array_equal(split.y, np.vstack([w[i] for w in widened]))
        else:
            for c, cd, w in zip(clients, sites, widened):
                assert _is_memory_of(c.train.x, cd.train.x) and _is_memory_of(c.val.x, cd.val.x)
                if row.wide:
                    np.testing.assert_array_equal(c.train.y, w[0])
                    np.testing.assert_array_equal(c.val.y, w[1])
                else:
                    assert _is_memory_of(c.train.y, cd.train.y) and _is_memory_of(c.val.y, cd.val.y)
        checked.append(r)

    monkeypatch.setattr(simulator, "generate_synthetic", draw)
    run_experiment(_cfg(method, scenario=EVEN, T=1), round_hook=hook)
    assert len(drawn) == 1 and checked == [1]


@pytest.mark.parametrize("method", METHODS)
def test_a_class_list_out_of_order_runs_as_its_sorted_twin(method) -> None:
    """A client's classes are taken in ascending order, the order of the
    registry and of every head, so clients listing (2, 0, 1) and (3, 0)
    train, merge and score as ones listing (0, 1, 2) and (0, 3).  Labels
    cut in the listed order landed in the wrong head columns."""
    listed = replace(HETERO, assignment=[[2, 0, 1], [3, 0]])
    a, b = (run_experiment(_cfg(method, scenario=spec, T=2)) for spec in (listed, HETERO))
    assert a.realized == b.realized and a.client_classes == b.client_classes
    assert [(r.client_train_loss, r.client_val_loss, r.test_per_class) for r in a.reports] == \
        [(r.client_train_loss, r.client_val_loss, r.test_per_class) for r in b.reports]
    assert simulator._per_class_vector(a) == simulator._per_class_vector(b)


class _GroupsFormed(Exception):
    pass


@pytest.mark.parametrize("method", ["vanilla_fl", "centralized"])
def test_wide_set_up_peaks_near_what_the_run_holds(method, monkeypatch) -> None:
    """At ``wide_federation``'s shape (K=50, M=500), traced from the draw
    until the run's groups are formed, the peak rises above what the run
    then holds by at most the larger of two transients, plus one client's
    full-width label block: the generated restricted labels, alive until
    the clients are built, and the groups' parameter tables twice over
    (the members' init copies and their stacks).  Widening, pooling and
    grouping copy no client's rows (rises of 6.6 and 0.9 MiB against
    bounds of 7.6 and 1.0 MiB); when they copied them the rises were 8.5
    MiB (``vanilla_fl``) and 9.6 MiB (``centralized``)."""
    spec = ScenarioSpec(n_per_client=300, d=20, M=500, K=50, seed=100, shared_count=50, unique_count=450,
                        skew="feature_shift", shift_sigma=0.75)
    seen = {}

    def formed(clients, client_groups=simulator.client_groups):
        groups = client_groups(clients)
        seen["held"], seen["peak"] = tracemalloc.get_traced_memory()
        seen["tables"] = sum(t.nbytes for g in groups for t in g.params.tables)
        raise _GroupsFormed

    monkeypatch.setattr(simulator, "client_groups", formed)
    tracemalloc.start()
    try:
        with pytest.raises(_GroupsFormed):
            run_experiment(ExperimentConfig(scenario=spec, method=method, T=1, warmup_epochs=0))
    finally:
        tracemalloc.stop()
    restricted = spec.n_per_client * sum(map(len, resolve_assignment(spec)))
    bound = max(restricted, 2 * seen["tables"]) + spec.n_per_client * spec.M
    assert seen["peak"] - seen["held"] <= bound, (seen, bound)


def _record_plans(monkeypatch, keep=lambda plan: plan) -> list:
    """A list of ``keep(plan)`` for each test plan a run builds."""
    made, build = [], simulator.TestPlan

    def record(*args):
        plan = build(*args)
        made.append(keep(plan))
        return plan

    monkeypatch.setattr(simulator, "TestPlan", record)
    return made


@pytest.mark.parametrize("method", METHODS)
def test_every_label_array_a_run_holds_is_int8(method, monkeypatch) -> None:
    """Labels are one byte from the draw to the loss: every client's
    splits (scattered to full width or pooled for some methods), the
    labels each lock-step epoch gathers, as it receives them, and the
    test plan's rows."""
    from surgfed import model

    gathered = []

    def train_epoch(group, x, y, *args, epoch=model._train_epoch):
        gathered.append(y.dtype)
        return epoch(group, x, y, *args)

    monkeypatch.setattr(model, "_train_epoch", train_epoch)
    plans, seen = _record_plans(monkeypatch), []
    run_experiment(_cfg(method, T=1), round_hook=lambda r, gp, cs: seen.extend(cs))
    assert gathered and set(gathered) == {np.dtype(np.int8)}, gathered
    assert len(plans) == 1
    held = [plans[0].labels, *(a for c in seen for a in (c.train.y, c.val.y))]
    assert seen
    assert all(a.dtype == np.int8 for a in held), [a.dtype for a in held]


def test_wide_head_run_peaks_below_its_labels_as_float64() -> None:
    """A vanilla_fl run holds every client's labels M wide, in its splits
    and in its lock-step gather buffer.  At one byte a label, the traced
    peak of the whole run stays below the bytes those labels and the
    test labels alone took as float64 (2.6 MiB against 5.7 MiB here;
    with float64 labels the run peaked at 7.8 MiB)."""
    spec = ScenarioSpec(n_per_client=400, d=4, M=100, K=10, seed=3, shared_count=20, unique_count=80,
                        n_test=200)
    cfg = ExperimentConfig(scenario=spec, method="vanilla_fl", T=1, warmup_epochs=0, hidden=(4,))
    float64_labels = 8 * spec.M * (spec.K * (spec.n_per_client + spec.n_train) + spec.n_test)
    tracemalloc.start()
    try:
        run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < float64_labels, (peak, float64_labels)


@pytest.mark.parametrize("method", METHODS)
def test_loss_columns_are_normalised_once_per_client(method, monkeypatch) -> None:
    """Each client's loss columns go through ``_mask_cols`` once per run,
    not once per training call and validation."""
    import surgfed.model as model
    import surgfed.nn as nn

    calls = []

    def counted(mask, p, normalise=nn._mask_cols):
        calls.append(1)
        return normalise(mask, p)

    monkeypatch.setattr(nn, "_mask_cols", counted)
    monkeypatch.setattr(model, "_mask_cols", counted, raising=False)
    result = run_experiment(_cfg(method, T=3))
    assert len(calls) == len(result.client_classes), calls


@pytest.mark.parametrize("method", METHODS)
def test_the_run_arena_fits_every_pass_and_dies_with_the_run(method, monkeypatch) -> None:
    """One arena serves the warmup, training, validation and test
    scoring: it is sized for every pass before the warmup, so none
    replaces its array, and nothing the run returns keeps it or its
    array alive."""
    import weakref

    from surgfed.nn import Arena

    made, grown = [], []

    class Recorded(Arena):
        def __init__(self, *layouts):
            super().__init__(*layouts)
            made.append((weakref.ref(self), weakref.ref(self.flat)))

        def views(self, shapes):
            grown.append(Arena.size(shapes) > self.flat.size)
            return super().views(shapes)

    monkeypatch.setattr(simulator, "Arena", Recorded)
    result = run_experiment(_cfg(method, scenario=HOMOG, T=2, batch_size=12))
    assert len(made) == 1 and grown and not any(grown)
    assert made[0][0]() is None and made[0][1]() is None
    assert result.reports


@pytest.mark.parametrize("method", METHODS)
def test_clients_start_from_their_own_init(method) -> None:
    """Each client's parameters are copied from one M-column init, and
    are bitwise and in layout what ``init_model`` draws for the client's
    head columns."""
    from surgfed import init_model

    cfg = _cfg(method)
    arch = cfg.architecture()
    clients = simulator._build_clients(generate_synthetic(cfg.scenario), cfg, arch)
    M, seed = cfg.scenario.M, cfg.resolved_seeds().init
    wide = simulator.METHOD_TABLE[method].wide

    def tensors(ps):
        return [ps.head_W, ps.head_b, *ps.feature.values(), *ps.bn_mean.values(), *ps.bn_var.values()]

    for c in clients:
        ids = range(M) if wide else c.classes
        drawn = init_model(arch, len(ids), seed, class_ids=ids)
        assert params_equal(c.params, drawn), c.id
        for a, b in zip(tensors(c.params), tensors(drawn), strict=True):
            assert a.tobytes() == b.tobytes() and a.flags.c_contiguous, c.id
    owned = [id(a) for c in clients for a in tensors(c.params)]
    assert len(set(owned)) == len(owned)  # no two clients share an array


def test_runs_share_no_state() -> None:
    """A run's buffers are its own: the reference run gives the same
    reports and best parameters before and after runs of other shapes
    (a wide federation and a suite) in the same process."""
    def outcome(result):
        return [replace(r, wall_time=0.0) for r in result.reports], result.global_params

    wide = ScenarioSpec(n_per_client=60, d=7, M=40, K=8, seed=5, shared_count=8, unique_count=32)
    first = outcome(run_experiment(_reference(T=6)))
    run_experiment(_cfg("vanilla_fl", scenario=wide, T=2))
    run_suite([_cfg("surgical"), _cfg("fl_partial_loss"), _cfg("individual")])
    second = outcome(run_experiment(_reference(T=6)))
    assert first[0] == second[0]
    assert params_equal(first[1], second[1])


@pytest.mark.parametrize("method", METHODS)
def test_later_rounds_leave_handed_out_parameters_alone(method) -> None:
    """The parameters ``round_hook`` is handed in round r, global and
    per client, hold the same bits after every later round."""
    kept = []

    def hook(r, global_params, clients):
        handed = [ps for ps in [global_params] + [c.params for c in clients] if ps is not None]
        kept.append((handed, [ps.copy() for ps in handed]))

    run_experiment(_cfg(method), round_hook=hook)
    assert len(kept) == 4
    for handed, snapshot in kept:
        assert all(params_equal(a, b) for a, b in zip(handed, snapshot))


@pytest.mark.parametrize("method", METHODS)
def test_the_best_round_is_kept_as_handed_out(method) -> None:
    """The result holds the best round's parameters themselves, global
    or per client, not copies of them."""
    handed = {}

    def hook(r, global_params, clients):
        handed[r] = (global_params, [c.params for c in clients])

    result = run_experiment(_cfg(method), round_hook=hook)
    global_params, client_params = handed[result.best_round]
    if result.global_params is not None:
        assert result.global_params is global_params
    else:
        assert all(a is b for a, b in zip(result.client_params, client_params, strict=True))


def _counted_evaluate(monkeypatch) -> list:
    from surgfed.metrics import evaluate

    calls = []
    monkeypatch.setattr(simulator, "evaluate", lambda *a, **k: calls.append(a) or evaluate(*a, **k))
    return calls


def test_a_run_scores_each_round_once(tmp_path, monkeypatch) -> None:
    """``surgfed run`` calls ``evaluate`` once a round: ``result.json``
    takes the best round's score from the round loop, and its bytes are
    those a fresh score of the best model gives.  Label noise and a large
    step make an early round the best, so the last round's score would
    not do."""
    import types

    from surgfed.cli import main
    from surgfed.metrics import TestPlan, evaluate

    T = 12
    scenario = {**PIN_SCENARIO, "label_noise": 0.4}
    cfg = {"scenario": scenario, "method": "surgical", "T": T, "E": 1, "lr": 1.0, "warmup_epochs": 1,
           "hidden": [16]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(simulator, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))  # fixed timing
    calls = _counted_evaluate(monkeypatch)
    assert main(["run", str(path), "--out", str(tmp_path / "kept")]) == 0
    assert len(calls) == T

    def rescore(self, class_subset=None):
        plan = TestPlan(generate_synthetic(self.config.scenario).test, self.registry)
        ev = evaluate(self.global_params, self.arch, range(self.registry.n_classes), plan)
        return ev if class_subset is None else ev.restrict(class_subset, self.groups)

    monkeypatch.setattr(simulator.RunResult, "global_eval", rescore)
    assert main(["run", str(path), "--out", str(tmp_path / "fresh")]) == 0
    result = json.loads((tmp_path / "kept" / "result.json").read_text())
    assert result["best_round"] < T
    assert (tmp_path / "kept" / "result.json").read_bytes() == (tmp_path / "fresh" / "result.json").read_bytes()


def test_a_personal_run_scores_each_client_once(tmp_path, monkeypatch) -> None:
    """``surgfed run`` of a K=3 ``pfl`` config scores each client's best
    model once, inside the run: ``result.json``'s local and full-set
    scores are both read from that one score."""
    from surgfed.cli import main

    cfg = {"scenario": PIN_SCENARIO, "method": "pfl", "T": 2, "E": 1, "warmup_epochs": 1, "hidden": [4]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    calls = _counted_evaluate(monkeypatch)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == PIN_SCENARIO["K"] == 3
    assert len(json.loads((tmp_path / "out" / "result.json").read_text())["client_eval"]) == 3


def test_a_suite_scores_each_model_once(tmp_path, monkeypatch) -> None:
    """A suite of a ``surgical`` run (one score a round) and a ``pfl``
    run (one score a client) calls ``evaluate`` T + K times: the
    comparison table and the member directories score nothing again."""
    from surgfed.cli import main

    T, K = 3, PIN_SCENARIO["K"]
    member = {"scenario": PIN_SCENARIO, "T": T, "E": 1, "warmup_epochs": 1, "hidden": [4]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"members": [{**member, "method": m} for m in ("surgical", "pfl")]}))
    calls = _counted_evaluate(monkeypatch)
    assert main(["suite", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == T + K


@pytest.mark.parametrize("method", ["surgical", "pfl"])
def test_a_result_does_not_keep_the_test_set(method, monkeypatch) -> None:
    """The run's test plan (the test features and label rows) dies with
    the run: what it returns holds the scores, not the plan."""
    import gc
    import weakref

    refs = _record_plans(monkeypatch, weakref.ref)
    result = run_experiment(_cfg(method, T=2))
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
    assert (result.global_eval() if method == "surgical" else result.client_eval(0)).per_class


def _ladder_clients(cfg: ExperimentConfig):
    return simulator._build_clients(generate_synthetic(cfg.scenario), cfg, cfg.architecture())


@pytest.mark.parametrize("method", METHODS)
def test_lock_step_groups_equal_one_client_calls(method) -> None:
    """On a ladder rung with mixed head widths, training the run's
    lock-step groups equals training every client on its own, bit for
    bit: parameters, batch-norm statistics, losses, epoch counts and the
    position of each client's RNG stream."""
    spec = effect_of_clients_scenarios(7000)[3]  # K=5
    cfg = ExperimentConfig(scenario=spec, method=method, T=2, warmup_epochs=1, lr=0.05)
    grouped, solo = _ladder_clients(cfg), _ladder_clients(cfg)
    groups = client_groups(grouped)
    if method in ("surgical", "pfl", "individual"):
        widths = {c.params.head_cols for c in grouped}
        assert 1 < len(groups) < len(grouped) and len(widths) > 1  # mixed widths, shared groups
    for g in groups:
        head_warmup(g, 1, 0.01, 32)
        local_train(g, 2, 0.05, 32)
    for c in solo:
        head_warmup(ClientGroup([c]), 1, 0.01, 32)
        local_train(ClientGroup([c]), 2, 0.05, 32)
    for a, b in zip(grouped, solo):
        assert params_equal(a.params, b.params)
        assert a.last_train_loss == b.last_train_loss
        assert a.epoch_counter == b.epoch_counter == 2
        assert a.rng.random() == b.rng.random()


def test_pfl_keeps_no_global_model() -> None:
    result = run_experiment(_cfg("pfl", strategy="fedbn"))
    assert result.global_params is None
    assert result.client_params is not None and len(result.client_params) == 2
    with pytest.raises(ConfigError):
        result.global_eval()
    for rep in result.reports:
        assert rep.test_mean_auroc is None
        assert rep.test_per_class is None


def test_pfl_full_class_set_is_undefined() -> None:
    result = run_experiment(_cfg("pfl"))
    ev = result.client_eval(0)
    # client 0 never saw class 3, so the all-class mean cannot be a number
    assert 3 in ev.uncovered
    assert ev.mean_auroc is None
    local = result.client_eval(0, result.client_classes[0])
    assert local.mean_auroc is not None


def test_pfl_fedbn_plus_localizes_statistics() -> None:
    captured = []
    run_experiment(
        _cfg("pfl", strategy="fedbn_plus", T=2),
        round_hook=lambda r, gp, cs: captured.append([c.params for c in cs]),
    )
    first = captured[0]
    # feature tensors agree after aggregation, the bn stats do not
    np.testing.assert_array_equal(
        first[0].feature["0.W"], first[1].feature["0.W"]
    )
    assert not np.array_equal(first[0].bn_mean[1], first[1].bn_mean[1])


def test_pfl_fedbn_plus_equals_pfl_fedbn(monkeypatch) -> None:
    """pfl keeps no global model, so ``fedbn_plus`` has nothing to pin:
    it runs bitwise as ``fedbn`` and never collects pretrained
    statistics."""
    def no_stats(*args, **kwargs):
        raise AssertionError("collect_bn_stats called for a run without a global model")

    monkeypatch.setattr(simulator, "collect_bn_stats", no_stats)
    plus = run_experiment(_cfg("pfl", strategy="fedbn_plus", T=3))
    plain = run_experiment(_cfg("pfl", strategy="fedbn", T=3))
    assert plus.best_round == plain.best_round
    assert all(params_equal(a, b) for a, b in zip(plus.client_params, plain.client_params, strict=True))
    for a, b in zip(plus.reports, plain.reports, strict=True):
        assert _bits(a.client_train_loss) == _bits(b.client_train_loss)
        assert _bits(a.client_val_loss) == _bits(b.client_val_loss)
        assert a.test_mean_auroc is b.test_mean_auroc is None


def test_individual_clients_never_communicate() -> None:
    captured = []
    run_experiment(
        _cfg("individual", T=2),
        round_hook=lambda r, gp, cs: captured.append((gp, [c.params.feature["0.W"].copy() for c in cs])),
    )
    assert all(gp is None for gp, _ in captured)
    w0, w1 = captured[-1][1]
    assert not np.array_equal(w0, w1)


def test_centralized_sees_every_class() -> None:
    result = run_experiment(_cfg("centralized"))
    assert result.global_params is not None
    ev = result.global_eval()
    assert ev.uncovered == ()


def test_logistic_run_converges_on_easy_data() -> None:
    spec = ScenarioSpec(n_per_client=200, d=4, M=2, K=2, seed=19,
                        assignment=[[0, 1], [0, 1]], label_noise=0.0)
    cfg = ExperimentConfig(scenario=spec, method="surgical", T=30, E=1,
                           lr=0.1, hidden=(), warmup_epochs=0)
    result = run_experiment(cfg)
    first = result.reports[0].mean_val_loss
    last = result.reports[-1].mean_val_loss
    assert last < first
    assert result.global_eval().mean_auroc > 0.9


# sha256 over rounds.csv and the checkpoints of every valid (method,
# strategy, sample_weighted) run; T=5, E=2 leaves one epoch of the budget
# after the last round, which no artifact may show
PIN_SCENARIO = {"n_per_client": 40, "d": 4, "M": 4, "K": 3, "seed": 21,
                "assignment": [[0, 1, 2], [0, 3], [1, 2, 3]]}
PINNED_DIGESTS = {
    "surgical/fedavg/0": "604f634f2a195ee93e9979c981f1739e0a3a2657e17309532b698d9ffd41136d",
    "surgical/fedavg/1": "d0f14141ca9c97982a123c1df63b0ebc8fcc50d5812ee7b9db009a6f4fb24c10",
    "surgical/fedbn_plus/0": "1293687b7134df3b32d323edea0099ce230a4e8569a8f4eed4ed12552da39721",
    "surgical/fedbn_plus/1": "a5c3ef8371677edd147a0bbce755878476006bbe743756ec299eed7f7a80a3a4",
    "vanilla_fl/fedavg/0": "6512d2f9cda1427ad1ebc7ebeb9be7f10cdab4aa3fb9d280a1193a2e8899e3f7",
    "vanilla_fl/fedavg/1": "c12cc544b9894a725598bc4d0c325095d8b445f07803b0155e6794effa0e785d",
    "vanilla_fl/fedbn_plus/0": "f4899e52c3064de83554f503d0a0abbe9a071a86f9eb17626cbff09abe07f357",
    "vanilla_fl/fedbn_plus/1": "3c287c1e072a3ad4bf0985477c5c4c9b7989f8e689b33b39502623090f3b6508",
    "fl_partial_loss/fedavg/0": "719eb84ff3fd49f95c6ba1c378b3dee8e8ae3565434e0a0db74537f98dddfee6",
    "fl_partial_loss/fedavg/1": "7dd3a38d4c2bb5c6f684448fb8eadd6aa6b7af7cbfa1b6b8e86cb235fe514f82",
    "fl_partial_loss/fedbn_plus/0": "9b21e7fbe642357e5b9e91ac360544115d54afeeb36a4b1ebcdcc2fcdb3bde7b",
    "fl_partial_loss/fedbn_plus/1": "0182d3d72ec26a341e6e8ddb38f763e9f036ed04e5be047280da7c395d9c7fc6",
    "pfl/fedavg/0": "73353d47ae568a2f33f335b1d6d705256e2166b3c557cb49aa9be1563e92e420",
    "pfl/fedavg/1": "29a786cff5e726f2d2f58a6b04d795bcf823b34181f939b868b834ba6b424fed",
    "pfl/fedbn/0": "6e1927cf86139a6bd1297aaf8c6f26d2908cf98adbac865adea5ea8d53ee627f",
    "pfl/fedbn/1": "5df6168d8cc5a4c5070fea26e355c0b3ec4ebf43d66a88eb59ca374dd2c5fda8",
    "pfl/fedbn_plus/0": "5abb8f8f6d3253020c7f5aed3f2616327bd6499de320b944817c36712bb8287b",
    "pfl/fedbn_plus/1": "191fae7e56a29a651717fb98775bd17829858165ab6ffbcd46ee314697b72f14",
    "centralized/fedavg/0": "f9e12d4eb1cc3db5bbd0fea3381a0c625d99a6be7541ecc672e6c06ad90d7615",
    "centralized/fedavg/1": "95ce17c5357310ba01e44d8ceae8c71f0ebc98c28a38b18af72d3a940c935004",
    "centralized/fedbn_plus/0": "25700133e16b4915bf5f91d1412fa7f4329470ec2d9063a9e0f0e3b79a3fd326",
    "centralized/fedbn_plus/1": "50c693a03c9d0736ae5e32a28beac3c12cda37580eb70bf6248cad857cf36932",
    "individual/fedavg/0": "67a08a0db50424ae6ad0bee8278d8e52c54fcf11e05e51047ce462db8c433537",
    "individual/fedavg/1": "0153bf24e65b86331c5d18aafce23255845a5f0de84f614a75022222ae3bba83",
    "individual/fedbn_plus/0": "35ae4793ab99b22655232b0fc6e40e10e681eeda2e912358800f098dfd2ca2dc",
    "individual/fedbn_plus/1": "65d34ac65412da4bb66b0817fb029b7dd2ccadd7ad075cb09f812639ce4b9648",
}


def _artifact_digest(tmp_path, method: str, strategy: str, weighted: bool) -> str:
    from surgfed.cli import main

    cfg = {"scenario": PIN_SCENARIO, "method": method, "strategy": strategy,
           "sample_weighted": weighted, "T": 5, "E": 2, "warmup_epochs": 1, "hidden": [5]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"{method}-{strategy}-{int(weighted)}"
    assert main(["run", str(path), "--out", str(out)]) == 0
    h = hashlib.sha256()
    for f in sorted(out.glob("*.csv")):  # rounds.csv and checkpoint*.csv
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def test_artifacts_match_the_pinned_digests(tmp_path) -> None:
    valid = [
        f"{m}/{s}/{w}" for m in METHODS for s in STRATEGIES for w in (0, 1)
        if s != "fedbn" or m == "pfl"
    ]
    assert sorted(valid) == sorted(PINNED_DIGESTS)
    for key in valid:
        method, strategy, weighted = key.split("/")
        assert _artifact_digest(tmp_path, method, strategy, weighted == "1") == PINNED_DIGESTS[key], key


# --- suites -------------------------------------------------------------------


def test_suite_rows_and_reference() -> None:
    configs = [
        _cfg("surgical"),
        _cfg("vanilla_fl"),
        _cfg("pfl"),
    ]
    suite, results = run_suite(configs)
    assert [row.label for row in suite.rows] == ["surgical", "vanilla_fl", "pfl"]
    assert suite.rows[0].is_reference
    assert suite.rows[0].groups["all"].stars == "ref"
    assert suite.rows[0].groups["all"].p is None
    assert not suite.rows[1].is_reference
    assert suite.rows[1].groups["all"].p is not None
    assert suite.rows[1].groups["all"].n == 4
    assert all(r is not None for r in results)
    # pfl rows are built from per-client models but still cover all classes
    assert suite.rows[2].groups["all"].n == 4


def test_suite_duplicate_method_labels() -> None:
    configs = [_cfg("surgical"), _cfg("surgical", lr=0.02)]
    suite, _ = run_suite(configs)
    assert [row.label for row in suite.rows] == ["surgical", "surgical#2"]
    assert suite.rows[0].is_reference and not suite.rows[1].is_reference


def test_suite_member_failure_is_recorded() -> None:
    # this step size overflows the weights, so the member raises a
    # NumericError in round 1
    with np.errstate(over="ignore", invalid="ignore"):
        suite, results = run_suite([_cfg("surgical"), _cfg("vanilla_fl", lr=1e200)])
    assert not suite.rows[0].failed
    assert suite.rows[1].failed
    assert suite.rows[1].groups["all"].stars == "failed"
    assert results[1] is None


def test_suite_requires_a_live_reference() -> None:
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConfigError):
        run_suite([_cfg("surgical", lr=1e200), _cfg("vanilla_fl")])
    with pytest.raises(ConfigError):
        run_suite([_cfg("vanilla_fl")], reference="surgical")
    with pytest.raises(ConfigError):
        run_suite([])
