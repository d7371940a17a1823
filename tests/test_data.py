from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from surgfed import (
    CLIENT_LADDER,
    SHARED_LADDER,
    ConfigError,
    LabeledSet,
    ScenarioSpec,
    effect_of_clients_scenarios,
    effect_of_shared_classes_scenarios,
    generate_synthetic,
    resolve_assignment,
    scatter_restricted,
    stats_split,
)
from surgfed.registry import sharing_profile


def test_labeled_set_validation() -> None:
    with pytest.raises(ConfigError):
        LabeledSet(np.zeros(3), np.zeros((3, 1)))
    with pytest.raises(ConfigError):
        LabeledSet(np.zeros((3, 2)), np.zeros((2, 1)))
    with pytest.raises(ConfigError):
        LabeledSet(np.full((2, 2), np.nan), np.zeros((2, 1)))
    with pytest.raises(ConfigError):
        LabeledSet(np.zeros((2, 2)), np.full((2, 1), 0.5))
    ls = LabeledSet(np.zeros((2, 2)), np.ones((2, 1)))
    assert ls.n == 2


@pytest.mark.parametrize("bad", [0.5, 2.0, np.nan, 256, -255])
def test_labeled_set_rejects_non_binary_labels_before_any_conversion(bad) -> None:
    """Labels are checked for exactly 0 and 1 in the dtype they arrive
    in, before they are stored as ``int8``: the cast would read 0.5 as 0
    and 256 as 0, and give NaN no defined value."""
    y = np.zeros((3, 2), dtype=np.float64 if isinstance(bad, float) else np.int64)
    y[1, 1] = bad
    with pytest.raises(ConfigError, match="exactly 0 or 1"):
        LabeledSet(np.zeros((3, 2)), y)


def test_labeled_set_keeps_its_labels_as_int8() -> None:
    """0/1 labels of any dtype are kept as ``int8``; ``int8`` labels are
    kept as they are, not copied."""
    for y in ([[1, 0], [0, 1]], np.eye(2), np.eye(2, dtype=bool), np.eye(2, dtype=np.uint16)):
        ls = LabeledSet(np.zeros((2, 2)), y)
        assert ls.y.dtype == np.int8
        np.testing.assert_array_equal(ls.y, np.eye(2))
    y = np.eye(2, dtype=np.int8)
    assert LabeledSet(np.zeros((2, 2)), y).y is y


def test_spec_validation() -> None:
    base = dict(n_per_client=50, d=4, M=3, K=2, seed=0)
    with pytest.raises(ConfigError):
        ScenarioSpec(**base)  # neither assignment nor counts
    with pytest.raises(ConfigError):
        ScenarioSpec(**base, shared_count=1, unique_count=3)  # counts must sum to M
    with pytest.raises(ConfigError):
        ScenarioSpec(**base, assignment=[[0, 1, 2]])  # one list per client
    with pytest.raises(ConfigError):
        ScenarioSpec(**base, assignment=[[0], [1, 2]], shared_count=1, unique_count=2)
    with pytest.raises(ConfigError):
        ScenarioSpec(**base, assignment=[[0], [1, 2]], shift_sigma=1.0)  # iid pins sigma
    with pytest.raises(ConfigError):
        ScenarioSpec(**base, assignment=[[0], [1, 2]], label_noise=0.5)
    with pytest.raises(ConfigError):
        ScenarioSpec(**base, assignment=[[0], [1, 2]], val_fraction=1.0)


def test_generator_contract_example() -> None:
    # one shared class with two unique ones lands as {0,1} / {1,2}
    spec = ScenarioSpec(n_per_client=50, d=4, M=3, K=2, seed=0, shared_count=1, unique_count=2)
    assert resolve_assignment(spec) == ((0, 1), (1, 2))


def test_generator_layout_shared_block_after_first_client() -> None:
    spec = ScenarioSpec(n_per_client=50, d=4, M=8, K=4, seed=0, shared_count=2, unique_count=6)
    assignment = resolve_assignment(spec)
    # client 0 owns {0,1} plus shared {2,3}; later clients get the rest
    assert assignment == ((0, 1, 2, 3), (2, 3, 4, 5), (2, 3, 6), (2, 3, 7))
    reg_classes = set()
    for cs in assignment:
        reg_classes.update(cs)
    assert reg_classes == set(range(8))


def test_generator_rejects_classless_client() -> None:
    spec = ScenarioSpec(n_per_client=50, d=4, M=2, K=3, seed=0, shared_count=0, unique_count=2)
    with pytest.raises(ConfigError):
        resolve_assignment(spec)


def test_explicit_assignment_passthrough(tiny_scenario) -> None:
    assert resolve_assignment(tiny_scenario) == ((0, 1, 2), (1, 2, 3))


def test_generation_is_deterministic(tiny_scenario) -> None:
    a = generate_synthetic(tiny_scenario)
    b = generate_synthetic(tiny_scenario)
    np.testing.assert_array_equal(a.test.x, b.test.x)
    np.testing.assert_array_equal(a.test.y, b.test.y)
    for ca, cb in zip(a.clients, b.clients):
        np.testing.assert_array_equal(ca.train.x, cb.train.x)
        np.testing.assert_array_equal(ca.train.y, cb.train.y)
        np.testing.assert_array_equal(ca.val.x, cb.val.x)


def test_features_do_not_depend_on_assignment(tiny_scenario) -> None:
    """Swapping the class assignment must not move a single sample."""
    other = replace(tiny_scenario, assignment=((0, 3), (1, 2, 3)))
    a = generate_synthetic(tiny_scenario)
    b = generate_synthetic(other)
    np.testing.assert_array_equal(a.test.x, b.test.x)
    for ca, cb in zip(a.clients, b.clients):
        np.testing.assert_array_equal(ca.train.x, cb.train.x)
        np.testing.assert_array_equal(ca.val.x, cb.val.x)


def test_split_sizes_and_label_views(tiny_scenario) -> None:
    data = generate_synthetic(tiny_scenario)
    n_val = max(1, round(60 * 0.2))
    for cd, cs in zip(data.clients, ((0, 1, 2), (1, 2, 3))):
        assert cd.classes == cs
        assert cd.train.n == 60 - n_val
        assert cd.val.n == n_val
        assert cd.train.y.shape[1] == len(cs)
    assert data.test.n == tiny_scenario.n_test
    assert data.test.y.shape[1] == tiny_scenario.M
    assert data.registry.client_classes == ((0, 1, 2), (1, 2, 3))


def test_every_split_has_both_labels(tiny_scenario) -> None:
    data = generate_synthetic(tiny_scenario)
    for cd in data.clients:
        for split in (cd.train, cd.val):
            assert np.all(split.y.max(axis=0) == 1.0)
            assert np.all(split.y.min(axis=0) == 0.0)
    assert np.all(data.test.y.max(axis=0) == 1.0)
    assert np.all(data.test.y.min(axis=0) == 0.0)


def test_prevalences_are_the_per_column_means() -> None:
    """``realized`` takes one column mean per client; at the wide shape
    (K=50, M=500) its prevalences are bitwise, key for key, the mean of
    each class's label column taken alone."""
    spec = ScenarioSpec(n_per_client=300, d=20, M=500, K=50, seed=100, shared_count=50, unique_count=450,
                        skew="feature_shift", shift_sigma=0.75, n_test=200)
    data = generate_synthetic(spec)
    names = data.registry.global_classes
    want = [{names[c]: float(cd.train.y[:, j].mean()) for j, c in enumerate(cd.classes)} for cd in data.clients]
    got = data.realized()["train_prevalence"]
    assert [list(p.items()) for p in got] == [list(p.items()) for p in want]
    assert all(type(v) is float for p in got for v in p.values())


def test_generation_peak_stays_near_what_it_keeps() -> None:
    """Each client's labels are cut to its classes as they are drawn, so
    at most one client's full-width label matrix exists at a time: the
    traced peak of a 40-client, 200-class draw rises at most 2.5 MB above
    what it returns (about 1 MB).  Holding every client's full-width
    labels until all were checked took it 12.4 MB above."""
    import tracemalloc

    spec = ScenarioSpec(n_per_client=200, d=20, M=200, K=40, seed=0, n_test=200,
                        shared_count=40, unique_count=160)
    tracemalloc.start()
    try:
        data = generate_synthetic(spec)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data.clients) == 40
    assert peak - kept <= 2.5 * 2**20, (kept, peak)


# (n_per_client, seed) of three feature-shifted specs: the threshold draw
# each accepts, and the sha256 of every array it generates
RETRY_DIGESTS = {
    (16, 4): (3, "3f329d76a212a00660d69af7b77ce797b015d6922344ca059f3b46d28ec8bdfc"),
    (16, 9): (56, "fc348fec7f5b2dd1c61a3ea4f9b6e48cd01161e550ed3f0de6d8265ea7f8566a"),
    (12, 41): (53, "943a9b911cf14bd650f770778b877747ade499fda5f8b5667ab22888a6236fb3"),
}


def _scenario_digest(data) -> str:
    """sha256 over the dtype, shape and bytes of the test split and of every client's splits."""
    import hashlib

    h = hashlib.sha256()
    for a in [data.test.x, data.test.y, *(a for cd in data.clients for s in (cd.train, cd.val) for a in (s.x, s.y))]:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n, seed", RETRY_DIGESTS)
def test_threshold_retries_rewrite_the_label_rows_to_the_pinned_bits(n, seed, monkeypatch) -> None:
    """A draw accepted only after 3, 56 or 53 threshold attempts, each
    rewriting every client's label rows, gives the pinned arrays: what is
    kept is the accepted attempt's labels alone, cut from the same draws."""
    from surgfed import data as data_module

    calls = []
    monkeypatch.setattr(data_module, "_labels_for", lambda *a, draw=data_module._labels_for: calls.append(1) or draw(*a))
    spec = ScenarioSpec(n_per_client=n, d=4, M=6, K=3, seed=seed, shared_count=3, unique_count=3,
                        skew="feature_shift", shift_sigma=1.0)
    data = generate_synthetic(spec)
    attempts, digest = RETRY_DIGESTS[n, seed]
    assert len(calls) == attempts * (spec.K + 1)  # the test labels, then each client's, per attempt
    assert _scenario_digest(data) == digest


def _labels_by_formula(x, u, tau, noise, rng):
    """The label draw as three full float64 temporaries wrote it."""
    y = (x @ u.T > tau).astype(np.float64)
    flips = rng.random(y.shape) < noise
    return np.where(flips, 1.0 - y, y)


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_label_draw_is_the_formula_at_a_fraction_of_its_memory(noise, traced_rise) -> None:
    """``_labels_for`` flips boolean labels in place and returns them as
    ``int8``: the same draws give the formula's values, C-ordered, and its
    traced peak stays within 1.5x of the bytes float64 labels would take
    (the formula's is about 3x)."""
    from surgfed.data import _labels_for

    rng = np.random.default_rng(4)
    x = rng.standard_normal((2000, 20))
    u = rng.standard_normal((500, 20))
    tau = rng.uniform(-0.8, 0.8, 500)
    expected = _labels_by_formula(x, u, tau, noise, np.random.default_rng(9))
    got, peak = traced_rise(lambda: _labels_for(x, u, tau, noise, np.random.default_rng(9)))
    assert got.dtype == np.int8 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, expected)
    assert peak <= 1.5 * got.size * 8, (peak, got.size * 8)


def test_a_split_without_training_rows_is_rejected_at_construction() -> None:
    """The split sizes are derived from the spec; a ``val_fraction`` that
    leaves fewer than 2 validation or training rows (a split of one row
    never holds both labels) fails when the spec is built, not when the
    data is drawn, and the sizes are what the clients get."""
    with pytest.raises(ConfigError, match="val_fraction"):
        ScenarioSpec(n_per_client=2, d=3, M=2, K=1, seed=0, assignment=[[0, 1]], val_fraction=0.9)
    with pytest.raises(ConfigError, match="val_fraction"):
        ScenarioSpec(n_per_client=60, d=3, M=2, K=1, seed=0, assignment=[[0, 1]], val_fraction=0.995)
    for n in range(2, 8):  # one validation row at the default fraction
        with pytest.raises(ConfigError, match="val_fraction"):
            ScenarioSpec(n_per_client=n, d=3, M=2, K=1, seed=0, assignment=[[0, 1]])
    with pytest.raises(ConfigError, match="val_fraction"):
        ScenarioSpec(n_per_client=60, d=3, M=2, K=1, seed=0, assignment=[[0, 1]], val_fraction=0.99)
    spec = ScenarioSpec(n_per_client=60, d=3, M=2, K=1, seed=0, assignment=[[0, 1]], val_fraction=0.97)
    assert (spec.n_val, spec.n_train) == (58, 2)
    spec = ScenarioSpec(n_per_client=8, d=3, M=2, K=1, seed=0, assignment=[[0, 1]])
    assert (spec.n_val, spec.n_train) == (2, 6)
    spec = ScenarioSpec(n_per_client=60, d=3, M=2, K=2, seed=0, assignment=[[0, 1], [0, 1]], val_fraction=0.3)
    data = generate_synthetic(spec)
    assert all((cd.val.n, cd.train.n) == (spec.n_val, spec.n_train) == (18, 42) for cd in data.clients)


def test_infeasible_split_raises() -> None:
    # a shift this large puts every row of a client on one side of each
    # class's threshold; only label noise can give a split both values,
    # and at this seed none of the 100 draws does
    spec = ScenarioSpec(n_per_client=40, d=3, M=3, K=2, seed=1, assignment=[[0, 1], [1, 2]],
                        skew="feature_shift", shift_sigma=1e300)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConfigError, match="invariant"):
        generate_synthetic(spec)


def test_no_leakage_between_test_and_clients(tiny_scenario) -> None:
    data = generate_synthetic(tiny_scenario)
    pool = {tuple(row) for cd in data.clients for row in cd.train.x}
    pool |= {tuple(row) for cd in data.clients for row in cd.val.x}
    overlap = sum(tuple(row) in pool for row in data.test.x)
    assert overlap == 0


def test_iid_grand_mean_concentrates() -> None:
    # the entrywise grand mean over all clients shrinks like 1/sqrt(#entries)
    worst = 0.0
    for seed in range(20):
        spec = ScenarioSpec(n_per_client=200, d=10, M=2, K=3, seed=seed,
                            assignment=[[0], [1], [0, 1]])
        data = generate_synthetic(spec)
        stacked = np.vstack([cd.train.x for cd in data.clients])
        worst = max(worst, abs(float(stacked.mean())))
    n_entries = 3 * 160 * 10
    assert worst < 4.0 / np.sqrt(n_entries)


def test_feature_shift_moves_client_means() -> None:
    spec = ScenarioSpec(n_per_client=4000, d=8, M=2, K=3, seed=5,
                        assignment=[[0], [1], [0, 1]],
                        skew="feature_shift", shift_sigma=2.0)
    data = generate_synthetic(spec)
    for cd in data.clients:
        offset = np.linalg.norm(cd.train.x.mean(axis=0))
        assert offset == pytest.approx(2.0, abs=0.25)
    # the test pool stays centred on the base distribution
    assert np.linalg.norm(data.test.x.mean(axis=0)) < 0.25


def test_label_noise_flips_roughly_the_stated_fraction() -> None:
    clean = ScenarioSpec(n_per_client=3000, d=6, M=3, K=1, seed=9,
                         assignment=[[0, 1, 2]], label_noise=0.0)
    noisy = replace(clean, label_noise=0.1)
    a = generate_synthetic(clean)
    b = generate_synthetic(noisy)
    flipped = float((a.clients[0].train.y != b.clients[0].train.y).mean())
    assert flipped == pytest.approx(0.1, abs=0.02)


def test_stats_split_shape_and_determinism(tiny_scenario) -> None:
    a = stats_split(tiny_scenario)
    assert a.shape == (1024, tiny_scenario.d)
    np.testing.assert_array_equal(a, stats_split(tiny_scenario))


# --- label masking helpers --------------------------------------------------


def test_masking_equivalence() -> None:
    """Scattering a full matrix's restricted columns back to full width
    equals the full matrix with every column outside the class set
    zeroed (missing labels read as negatives)."""
    rng = np.random.default_rng(2)
    y = (rng.random((9, 6)) < 0.5).astype(float)
    cs = (1, 4)
    zeroed = y.copy()
    zeroed[:, [0, 2, 3, 5]] = 0.0
    np.testing.assert_array_equal(scatter_restricted(y[:, list(cs)], cs, 6), zeroed)


def test_scatter_restricted_validation() -> None:
    y = np.ones((3, 2))
    with pytest.raises(ConfigError):
        scatter_restricted(y, [0], 4)
    with pytest.raises(ConfigError):
        scatter_restricted(y, [0, 5], 4)


# --- ladders -----------------------------------------------------------------


def test_client_ladder_shapes() -> None:
    specs = effect_of_clients_scenarios(123)
    assert tuple(s.K for s in specs) == CLIENT_LADDER
    for spec in specs:
        assert spec.n_per_client * spec.K == 2400
        assert spec.M == 14
        covered = set()
        for cs in spec.assignment:
            assert len(cs) >= 1
            covered.update(cs)
        assert covered == set(range(14))
    # the ladder is reproducible from its seed
    again = effect_of_clients_scenarios(123)
    assert [s.assignment for s in again] == [s.assignment for s in specs]
    assert effect_of_clients_scenarios(124)[0].seed != specs[0].seed


def test_shared_ladder_counts_and_identical_features() -> None:
    specs = effect_of_shared_classes_scenarios(77)
    assert len(specs) == len(SHARED_LADDER)
    for spec, s in zip(specs, SHARED_LADDER):
        assert spec.K == 4
        reg_prof = sharing_profile(
            generate_synthetic(replace(spec, n_per_client=40)).registry
        )
        assert len(reg_prof.shared_by_all) == s
    # same data seed on every rung: the feature matrices are bit-identical
    a = generate_synthetic(replace(specs[0], n_per_client=40))
    b = generate_synthetic(replace(specs[-1], n_per_client=40))
    for ca, cb in zip(a.clients, b.clients):
        np.testing.assert_array_equal(ca.train.x, cb.train.x)


@pytest.mark.parametrize("base_seed", [0, 1, 3, 7000, 7001, 7002, 12345, 2**31])
def test_each_ladder_spec_is_its_constants_rung(base_seed) -> None:
    """The ablation names a rung by the ladder constant it was drawn from:
    each shared-ladder spec has its ``SHARED_LADDER`` count of classes
    held by every client, each clients-ladder spec its ``CLIENT_LADDER``
    count of clients, in order."""
    from surgfed import ClassRegistry

    shared = [len(sharing_profile(ClassRegistry([f"c{i}" for i in range(spec.M)], spec.assignment)).shared_by_all)
              for spec in effect_of_shared_classes_scenarios(base_seed)]
    assert shared == list(SHARED_LADDER)
    assert [spec.K for spec in effect_of_clients_scenarios(base_seed)] == list(CLIENT_LADDER)


@pytest.mark.parametrize("classes", [[0.7], [True], ["2"], [-1], [np.float64(1.0)]])
def test_scatter_restricted_takes_class_ids_as_they_are(classes) -> None:
    """An id that is not an integer in [0, M) used to be read through
    ``int``: ``[0.7]`` filled column 0, ``[True]`` column 1, ``["2"]``
    column 2, and ``[-1]`` the last column."""
    with pytest.raises(ConfigError):
        scatter_restricted(np.ones((3, 1), dtype=np.int8), classes, 4)
    out = scatter_restricted(np.ones((3, 1), dtype=np.int8), [np.int64(2)], 4)
    np.testing.assert_array_equal(out, np.tile([0, 0, 1, 0], (3, 1)))


def test_scatter_restricted_rejects_a_class_named_twice() -> None:
    """``[1, 1, 0]`` used to pass for 2-wide labels, its repeat dropped."""
    with pytest.raises(ConfigError, match="twice"):
        scatter_restricted(np.ones((3, 2), dtype=np.int8), [1, 1, 0], 4)
