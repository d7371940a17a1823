from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgfed import (
    Architecture,
    ClassRegistry,
    ConfigError,
    ContractViolation,
    LabeledSet,
    ParamSet,
    TestPlan,
    auroc,
    batchnorm,
    build_architecture,
    dense,
    evaluate,
    forward,
    init_model,
    paired_ttest,
    relu,
    significance_stars,
)
from surgfed.nn import eval_buffers


def _pair_count_auroc(scores, labels) -> float | None:
    """Brute-force oracle: count winning positive/negative pairs, ties
    worth one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return None
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (len(pos) * len(neg)))


def test_auroc_known_value() -> None:
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auroc_perfect_and_inverted() -> None:
    assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auroc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0


def test_auroc_all_tied_is_half() -> None:
    assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auroc_undefined_for_single_class() -> None:
    assert auroc([0.1, 0.9], [1, 1]) is None
    assert auroc([0.1, 0.9], [0, 0]) is None


def test_auroc_validation() -> None:
    with pytest.raises(ConfigError):
        auroc([0.1], [0, 1])
    with pytest.raises(ConfigError):
        auroc([], [])
    with pytest.raises(ConfigError):
        auroc([0.1, 0.2], [0, 2])


def _rankdata_auroc(scores, labels) -> float:
    """Rank-sum AUROC on scipy's tie-averaged ranks, summed the same way."""
    from scipy.stats import rankdata

    labels = np.asarray(labels, dtype=float)
    n_pos = int(labels.sum())
    ranks = rankdata(scores, method="average")
    u = ranks[labels == 1.0].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * (labels.size - n_pos)))


def _sorted_auroc(pos: np.ndarray, neg: np.ndarray) -> float:
    """Binary-search oracle, independent of the integer-sort kernel: the
    AUROC of non-empty, sorted positive and negative scores from two
    searches of each positive in the negatives, NaN when either holds a
    NaN (sorting puts NaN last), since NaN has no order."""
    if np.isnan(pos[-1]) or np.isnan(neg[-1]):
        return float("nan")
    # per positive: 2 * (negatives below) + (negatives tied), an exact integer
    twice_u = neg.searchsorted(pos, "left").sum() + neg.searchsorted(pos, "right").sum()
    return float((twice_u / 2.0) / (pos.size * neg.size))


def test_auroc_matches_pair_counting_with_ties() -> None:
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        # coarse grid makes ties common
        scores = rng.integers(0, 6, size=n) / 5.0
        labels = rng.integers(0, 2, size=n)
        expected = _pair_count_auroc(scores, labels)
        got = auroc(scores, labels)
        if expected is None:
            assert got is None
        else:
            assert got == expected
            assert got == _rankdata_auroc(scores, labels)  # bitwise, not approximately


def _same_value(a, b) -> bool:
    """Bitwise equality of two AUROC results; any NaN matches any NaN."""
    if a is None or b is None:
        return a is None and b is None
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# few distinct values make ties common; both zeros and both infinities
# sort as equals or as extremes, and NaN has no order at all
_AWKWARD_SCORES = st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0, 3.0, np.inf, -np.inf, np.nan])


@given(
    st.lists(
        st.tuples(
            st.one_of(_AWKWARD_SCORES, st.floats(allow_nan=True, allow_infinity=True)),
            st.integers(0, 1),
        ),
        min_size=1, max_size=60,
    ),
    st.sampled_from(["mixed", "all_positive", "all_negative"]),
)
@settings(max_examples=400, deadline=None)
def test_auroc_equals_rankdata_oracle_bitwise(pairs, label_mode) -> None:
    scores = np.array([s for s, _ in pairs], dtype=float)
    labels = np.array([y for _, y in pairs], dtype=float)
    if label_mode != "mixed":
        labels[:] = 1.0 if label_mode == "all_positive" else 0.0
    got = auroc(scores, labels)
    if labels.min() == labels.max():
        assert got is None
    else:
        assert _same_value(got, _rankdata_auroc(scores, labels))


def test_evaluate_per_class_equals_scalar_loop() -> None:
    M = 60
    arch = build_architecture(6, hidden=(8,))
    reg = ClassRegistry([f"c{i:02d}" for i in range(M)], [range(0, 40), range(20, M)])
    rng = np.random.default_rng(11)
    x = rng.normal(size=(300, 6))
    y = (rng.random((300, M)) < rng.uniform(0.05, 0.6, size=M)).astype(float)
    y[:, 8] = 0.0  # degenerate: no positives
    test = LabeledSet(x, y)
    # the model covers every other class, in a shuffled column order
    model_classes = [int(c) for c in rng.permutation(np.arange(0, M, 2))]
    params = init_model(arch, len(model_classes), seed=4, class_ids=model_classes)
    ev = evaluate(params, arch, model_classes, TestPlan(test, reg))
    _, scores = forward(params, arch, x, "eval")
    assert sorted(ev.per_class) == list(range(M))
    for c in range(M):
        if c in model_classes:
            expected = auroc(scores[:, model_classes.index(c)], y[:, c])
        else:
            expected = None
        assert _same_value(ev.per_class[c], expected), c
    assert ev.degenerate == (8,)
    assert ev.uncovered == tuple(c for c in range(M) if c not in model_classes)


@pytest.mark.parametrize("specs", [
    (relu(6), dense(6, 5)),
    (batchnorm(6), dense(6, 5), relu(5)),
    (dense(6, 5), relu(5), dense(5, 4), batchnorm(4), relu(4)),
    (),
], ids=["relu-first", "batchnorm-first", "dense-first", "logistic"])
def test_buffered_evaluate_keeps_its_input_and_its_results(specs) -> None:
    """The forward pass into caller-owned buffers works in place, but
    never on the test inputs: after ``evaluate`` the inputs hold the same
    bits and the last buffer holds, bit for bit, the scores of a forward
    call without buffers.  A result taken earlier is unchanged by a later
    evaluation into the same buffers, and each equals the unbuffered one."""
    M, rng = 4, np.random.default_rng(8)
    arch = Architecture(6, specs)
    x = rng.normal(size=(200, 6))
    y = (rng.random((200, M)) < 0.4).astype(float)
    plan = TestPlan(LabeledSet(x, y), ClassRegistry([f"c{i}" for i in range(M)], [range(M)]))
    bufs, results = eval_buffers(arch, plan.n, M), []
    for seed in (1, 2):
        params = init_model(arch, M, seed=seed)
        for i in arch.bn_layers():  # move batch norm away from the identity
            for stat in (params.bn_mean[i], params.bn_var[i], params.feature[f"{i}.beta"]):
                stat += rng.uniform(0.1, 1.0, stat.shape)
        evaluated = evaluate(params, arch, range(M), plan, bufs=bufs)
        assert plan.x.tobytes() == x.tobytes() and plan.x is x
        assert bufs[-1].tobytes() == forward(params, arch, x, "eval")[1].tobytes()
        assert evaluated == evaluate(params, arch, range(M), plan)
        results.append((evaluated, copy.deepcopy(evaluated)))
    assert all(ev == snapshot for ev, snapshot in results)
    assert results[0][0] != results[1][0]


def _scalar_loop(scores, model_classes, y, classes):
    """The per-class reference: :func:`auroc` on each covered class's
    score column and label column, None where no column exists."""
    return {
        c: auroc(scores[:, model_classes.index(c)], y[:, c]) if c in model_classes else None
        for c in classes
    }


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_plan_evaluate_equals_scalar_auroc_loop(data) -> None:
    """Scores are drawn directly (``forward`` is stubbed per parameter
    set), so ties, +-0.0, infinities and NaN reach the plan's scoring;
    one plan serves two parameter sets in turn."""
    from unittest import mock

    from surgfed import metrics

    n = data.draw(st.integers(2, 40), label="n")
    M = data.draw(st.integers(1, 6), label="M")
    y = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=M, max_size=M), min_size=n, max_size=n,
    ), label="y"), dtype=float)
    for c in data.draw(st.sets(st.integers(0, M - 1)), label="degenerate"):
        y[:, c] = data.draw(st.sampled_from([0.0, 1.0]))
    reg = ClassRegistry([f"c{i}" for i in range(M)], [range(M)])
    plan = TestPlan(LabeledSet(np.zeros((n, 1)), y), reg)
    arch = build_architecture(1, hidden=())
    # a shuffled, possibly partial column order: the other classes are uncovered
    model_classes = data.draw(st.permutations(range(M)), label="columns")[
        : data.draw(st.integers(1, M), label="width")
    ]
    subset = data.draw(st.none() | st.sets(st.integers(0, M - 1), min_size=1), label="subset")
    models = [init_model(arch, len(model_classes), seed=s, class_ids=model_classes) for s in (1, 2)]
    score_of = {
        id(ps): np.array(data.draw(st.lists(
            st.lists(_AWKWARD_SCORES, min_size=len(model_classes), max_size=len(model_classes)),
            min_size=n, max_size=n,
        ), label="scores"), dtype=float)
        for ps in models
    }

    def drawn_scores(params, arch, x, mode, bufs=None):
        return None, score_of[id(params)]

    with mock.patch.object(metrics, "forward", drawn_scores):
        for ps in models:
            ev = evaluate(ps, arch, model_classes, plan, subset)
            expected = _scalar_loop(score_of[id(ps)], model_classes, y,
                                    range(M) if subset is None else sorted(subset))
            assert list(ev.per_class) == list(expected)
            for c, v in expected.items():
                assert _same_value(ev.per_class[c], v), c
            assert ev.uncovered == tuple(c for c in expected if c not in model_classes)
            assert ev.degenerate == tuple(
                c for c in expected if c in model_classes and y[:, c].min() == y[:, c].max()
            )


@given(
    st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=30),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_auroc_symmetries(grid, data) -> None:
    scores = np.array(grid, dtype=float) / 4.0
    labels = np.array(data.draw(
        st.lists(st.integers(0, 1), min_size=len(grid), max_size=len(grid))
    ))
    a = auroc(scores, labels)
    if a is None:
        return
    # flipping the score sign reverses the ranking
    assert auroc(-scores, labels) == pytest.approx(1.0 - a, abs=1e-12)
    # flipping the labels swaps the roles of the two groups
    assert auroc(scores, 1 - labels) == pytest.approx(1.0 - a, abs=1e-12)
    # rank preserving maps leave the value untouched
    assert auroc(3.0 * scores + 2.0, labels) == a
    assert auroc(np.exp(scores), labels) == a


# --- evaluate ------------------------------------------------------------


def _eval_fixture():
    arch = build_architecture(3, hidden=())
    reg = ClassRegistry(["a", "b", "c"], [(0, 1), (0, 2), (0, 1, 2)])
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    y = (rng.random((40, 3)) < 0.5).astype(float)
    y[0] = 1.0
    y[1] = 0.0
    test = LabeledSet(x, y)
    return arch, reg, test


def test_evaluate_full_model() -> None:
    arch, reg, test = _eval_fixture()
    params = init_model(arch, 3, seed=1)
    ev = evaluate(params, arch, [0, 1, 2], TestPlan(test, reg))
    assert set(ev.per_class) == {0, 1, 2}
    assert all(v is not None for v in ev.per_class.values())
    assert ev.uncovered == () and ev.degenerate == ()
    assert ev.mean_auroc == pytest.approx(np.mean(list(ev.per_class.values())))
    assert set(ev.group_means) == {"shared_by_all", "partially_shared", "unique"}
    assert ev.group_means["shared_by_all"] == ev.per_class[0]


def test_evaluate_uncovered_classes_poison_the_mean() -> None:
    arch, reg, test = _eval_fixture()
    params = init_model(arch, 2, seed=1, class_ids=[0, 1])
    ev = evaluate(params, arch, [0, 1], TestPlan(test, reg))
    assert ev.per_class[2] is None
    assert ev.uncovered == (2,)
    assert ev.mean_auroc is None
    # class 2 is partially shared here, so that group mean is undefined too
    assert ev.group_means["partially_shared"] is None
    assert ev.group_means["shared_by_all"] is not None


def test_evaluate_degenerate_classes_are_excluded_not_poisonous() -> None:
    arch, reg, test = _eval_fixture()
    y = test.y.copy()
    y[:, 2] = 1.0  # no negatives for class c
    test2 = LabeledSet(test.x, y)
    params = init_model(arch, 3, seed=1)
    ev = evaluate(params, arch, [0, 1, 2], TestPlan(test2, reg))
    assert ev.degenerate == (2,)
    assert ev.per_class[2] is None
    expected = np.mean([ev.per_class[0], ev.per_class[1]])
    assert ev.mean_auroc == pytest.approx(expected)


def test_evaluate_custom_subset() -> None:
    arch, reg, test = _eval_fixture()
    params = init_model(arch, 3, seed=1)
    ev = evaluate(params, arch, [0, 1, 2], TestPlan(test, reg), class_subset=[1, 2])
    assert set(ev.per_class) == {1, 2}
    assert "custom" in ev.group_means
    assert ev.group_means["custom"] == ev.mean_auroc
    with pytest.raises(ConfigError):
        evaluate(params, arch, [0, 1, 2], TestPlan(test, reg), class_subset=[])
    with pytest.raises(ConfigError):
        evaluate(params, arch, [0, 1, 2], TestPlan(test, reg), class_subset=[7])


def test_evaluate_contract_checks() -> None:
    arch, reg, test = _eval_fixture()
    params = init_model(arch, 3, seed=1)
    with pytest.raises(ContractViolation):
        evaluate(params, arch, [0, 1], TestPlan(test, reg))
    short = LabeledSet(test.x, test.y[:, :2])
    with pytest.raises(ContractViolation):
        evaluate(params, arch, [0, 1, 2], TestPlan(short, reg))


def test_evaluate_rejects_bad_class_ids_before_scoring() -> None:
    """A repeated, out-of-range or non-integer head id used to be read
    from the wrong column, dropped or coerced; now it fails before the
    forward pass, and so does such a ``class_subset`` entry."""
    from unittest import mock

    from surgfed import metrics

    arch, reg, test = _eval_fixture()
    params = init_model(arch, 3, seed=1)
    plan = TestPlan(test, reg)
    with mock.patch.object(metrics, "forward", side_effect=AssertionError("forward ran")):
        for model_classes in ([0, 0, 1], [0, 1, 7], [0, 1, -1], [0, 1.5, 2], [0, True, 2],
                              [0, "1", 2]):
            with pytest.raises(ContractViolation):
                evaluate(params, arch, model_classes, plan)
        for subset in ([1.5], [0, -1], [3], [True], [np.float64(1.0)]):
            with pytest.raises(ConfigError):
                evaluate(params, arch, [0, 1, 2], plan, class_subset=subset)
    # numpy integers are integers; a repeated subset entry is reported once
    ev = evaluate(params, arch, np.array([2, 0, 1]), plan, class_subset=[np.int64(1), 1])
    assert list(ev.per_class) == [1]


_CHUNK_EDGES = (0, 30, 31, 32, 33, 63, 64, 65)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_chunked_evaluate_equals_scalar_auroc_bitwise(data) -> None:
    """M spans several 32-class chunks, with uncovered and degenerate
    classes placed near the chunk edges.  Each score column is tied
    heavily across labels, continuous, or has each negative one float
    above some positive (which trips the tie check without a tie); one
    chunk may hold a single -0.0, 2.0 or NaN, which sends that chunk
    alone through the rank step.  Every value must be bitwise the scalar
    :func:`auroc` loop's and the binary-search oracle's on independently
    split, sorted scores."""
    from unittest import mock

    from surgfed import metrics

    n = data.draw(st.integers(2, 50), label="n")
    M = data.draw(st.integers(33, 100), label="M")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    y = (rng.random((n, M)) < rng.uniform(0.1, 0.9, size=M)).astype(float)
    y[0], y[-1] = 1.0, 0.0  # both labels in every class, until made degenerate
    edges = [c for c in _CHUNK_EDGES if c < M]
    for c in data.draw(st.sets(st.sampled_from(edges), max_size=3), label="degenerate"):
        y[:, c] = data.draw(st.sampled_from([0.0, 1.0]))
    dropped = data.draw(st.sets(st.sampled_from(edges), max_size=3), label="uncovered")
    model_classes = [int(c) for c in rng.permutation(M) if c not in dropped]
    reg = ClassRegistry([f"c{i}" for i in range(M)], [range(M)])
    plan = TestPlan(LabeledSet(np.zeros((n, 1)), y), reg)
    arch = build_architecture(1, hidden=())
    params = init_model(arch, len(model_classes), seed=0, class_ids=model_classes)

    scores = np.empty((n, len(model_classes)))
    for j in range(len(model_classes)):
        style = data.draw(st.sampled_from(["tied", "continuous", "neighbours"]))
        if style == "tied":
            scores[:, j] = rng.integers(0, 5, size=n) / 4.0
        elif style == "continuous":
            scores[:, j] = rng.random(n)
        else:
            # every negative one float above a positive's score: no tie
            base = rng.choice([0.0, 0.3, 1.0 - 2.0**-53], size=n)
            is_pos = y[:, model_classes[j]] == 1.0
            scores[:, j] = np.where(is_pos, base, np.nextafter(base, 1.0))
    planted = data.draw(st.sampled_from([None, -0.0, 2.0, np.nan]), label="planted")
    if planted is not None:
        row = data.draw(st.integers(0, n - 1))
        scores[row, data.draw(st.integers(0, len(model_classes) - 1))] = planted
    subset = data.draw(st.none() | st.sets(st.integers(0, M - 1), min_size=1), label="subset")
    classes = range(M) if subset is None else sorted(subset)

    with mock.patch.object(metrics, "forward", lambda *a, **k: (None, scores)):
        ev = evaluate(params, arch, model_classes, plan, subset)
    expected = _scalar_loop(scores, model_classes, y, classes)
    assert list(ev.per_class) == list(expected)
    for c, v in expected.items():
        assert _same_value(ev.per_class[c], v), c
        if v is not None:
            col, pos = scores[:, model_classes.index(c)], y[:, c] == 1.0
            oracle = _sorted_auroc(np.sort(col[pos]), np.sort(col[~pos]))
            assert _same_value(ev.per_class[c], oracle), c
    assert ev.uncovered == tuple(c for c in classes if c not in model_classes)
    assert ev.degenerate == tuple(
        c for c in classes if c in model_classes and y[:, c].min() == y[:, c].max()
    )


def test_evaluate_scores_a_seeded_model_without_the_exact_path() -> None:
    """The rank step is exact, so a change that ranked every chunk would
    pass every value test; a model's scores lie in [+0.0, 1.0], so no
    chunk may be ranked: every class is scored by its bit patterns."""
    from unittest import mock

    from surgfed import metrics

    M, n = 70, 400
    arch = build_architecture(6, hidden=(8,))
    reg = ClassRegistry([f"c{i:02d}" for i in range(M)], [range(M)])
    rng = np.random.default_rng(12)
    x = rng.normal(size=(n, 6))
    y = (rng.random((n, M)) < rng.uniform(0.05, 0.6, size=M)).astype(float)
    params = init_model(arch, M, seed=5, class_ids=range(M))
    plan = TestPlan(LabeledSet(x, y), reg)
    with mock.patch.object(metrics, "_dense_ranks", wraps=metrics._dense_ranks) as ranked:
        ev = evaluate(params, arch, range(M), plan)
    assert ranked.call_count == 0
    assert ev.uncovered == () and ev.degenerate == ()
    assert all(0.0 <= v <= 1.0 for v in ev.per_class.values())


def test_evaluate_scores_a_tied_model_without_the_exact_path() -> None:
    """A sample whose last ReLU layer is all zero scores every class at
    the class's bias, and samples with equal inputs score equally, so
    every class holds tied positive-negative pairs.  The ties are counted
    from the sorted bit-pattern keys: no chunk is ranked, and every value
    is bitwise the scalar :func:`auroc` loop's and the binary-search
    oracle's on independently split, sorted scores."""
    from unittest import mock

    from surgfed import metrics

    M, n = 70, 400
    arch = build_architecture(6, hidden=(8,))
    reg = ClassRegistry([f"c{i:02d}" for i in range(M)], [range(M)])
    rng = np.random.default_rng(13)
    x = rng.normal(size=(n, 6))
    x[::5] = 0.0  # every feature unit at zero: the head bias alone
    x[2::5] = rng.normal(size=6)  # one more tied group, at other scores
    y = (rng.random((n, M)) < rng.uniform(0.05, 0.6, size=M)).astype(float)
    params = init_model(arch, M, seed=5, class_ids=range(M))
    plan = TestPlan(LabeledSet(x, y), reg)
    with mock.patch.object(metrics, "_dense_ranks", wraps=metrics._dense_ranks) as ranked:
        ev = evaluate(params, arch, range(M), plan)
    assert ranked.call_count == 0
    _, scores = forward(params, arch, x, "eval")
    mixed = [c for c in range(M) if len(set(y[::5, c])) == 2 and len(set(y[2::5, c])) == 2]
    assert len(mixed) > M // 2
    assert all(np.unique(scores[::5, c]).size == 1 for c in range(M))
    assert ev.uncovered == () and ev.degenerate == ()
    for c, v in _scalar_loop(scores, list(range(M)), y, range(M)).items():
        pos = y[:, c] == 1.0
        oracle = _sorted_auroc(np.sort(scores[pos, c]), np.sort(scores[~pos, c]))
        assert _same_value(ev.per_class[c], v) and _same_value(v, oracle), c


def test_scores_outside_the_bit_range_are_ranked() -> None:
    """-0.0, negatives, values >= 2.0 and infinities have bit patterns
    that do not order as the floats do: such a row is ranked once, then
    scored by the same sort, bitwise as the binary-search oracle.  -0.0
    ties +0.0, and a NaN makes the row NaN."""
    from unittest import mock

    from surgfed import metrics

    labels = np.array([0, 1, 0, 1, 1, 0, 0, 1], dtype=float)
    base = np.array([0.0, 0.0, 0.5, 0.25, 1.0, 0.75, 0.25, 0.5])
    for planted in (-0.0, -1.0, 2.0, 6.0, np.inf, -np.inf, np.nan):
        scores = base.copy()
        scores[0] = planted
        with mock.patch.object(metrics, "_dense_ranks", wraps=metrics._dense_ranks) as ranked:
            got = auroc(scores, labels)
        assert ranked.call_count == 1, planted
        pos = labels == 1.0
        assert _same_value(got, _sorted_auroc(np.sort(scores[pos]), np.sort(scores[~pos]))), planted
    assert auroc(np.where(base == 0.0, -0.0, base), labels) == auroc(base, labels)
    assert np.isnan(auroc(np.r_[base[:-1], np.nan], labels))


# --- paired t-test -----------------------------------------------------------


def test_ttest_known_value() -> None:
    res = paired_ttest([2.0, 3.0, 4.0], [1.0, 1.0, 1.0])
    assert res.df == 2
    assert res.t == pytest.approx(3.464101615137754, rel=1e-13)
    assert res.p == pytest.approx(0.07417990022744855, rel=1e-10)
    assert not res.degenerate


def test_ttest_antisymmetry() -> None:
    rng = np.random.default_rng(8)
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    r1 = paired_ttest(a, b)
    r2 = paired_ttest(b, a)
    assert r1.t == -r2.t
    assert r1.p == r2.p


def test_ttest_scale_invariance() -> None:
    rng = np.random.default_rng(9)
    a = rng.normal(size=10)
    b = rng.normal(size=10)
    base = paired_ttest(a, b)
    doubled = paired_ttest(2.0 * a, 2.0 * b)
    assert doubled.t == base.t  # powers of two rescale exactly
    tripled = paired_ttest(3.0 * a, 3.0 * b)
    assert tripled.t == pytest.approx(base.t, rel=1e-12)


def test_ttest_degenerate_cases() -> None:
    allsame = paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert allsame.degenerate and allsame.p == 1.0 and allsame.t == 0.0
    shifted = paired_ttest([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
    assert shifted.t == np.inf and shifted.p == 0.0
    down = paired_ttest([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    assert down.t == -np.inf and down.p == 0.0


def test_ttest_validation() -> None:
    with pytest.raises(ConfigError):
        paired_ttest([1.0], [2.0])
    with pytest.raises(ConfigError):
        paired_ttest([1.0, 2.0], [1.0, 2.0, 3.0])


def test_ttest_p_against_large_sample_normal_limit() -> None:
    # with many pairs the t distribution approaches the normal, so a
    # statistic of 1.96 should sit near p = 0.05
    rng = np.random.default_rng(10)
    n = 5000
    noise = rng.normal(size=n)
    noise = noise - noise.mean()
    shift = 1.96 * noise.std(ddof=1) / np.sqrt(n)
    res = paired_ttest(noise + shift, np.zeros(n))
    assert res.t == pytest.approx(1.96, rel=1e-9)
    assert res.p == pytest.approx(0.05, abs=0.004)


def test_significance_stars() -> None:
    assert significance_stars(0.2) == "ns"
    assert significance_stars(0.05) == "*"
    assert significance_stars(0.03) == "*"
    assert significance_stars(0.004) == "**"
    assert significance_stars(0.0005) == "***"
    assert significance_stars(0.0) == "***"
    with pytest.raises(ConfigError):
        significance_stars(1.5)


def test_every_label_check_is_one_check_with_one_message(tiny_arch) -> None:
    """Test sets, test plans, the loss, the training check and AUROC
    refuse a label that is not exactly 0 or 1 with the same error."""
    from types import SimpleNamespace

    from surgfed import masked_bce_loss
    from surgfed.nn import check_training, stack_params

    y = np.array([[0.0, 1.0], [0.5, 0.0]])
    params = stack_params([init_model(tiny_arch, 2, seed=0)])
    calls = [
        lambda: LabeledSet(np.zeros((2, 4)), y),
        lambda: TestPlan(SimpleNamespace(x=np.zeros((2, 4)), y=y, n=2), ClassRegistry(["a", "b"], [[0, 1]])),
        lambda: masked_bce_loss(np.full((2, 2), 0.5), y, [0, 1]),
        lambda: check_training(params, tiny_arch, np.zeros((1, 2, 4)), y[None], [0, 1], 0.1, ()),
        lambda: auroc([0.1, 0.2, 0.3, 0.4], y.ravel()),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match=r"^labels must be exactly 0 or 1$"):
            call()
