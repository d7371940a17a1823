from __future__ import annotations

import math

import numpy as np
import pytest

from surgfed import (
    Architecture,
    ConfigError,
    ContractViolation,
    NumericError,
    ParamSet,
    backward,
    batchnorm,
    build_architecture,
    dense,
    forward,
    init_model,
    masked_bce_loss,
    params_equal,
    relu,
    sgd_step,
)
from surgfed.nn import (
    BCE_CLAMP, BN_EPS, BN_MOMENTUM, LayerSpec, _mask_cols, check_training, stack_params,
)

import reference_kernel
from conftest import random_params


# --- architecture specs -------------------------------------------------------


def test_layer_spec_validation() -> None:
    with pytest.raises(ConfigError):
        LayerSpec("conv", 3, 3)
    with pytest.raises(ConfigError):
        dense(0, 3)
    with pytest.raises(ConfigError):
        LayerSpec("relu", 3, 4)


def test_architecture_chain_must_connect() -> None:
    with pytest.raises(ConfigError, match="width"):
        Architecture(in_dim=4, feature_specs=(dense(4, 6), relu(5)))


def test_default_backbone_layout() -> None:
    arch = build_architecture(20)
    kinds = [s.kind for s in arch.feature_specs]
    # batchnorm only after the first dense layer
    assert kinds == ["dense", "batchnorm", "relu", "dense", "relu"]
    assert arch.feature_out_dim == 16
    assert arch.bn_layers() == (1,)


def test_empty_feature_stack_is_logistic() -> None:
    arch = build_architecture(7, hidden=())
    assert arch.feature_specs == ()
    assert arch.feature_out_dim == 7
    params = init_model(arch, 3, seed=1)
    x = np.random.default_rng(0).normal(size=(5, 7))
    _, out = forward(params, arch, x, "eval")
    assert out.shape == (5, 3)


def test_no_batchnorm_variant() -> None:
    arch = build_architecture(8, hidden=(4,), use_batchnorm=False)
    assert [s.kind for s in arch.feature_specs] == ["dense", "relu"]
    assert arch.bn_layers() == ()


# --- forward ------------------------------------------------------------------


def _forward_oracle(params: ParamSet, arch: Architecture, x: np.ndarray, mode: str):
    """Scalar-loop re-implementation of the forward pass, kept deliberately
    dumb so it shares nothing with the vectorised code."""
    n = len(x)
    h = [list(map(float, row)) for row in x]
    for i, spec in enumerate(arch.feature_specs):
        if spec.kind == "dense":
            W = params.feature[f"{i}.W"]
            b = params.feature[f"{i}.b"]
            nxt = []
            for row in h:
                nxt.append(
                    [
                        sum(row[a] * W[a, o] for a in range(spec.in_dim)) + b[o]
                        for o in range(spec.out_dim)
                    ]
                )
            h = nxt
        elif spec.kind == "batchnorm":
            gamma = params.feature[f"{i}.gamma"]
            beta = params.feature[f"{i}.beta"]
            if mode == "train":
                mu = [sum(row[o] for row in h) / n for o in range(spec.out_dim)]
                var = [
                    sum((row[o] - mu[o]) ** 2 for row in h) / n
                    for o in range(spec.out_dim)
                ]
            else:
                mu = list(params.bn_mean[i])
                var = list(params.bn_var[i])
            h = [
                [
                    gamma[o] * (row[o] - mu[o]) / np.sqrt(var[o] + BN_EPS) + beta[o]
                    for o in range(spec.out_dim)
                ]
                for row in h
            ]
        elif spec.kind == "relu":
            h = [[max(v, 0.0) for v in row] for row in h]
        else:
            h = [[1.0 / (1.0 + np.exp(-v)) for v in row] for row in h]
    W, b = params.head_W, params.head_b
    out = []
    for row in h:
        logits = [
            sum(row[a] * W[a, j] for a in range(W.shape[0])) + b[j]
            for j in range(W.shape[1])
        ]
        out.append([1.0 / (1.0 + np.exp(-z)) for z in logits])
    return np.array(out)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_forward_matches_scalar_oracle(tiny_arch, mode) -> None:
    params = random_params(tiny_arch, 4, seed=3)
    x = np.random.default_rng(5).normal(size=(9, 4))
    expected = _forward_oracle(params.copy(), tiny_arch, x, mode)
    _, out = forward(params, tiny_arch, x, mode)
    np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)


def test_forward_activation_list_shape(tiny_arch) -> None:
    params = init_model(tiny_arch, 2, seed=0)
    x = np.random.default_rng(1).normal(size=(4, 4))
    acts, out = forward(params, tiny_arch, x, "train")
    # input, one per feature layer, logits, output
    assert len(acts) == len(tiny_arch.feature_specs) + 3
    assert acts[0] is not out
    assert acts[-1] is out
    assert acts[-2].shape == out.shape


def test_eval_mode_is_pure(tiny_arch) -> None:
    params = random_params(tiny_arch, 2, seed=11)
    frozen = params.copy()
    x = np.random.default_rng(2).normal(size=(6, 4))
    forward(params, tiny_arch, x, "eval")
    assert params_equal(params, frozen)


def test_train_mode_updates_running_stats() -> None:
    arch = Architecture(in_dim=3, feature_specs=(batchnorm(3),))
    params = init_model(arch, 1, seed=0)
    x = np.random.default_rng(8).normal(size=(32, 3)) * 2.0 + 1.0
    mu = x.mean(axis=0)
    var = x.var(axis=0)
    forward(params, arch, x, "train")
    m = BN_MOMENTUM
    np.testing.assert_array_equal(params.bn_mean[0], (1 - m) * 0.0 + m * mu)
    np.testing.assert_array_equal(params.bn_var[0], (1 - m) * 1.0 + m * var)
    # a second batch folds into the same running estimate
    forward(params, arch, x, "train")
    np.testing.assert_allclose(params.bn_mean[0], (1 - m) * m * mu + m * mu, rtol=1e-15)


def test_eval_uses_running_stats_not_batch() -> None:
    arch = Architecture(in_dim=2, feature_specs=(batchnorm(2),))
    params = init_model(arch, 1, seed=0)
    params.bn_mean[0] = np.array([10.0, -10.0])
    params.bn_var[0] = np.array([4.0, 4.0])
    x = np.zeros((3, 2))
    acts, _ = forward(params, arch, x, "eval")
    expected = (0.0 - params.bn_mean[0]) / np.sqrt(4.0 + BN_EPS)
    np.testing.assert_allclose(acts[1], np.tile(expected, (3, 1)), rtol=1e-12)


def test_forward_rejects_bad_input(tiny_arch) -> None:
    params = init_model(tiny_arch, 2, seed=0)
    with pytest.raises(ConfigError):
        forward(params, tiny_arch, np.zeros((3, 5)), "train")
    with pytest.raises(ConfigError):
        forward(params, tiny_arch, np.zeros((0, 4)), "train")
    with pytest.raises(ConfigError):
        forward(params, tiny_arch, np.zeros((3, 4)), "predict")


def test_numeric_error_carries_layer_index(tiny_arch) -> None:
    params = init_model(tiny_arch, 2, seed=0)
    params.feature["0.W"] = params.feature["0.W"] * 1e308
    x = np.full((2, 4), 1e3)
    with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
        forward(params, tiny_arch, x, "train")
    assert err.value.layer == 0


# --- loss ---------------------------------------------------------------------


def test_loss_frozen_values() -> None:
    p = np.array([[0.5]])
    assert masked_bce_loss(p, np.array([[1.0]]), [0]) == 0.6931471805599453
    assert masked_bce_loss(p, np.array([[0.0]]), [0]) == 0.6931471805599453
    p9 = np.array([[0.9]])
    assert masked_bce_loss(p9, np.array([[1.0]]), [0]) == pytest.approx(
        0.10536051565782628, rel=1e-15
    )


def test_loss_clamps_saturated_probabilities() -> None:
    # an exact 1.0 prediction of a negative gives a large finite loss
    loss = masked_bce_loss(np.array([[1.0]]), np.array([[0.0]]), [0])
    assert np.isfinite(loss)
    assert loss == pytest.approx(-np.log(BCE_CLAMP), rel=1e-6)


def test_loss_equals_restricted_submatrix() -> None:
    rng = np.random.default_rng(21)
    p = rng.uniform(0.01, 0.99, size=(13, 6))
    y = (rng.random((13, 6)) < 0.4).astype(float)
    cols = [1, 4, 5]
    assert masked_bce_loss(p, y, cols) == masked_bce_loss(p[:, cols], y[:, cols], [0, 1, 2])


def test_loss_mask_validation() -> None:
    p = np.full((2, 3), 0.5)
    y = np.zeros((2, 3))
    with pytest.raises(ConfigError):
        masked_bce_loss(p, y, [])
    with pytest.raises(ConfigError):
        masked_bce_loss(p, y, [3])
    with pytest.raises(ConfigError):
        masked_bce_loss(p, y, [-1])
    with pytest.raises(ConfigError):
        masked_bce_loss(p, np.full((2, 3), 0.5), [0])


def test_loss_rejects_shape_mismatch() -> None:
    with pytest.raises(ConfigError):
        masked_bce_loss(np.full((2, 3), 0.5), np.zeros((2, 2)), [0])


# --- stacked (lock-step) calls ------------------------------------------------


def _unstack(stacked: ParamSet) -> list[ParamSet]:
    """Inverse of ``stack_params``: one set per model, each a view of its
    own slice of the stacked tensors."""
    return [stacked.map(lambda a: a[k]) for k in range(stacked.head_W.shape[0])]


def _stack_case(width: int, b: int, seed: int):
    """Three models with noisy batch-norm state and their batches."""
    arch = build_architecture(5, hidden=(6, 3))
    models = [random_params(arch, width, seed=seed + k) for k in range(3)]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, b, 5))
    y = (rng.random((3, b, width)) < 0.4).astype(float)
    return arch, models, x, y


@pytest.mark.parametrize("width,b", [(4, 32), (1, 7), (300, 32)])
def test_stacked_calls_equal_one_model_calls(width, b) -> None:
    """Each model's slice of a stacked forward, loss, backward and SGD
    step is bitwise the 2-D call on that model alone, for shared and
    per-model masks.  Width 300 at b=32 reduces more than 8,192 loss
    terms per model."""
    arch, models, x, y = _stack_case(width, b, seed=40 + width)
    shared = list(range(max(1, width - 1)))
    rng = np.random.default_rng(width)
    per_model = np.sort(
        np.stack([rng.choice(width, size=max(1, width - 2), replace=False) for _ in range(3)]),
        axis=1,
    )
    stacked = stack_params(models)
    acts, p = forward(stacked, arch, x, "train", [10, 11, 12])
    for mask, rows in ((shared, [shared] * 3), (per_model, list(per_model))):
        losses = masked_bce_loss(p, y, mask)
        grads = backward(stacked, arch, acts, p, y, mask)
        stepped = _unstack(sgd_step(stacked, grads, 0.1))
        for k, (alone, cols) in enumerate(zip([m.copy() for m in models], rows)):
            acts_k, p_k = forward(alone, arch, x[k], "train")
            for a_stacked, a_alone in zip(acts, acts_k):
                np.testing.assert_array_equal(a_stacked[k], a_alone)
            assert params_equal(_unstack(stacked)[k], alone)  # running stats
            assert losses[k] == masked_bce_loss(p_k, y[k], cols)
            step_k = sgd_step(alone, backward(alone, arch, acts_k, p_k, y[k], cols), 0.1)
            assert params_equal(stepped[k], step_k)


def test_stack_round_trip(tiny_arch) -> None:
    models = [random_params(tiny_arch, 2, seed=s) for s in (1, 2)]
    back = _unstack(stack_params(models))
    assert len(back) == 2
    assert all(params_equal(a, b) for a, b in zip(models, back))


def test_stacked_forward_names_the_failing_client(tiny_arch) -> None:
    models = [init_model(tiny_arch, 2, seed=0) for _ in range(3)]
    models[1].feature["0.W"][0, 0] = np.inf
    models[2].feature["0.W"][0, 0] = np.inf
    x = np.random.default_rng(1).normal(size=(3, 4, 4))
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
        forward(stack_params(models), tiny_arch, x, "train", [5, 6, 7])
    assert err.value.layer == 0
    assert err.value.client == 6


def test_stacked_forward_names_the_client_with_non_finite_running_statistics(tiny_arch) -> None:
    """An input so large its batch variance overflows normalises to
    finite zeros, but folds an inf into the running variance: the
    train-mode pass raises at the batch-norm layer and names the first
    client that holds it."""
    models = [init_model(tiny_arch, 2, seed=0) for _ in range(3)]
    x = np.random.default_rng(1).normal(size=(3, 4, 4))
    x[1:] *= 1e300
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as err:
        forward(stack_params(models), tiny_arch, x, "train", [5, 6, 7])
    assert (err.value.layer, err.value.client) == (1, 6)
    assert "running statistic" in str(err.value)


def test_stacked_mask_validation(tiny_arch) -> None:
    p = np.full((2, 3, 4), 0.5)
    y = np.zeros((2, 3, 4))
    with pytest.raises(ConfigError):
        masked_bce_loss(p, y, np.array([[0, 1], [1, 1]]))  # not strictly increasing
    with pytest.raises(ConfigError):
        masked_bce_loss(p, y, np.array([[0, 1]]))  # one row short
    with pytest.raises(ConfigError):
        masked_bce_loss(p, y, np.array([[0, 4], [1, 2]]))  # out of range
    with pytest.raises(ContractViolation):
        forward(init_model(tiny_arch, 2, seed=0), tiny_arch, np.zeros((2, 3, 4)), "train")


# --- gradients ------------------------------------------------------------


def test_head_gradient_single_sample() -> None:
    """One sample through a bare head: dL/dW = x^T (p - y), dL/db = p - y."""
    arch = Architecture(in_dim=2)
    params = ParamSet(
        feature={}, bn_mean={}, bn_var={},
        head_W=np.zeros((2, 1)), head_b=np.zeros(1),
    )
    x = np.array([[2.0, -1.0]])
    acts, p = forward(params, arch, x, "train")
    assert p[0, 0] == 0.5
    grads = backward(params, arch, acts, p, np.array([[1.0]]), [0])
    np.testing.assert_array_equal(grads.head_W, np.array([[-1.0], [0.5]]))
    np.testing.assert_array_equal(grads.head_b, np.array([-0.5]))


def test_gradient_zero_outside_mask(tiny_arch) -> None:
    params = random_params(tiny_arch, 5, seed=9)
    x = np.random.default_rng(3).normal(size=(8, 4))
    y = (np.random.default_rng(4).random((8, 5)) < 0.5).astype(float)
    acts, p = forward(params, tiny_arch, x, "train")
    grads = backward(params, tiny_arch, acts, p, y, [1, 3])
    np.testing.assert_array_equal(grads.head_W[:, [0, 2, 4]], 0.0)
    np.testing.assert_array_equal(grads.head_b[[0, 2, 4]], 0.0)
    assert np.any(grads.head_W[:, 1] != 0.0)


def _numeric_gradient(params, arch, x, y, cols, h=1e-5):
    """Central finite differences of the masked loss wrt every parameter."""

    def loss_at(ps):
        _, p = forward(ps.copy(), arch, x, "train")
        return masked_bce_loss(p, y, cols)

    num = {"feature": {}, "head_W": np.zeros_like(params.head_W), "head_b": np.zeros_like(params.head_b)}
    for name, arr in params.feature.items():
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            up, down = params.copy(), params.copy()
            up.feature[name][idx] += h
            down.feature[name][idx] -= h
            g[idx] = (loss_at(up) - loss_at(down)) / (2 * h)
        num["feature"][name] = g
    for idx in np.ndindex(params.head_W.shape):
        up, down = params.copy(), params.copy()
        up.head_W[idx] += h
        down.head_W[idx] -= h
        num["head_W"][idx] = (loss_at(up) - loss_at(down)) / (2 * h)
    for idx in np.ndindex(params.head_b.shape):
        up, down = params.copy(), params.copy()
        up.head_b[idx] += h
        down.head_b[idx] -= h
        num["head_b"][idx] = (loss_at(up) - loss_at(down)) / (2 * h)
    return num


def _max_rel_err(analytic, numeric) -> float:
    worst = 0.0
    for name, g in analytic.feature.items():
        diff = np.abs(g - numeric["feature"][name])
        scale = np.maximum(np.abs(g), 1e-8)
        worst = max(worst, float((diff / scale).max()))
    for key in ("head_W", "head_b"):
        g = getattr(analytic, key)
        diff = np.abs(g - numeric[key])
        worst = max(worst, float((diff / np.maximum(np.abs(g), 1e-8)).max()))
    return worst


def test_gradients_match_finite_differences(tiny_arch) -> None:
    params = random_params(tiny_arch, 3, seed=17)
    rng = np.random.default_rng(18)
    x = rng.normal(size=(8, 4))
    y = (rng.random((8, 3)) < 0.5).astype(float)
    cols = [0, 2]
    acts, p = forward(params.copy(), tiny_arch, x, "train")
    analytic = backward(params, tiny_arch, acts, p, y, cols)
    numeric = _numeric_gradient(params, tiny_arch, x, y, cols)
    assert _max_rel_err(analytic, numeric) < 1e-4


def test_backward_rejects_stale_activations(tiny_arch) -> None:
    params = init_model(tiny_arch, 2, seed=0)
    x = np.random.default_rng(1).normal(size=(4, 4))
    y = np.zeros((4, 2))
    acts, p = forward(params, tiny_arch, x, "train")
    with pytest.raises(ContractViolation):
        backward(params, tiny_arch, acts[:-1], p, y, [0])
    with pytest.raises(ContractViolation):
        backward(params, tiny_arch, acts, p[:2], y[:2], [0])


def test_loss_of_int8_labels_is_the_float64_formula_bit_for_bit() -> None:
    """For 0/1 labels the loss and its output gradient are bitwise the
    float64 formula's, whatever the labels' dtype: clamped BCE averaged
    column by column, and ``p - y`` over the count."""
    rng = np.random.default_rng(5)
    p = rng.random((3, 17, 6))
    p[0, :4, 0] = (0.0, 1.0, BCE_CLAMP / 2, 1.0 - BCE_CLAMP / 2)
    y = (rng.random(p.shape) < 0.5).astype(np.int8)
    yf = y.astype(np.float64)
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    bce = -(yf * np.log(pc) + (1.0 - yf) * np.log1p(-pc))
    for cols in ([0, 1, 2, 3, 4, 5], [1, 4]):
        want = np.ascontiguousarray(bce[..., cols].swapaxes(-1, -2)).mean(axis=(-2, -1))
        for labels in (y, yf, y.astype(bool)):
            assert masked_bce_loss(p, labels, cols).tobytes() == want.tobytes()
            for k in range(3):
                assert np.float64(masked_bce_loss(p[k], labels[k], cols)).tobytes() == want[k].tobytes()
    arch = Architecture(in_dim=2)
    params = init_model(arch, 6, seed=1)
    acts, out = forward(params, arch, rng.normal(size=(17, 2)))
    g8, g64 = (backward(params, arch, acts, out, labels, range(6)) for labels in (y[0], yf[0]))
    assert g8.head_W.tobytes() == g64.head_W.tobytes() and g8.head_b.tobytes() == g64.head_b.tobytes()


def test_check_training_reads_the_labels_where_they_lie(tiny_arch) -> None:
    """``check_training`` checks a stacked ``int8`` label set in place: its
    traced peak stays below the bytes a float64 copy of the stack takes."""
    import tracemalloc

    params = stack_params([init_model(tiny_arch, 3, seed=s) for s in (1, 2)])
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 20_000, 4))
    y = (rng.random((2, 20_000, 3)) < 0.5).astype(np.int8)
    tracemalloc.start()
    try:
        assert check_training(params, tiny_arch, x, y, (0, 1, 2), 0.1, ()) == (None, frozenset())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < y.size * 8, (peak, y.size * 8)


# --- SGD ------------------------------------------------------------------


def _grad_like(params, fill: float):
    """Gradients filled with ``fill``: the trainable tensors of ``params``, no statistics."""
    return ParamSet.from_tensors(
        (g, k, np.full_like(a, fill)) for g, k, a in params.tensors() if not g.startswith("bn_"))


def test_check_training_validates_once_for_every_step(tiny_arch) -> None:
    """The per-call checks of the four kernel functions, made once for a
    whole stacked training set; a mask over every column comes back as
    None, any other as its index array."""
    params = stack_params([init_model(tiny_arch, 3, seed=s) for s in (1, 2)])
    x = np.random.default_rng(3).normal(size=(2, 10, 4))
    y = np.zeros((2, 10, 3))
    assert check_training(params, tiny_arch, x, y, (2, 0, 1), 0.1, ()) == (None, frozenset())
    cols, frozen = check_training(params, tiny_arch, x, y, np.array([[0, 2], [1, 2]]), 0.1, {"head"})
    np.testing.assert_array_equal(cols, [[0, 2], [1, 2]])
    assert frozen == frozenset({"head"})
    np.testing.assert_array_equal(check_training(params, tiny_arch, x, y, [2, 0], 0.1, ())[0], [0, 2])
    for bad in (
        dict(x=x[..., :3]),  # width
        dict(y=np.full((2, 10, 3), 0.5)),  # non-binary labels
        dict(mask=[3]),  # column out of range
        dict(mask=np.array([[1, 0], [0, 1]])),  # per-model row not increasing
        dict(lr=-0.1),
        dict(frozen={"backbone"}),
    ):
        args = dict(x=x, y=y, mask=[0], lr=0.1, frozen=()) | bad
        with pytest.raises(ConfigError):
            check_training(params, tiny_arch, **args)
    with pytest.raises(ContractViolation):
        check_training(params, tiny_arch, x, y[:, :9], [0], 0.1, ())


def test_sgd_step_arithmetic() -> None:
    arch = Architecture(in_dim=1)
    params = ParamSet(
        feature={}, bn_mean={}, bn_var={},
        head_W=np.array([[2.0]]), head_b=np.array([2.0]),
    )
    out = sgd_step(params, _grad_like(params, 1.0), lr=0.5)
    assert out.head_W[0, 0] == 1.5
    assert out.head_b[0] == 1.5
    # the input is untouched
    assert params.head_W[0, 0] == 2.0


def test_sgd_frozen_groups(tiny_arch) -> None:
    params = random_params(tiny_arch, 2, seed=31)
    grads = _grad_like(params, 1.0)

    out = sgd_step(params, grads, 0.1, frozen={"feature_extractor"})
    for k in params.feature:
        assert out.feature[k] is params.feature[k]
    assert np.all(out.head_W != params.head_W)

    out = sgd_step(params, grads, 0.1, frozen={"head"})
    assert out.head_W is params.head_W
    assert np.all(out.feature["0.W"] != params.feature["0.W"])


def test_sgd_lr_zero_is_identity_on_values(tiny_arch) -> None:
    params = random_params(tiny_arch, 2, seed=32)
    out = sgd_step(params, _grad_like(params, 3.0), 0.0)
    assert params_equal(out, params)


def test_sgd_never_touches_running_stats(tiny_arch) -> None:
    params = random_params(tiny_arch, 2, seed=33)
    out = sgd_step(params, _grad_like(params, 1.0), 0.1)
    for i in params.bn_mean:
        np.testing.assert_array_equal(out.bn_mean[i], params.bn_mean[i])
        np.testing.assert_array_equal(out.bn_var[i], params.bn_var[i])


def test_sgd_validation(tiny_arch) -> None:
    params = init_model(tiny_arch, 2, seed=0)
    grads = _grad_like(params, 1.0)
    with pytest.raises(ConfigError):
        sgd_step(params, grads, -0.1)
    with pytest.raises(ConfigError):
        sgd_step(params, grads, 0.1, frozen={"backbone"})
    bad = _grad_like(params, 1.0)
    bad.head_W = np.zeros((1, 1))
    with pytest.raises(ContractViolation):
        sgd_step(params, bad, 0.1)


def test_sgd_checks_every_trainable_gradient_alike(tiny_arch) -> None:
    """A gradient of the wrong shape for any trainable tensor is a
    contract violation, ``head_b`` included: a ``(1,)`` head-bias
    gradient used to be broadcast into all five biases.  A frozen
    group's gradients are not read, so they are not checked."""
    params = init_model(tiny_arch, 5, seed=0)
    trainable = [(g, k) for g, k, _ in _grad_like(params, 1.0).tensors()]
    assert ("head_b", None) in trainable and ("feature", "0.b") in trainable
    for name in trainable:
        bad = ParamSet.from_tensors(
            (g, k, np.zeros(1) if (g, k) == name else a) for g, k, a in _grad_like(params, 1.0).tensors())
        with pytest.raises(ContractViolation, match="mis-shaped"):
            sgd_step(params, bad, 0.1)
        frozen = {"feature_extractor"} if name[0] == "feature" else {"head"}
        sgd_step(params, bad, 0.1, frozen=frozen)
    missing = _grad_like(params, 1.0)
    del missing.feature["0.W"]
    with pytest.raises(ContractViolation, match="0.W"):
        sgd_step(params, missing, 0.1)


@pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, True, np.True_, "0.1", None, -0.1])
def test_lr_must_be_a_finite_non_negative_number(tiny_arch, lr) -> None:
    """``lr`` used to be tested only by ``lr < 0``: NaN and inf made every
    parameter non-finite with no more than a RuntimeWarning, ``True``
    stepped by 1 and a string raised ``TypeError``.  ``sgd_step`` and
    ``check_training`` refuse each with a ``ConfigError`` naming lr."""
    params = init_model(tiny_arch, 2, seed=0)
    x, y = np.zeros((1, 3, 4)), np.zeros((1, 3, 2), dtype=np.int8)
    with pytest.raises(ConfigError, match="^lr must be"):
        sgd_step(params, _grad_like(params, 1.0), lr)
    with pytest.raises(ConfigError, match="^lr must be"):
        check_training(stack_params([params]), tiny_arch, x, y, None, lr, ())
    for ok in (0, 0.1, np.float32(0.5), np.int64(1)):
        assert check_training(stack_params([params]), tiny_arch, x, y, None, ok, ()) == (None, frozenset())
        sgd_step(params, _grad_like(params, 1.0), ok)


def test_params_equal_detects_each_field(tiny_arch) -> None:
    a = random_params(tiny_arch, 2, seed=40)
    assert params_equal(a, a.copy())
    b = a.copy()
    b.head_b[0] += 1.0
    assert not params_equal(a, b)
    c = a.copy()
    c.bn_var[1][0] *= 2.0
    assert not params_equal(a, c)


# --- mask normalization ---------------------------------------------------------


@pytest.mark.parametrize("mask", [[0.5], ["1"], [True], [1.0, 2.0], np.array([0, 1], dtype=np.float64)])
def test_loss_masks_are_integer_ids_never_coerced(mask) -> None:
    """A mask entry that is not an integer used to be read through
    ``int``: ``[0.5]`` masked column 0, ``["1"]`` and ``[True]`` column
    1.  Masks of any integer dtype still work."""
    p, y = np.full((2, 3), 0.5), np.zeros((2, 3))
    with pytest.raises(ConfigError, match="integers"):
        masked_bce_loss(p, y, mask)
    for ok in ([1], np.array([1], dtype=np.uint8), (np.int32(1),)):
        assert masked_bce_loss(p, y, ok) == masked_bce_loss(p, y, [1])


@pytest.mark.parametrize("mask", [np.array([[0.0, 1.0], [1.0, 2.0]]), np.array([[False, True], [True, True]])])
def test_per_model_masks_of_floats_or_bools_are_config_errors(tiny_arch, mask) -> None:
    """A float or bool 2-D mask used to reach the index and raise
    ``IndexError``; it is refused with the message every mask gets."""
    p, y = np.full((2, 3, 4), 0.5), np.zeros((2, 3, 4))
    with pytest.raises(ConfigError, match="integers"):
        masked_bce_loss(p, y, mask)
    params = stack_params([init_model(tiny_arch, 4, seed=s) for s in (1, 2)])
    with pytest.raises(ConfigError, match="integers"):
        check_training(params, tiny_arch, np.zeros((2, 3, 4)), y, mask, 0.1, ())


def _step_views(arch, models: int, b: int, head_cols: int):
    """A :func:`train_step`'s buffers, NaN-filled views of an arena sized
    for them, as a run lays them out (``train_layout`` past the gathered
    rows and labels)."""
    from surgfed.nn import Arena, train_layout

    shapes = train_layout(arch, models, b, head_cols, b)[b][2:]
    arena = Arena(shapes)
    arena.flat.fill(np.nan)
    return arena.views(shapes)


def test_a_mask_over_every_column_copies_nothing(monkeypatch) -> None:
    """A shared mask naming every column in any order, with repeats, or a
    per-model mask whose rows are every column, comes back as None: the
    loss has the value an explicit cut gives, and a training step under
    it hands the loss core the step's head buffer and the labels it was
    given, uncut.  The public loss gives the core a copy of ``p``, since
    the core uses it up."""
    import surgfed.nn as nn

    arch = build_architecture(3, hidden=(4,))
    rng = np.random.default_rng(5)
    p = rng.uniform(0.05, 0.95, size=(2, 7, 3))
    y = (rng.random((2, 7, 3)) < 0.5).astype(np.int8)
    seen = []
    bce = nn._bce

    def spy(p_in, y_in, work):
        seen.append((p_in, y_in, p_in.copy()))
        return bce(p_in, y_in, work)

    monkeypatch.setattr(nn, "_bce", spy)
    for mask in ([2, 0, 1, 0], np.array([[0, 1, 2], [0, 1, 2]])):
        assert nn._mask_cols(mask, p) is None
        loss = masked_bce_loss(p, y, mask)
        assert seen[-1][0] is not p and seen[-1][1] is y and seen[-1][2].tobytes() == p.tobytes()
        np.testing.assert_array_equal(loss, bce(p[..., [0, 1, 2]], y[..., [0, 1, 2]], np.empty(p.size)))
        params = stack_params([random_params(arch, 3, seed=s) for s in (1, 2)])
        x = rng.normal(size=(2, 7, 3))
        bufs = _step_views(arch, 2, 7, 3)
        cols, frozen = check_training(params, arch, x, y, mask, 0.1, ())
        nn.train_step(params, arch, x, y, cols, 0.1, frozen, [0, 1], bufs, nn.grad_views(params, bufs[-1]))
        head = len(nn.buffer_shapes(arch, (2, 7), 3, True)) - 1
        assert cols is None and seen[-1][0] is bufs[head] and seen[-1][1] is y
    assert nn._mask_cols([0, 2], p).tolist() == [0, 2]


STEP_CASES = ((None, ()), (np.array([0, 2, 3]), ()), (np.array([[0, 1], [2, 4], [1, 3]]), ()),
              (None, {"feature_extractor"}), (None, {"head"}))


@pytest.mark.parametrize("bn_first", [False, True])
def test_a_step_in_dirty_buffers_is_the_step_without_them(tiny_arch, bn_first) -> None:
    """``train_step`` writing into NaN-filled buffers of ``buffer_shapes``
    and ``grad_shapes``, its gradients in a NaN-filled block of their
    own, gives the bits of the reference step, whose every array is
    fresh (losses, parameters, batch-norm statistics), twice in a row in
    the same buffers, under every column, a shared and a per-model loss
    mask and a frozen feature extractor or head; also for an
    architecture that opens with batch norm and puts one after a ReLU."""
    _check_dirty_step(tiny_arch if not bn_first else Architecture(
        in_dim=4, feature_specs=(batchnorm(4), relu(4), dense(4, 3), relu(3), batchnorm(3))))


def test_a_logistic_step_in_dirty_buffers_is_the_step_without_them() -> None:
    """The same for a model without feature layers, whose backward pass
    stops after the head and so takes no input-gradient buffer."""
    _check_dirty_step(build_architecture(4, hidden=()))


def test_logistic_grad_shapes_reserve_no_input_gradient() -> None:
    """Without feature layers nothing reads the head's input gradient:
    the backward pass takes the output gradient and the gradient block."""
    from surgfed.nn import grad_shapes

    assert grad_shapes(build_architecture(20, ()), (4, 32), 8) == [(4, 32, 8), (max(4 * 32 * 8, 4 * 21 * 8),)]
    assert grad_shapes(build_architecture(20, (6,)), (4, 32), 8)[:2] == [(4, 32, 8), (4, 32, 6)]


def _check_dirty_step(arch) -> None:
    from surgfed.nn import buffer_shapes, grad_shapes, grad_views, train_step

    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 7, 4))
    y = (rng.random((3, 7, 5)) < 0.5).astype(np.int8)
    for cols, frozen in STEP_CASES:
        a = stack_params([random_params(arch, 5, seed=s) for s in (1, 2, 3)])
        b = a.copy()
        shapes = buffer_shapes(arch, (3, 7), 5, True) + grad_shapes(arch, (3, 7), 5)
        bufs = [np.full(s, np.nan) for s in shapes]
        grads = grad_views(b, np.full(bufs[-1].size, np.nan))
        for _ in range(2):
            want = reference_kernel.step(a, arch, x, y, cols, 0.1, frozenset(frozen))
            got = train_step(b, arch, x, y, cols, 0.1, frozenset(frozen), [0, 1, 2], bufs, grads)
            assert want.tobytes() == got.tobytes()
            assert params_equal(a, b)
        assert not np.isnan(bufs[0]).any()


def test_non_finite_loss_names_the_first_bad_client(monkeypatch, tiny_arch) -> None:
    """The non-finite-loss error of a lock-step step is the one every
    other non-finite value gets: it names the lowest-index model."""
    import surgfed.nn as nn

    params = stack_params([init_model(tiny_arch, 2, seed=s) for s in (1, 2, 3)])
    x = np.random.default_rng(0).normal(size=(3, 4, 4))
    monkeypatch.setattr(nn, "_bce", lambda p, y, work: np.array([0.5, np.nan, np.inf]))
    bufs = _step_views(tiny_arch, 3, 4, 2)
    with pytest.raises(NumericError, match="^non-finite loss at client 6$") as err:
        nn.train_step(params, tiny_arch, x, np.zeros((3, 4, 2), np.int8), None, 0.1,
                      frozenset(), [5, 6, 7], bufs, nn.grad_views(params, bufs[-1]))
    assert (err.value.client, err.value.layer) == (6, None)


@pytest.mark.parametrize("bn_first", [False, True])
def test_a_step_writing_its_gradients_into_a_dirty_block_is_the_step_without(tiny_arch, bn_first) -> None:
    """``train_step`` writing its buffers and every gradient into
    NaN-filled views laid out as a run lays them (the gradients in the
    step's last buffer, the loss's work array) gives the bits of the
    reference step, twice in a row, under every column, a shared and a
    per-model loss mask and a frozen feature extractor or head.
    ``grad_shapes`` widens that buffer to hold the trainable tensors'
    gradients.  ``grad_views`` lays them end to end from the block's
    start in ``ParamSet.tensors`` order, whatever order the feature dict
    is in, and ``backward`` names the same tensors: both give a
    ``ParamSet`` with empty statistics."""
    from itertools import accumulate

    from surgfed.nn import grad_shapes, grad_views, train_step

    arch = tiny_arch if not bn_first else Architecture(
        in_dim=4, feature_specs=(batchnorm(4), relu(4), dense(4, 3), relu(3), batchnorm(3)))
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 7, 4))
    y = (rng.random((3, 7, 5)) < 0.5).astype(np.int8)
    for cols, frozen in STEP_CASES:
        a = stack_params([random_params(arch, 5, seed=s) for s in (1, 2, 3)])
        b = a.copy()
        bufs = _step_views(arch, 3, 7, 5)
        trainable = sum(t.size for g, _, t in b.tensors() if not g.startswith("bn_"))
        assert grad_shapes(arch, (3, 7), 5)[-1] == (max(3 * 7 * 5, trainable),) == bufs[-1].shape
        grads = grad_views(b, bufs[-1])
        for _ in range(2):
            want = reference_kernel.step(a, arch, x, y, cols, 0.1, frozenset(frozen))
            got = train_step(b, arch, x, y, cols, 0.1, frozenset(frozen), [0, 1, 2], bufs, grads)
            assert want.tobytes() == got.tobytes()
        assert params_equal(a, b)
    one = random_params(arch, 5, seed=4)
    one.feature = dict(reversed(one.feature.items()))  # the walk, not the dict, sets the order
    walk = [(g, k, t.shape) for g, k, t in one.tensors() if not g.startswith("bn_")]
    block = np.full(sum(math.prod(shape) for *_, shape in walk) + 5, np.nan)
    grads = grad_views(one, block)
    assert [(g, k, t.shape) for g, k, t in grads.tensors()] == walk
    assert grads.bn_mean == grads.bn_var == {}
    starts = accumulate((math.prod(shape) for *_, shape in walk), initial=0)
    assert [t.ctypes.data for *_, t in grads.tensors()] == [block[o:].ctypes.data for o in starts][:-1]
    acts, p = forward(one, arch, x[0])
    full = backward(one, arch, acts, p, y[0], range(5))
    assert isinstance(full, ParamSet) and full.bn_mean == full.bn_var == {}
    assert [(g, k, t.shape) for g, k, t in full.tensors()] == walk


def test_arena_views_of_a_mixed_layout_are_end_to_end() -> None:
    """A layout of odd sizes with ``int8`` blocks, each taking whole
    float64 elements: every view has its shape and dtype, is C-contiguous
    and shares no byte with another; a pass fits the arena sized for it,
    which keeps its array, and a larger pass gets a new array."""
    from surgfed.nn import Arena, Int8Block

    layout = [(3, 5), Int8Block((2, 7, 3)), (1,), (7,), Int8Block((5,)), (2, 3, 3)]
    assert [math.prod(s) for s in layout] == [15, 6, 1, 7, 1, 18]
    arena = Arena(layout, [(4,)])
    flat = arena.flat
    for _ in range(2):
        views = arena.views(layout)
        assert arena.flat is flat and flat.size == Arena.size(layout) == 48
        for v, s in zip(views, layout):
            int8 = isinstance(s, Int8Block)
            assert np.shares_memory(v, flat) and v.flags.c_contiguous, s
            assert v.shape == (s.shape if int8 else s) and v.dtype == (np.int8 if int8 else np.float64)
        spans = sorted((v.ctypes.data, v.ctypes.data + v.nbytes) for v in views)
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
    arena.views(layout + [(9, 9)])
    assert arena.flat is not flat and arena.flat.size == 48 + 81


@pytest.mark.parametrize("M", [5, 40])
@pytest.mark.parametrize("hidden", [(32, 16), (8,), ()])
def test_an_eval_pass_in_dirty_views_is_the_reference_pass(hidden, M) -> None:
    """An eval-mode ``forward`` in NaN-filled views of an arena sized for
    it gives, twice in a row, the bits of the reference pass, with the
    head narrower and wider than the first dense layer, and leaves its
    input as it was."""
    from surgfed.nn import Arena, buffer_shapes

    arch = build_architecture(6, hidden)
    params = random_params(arch, M, seed=3)
    x = np.random.default_rng(11).normal(size=(50, 6))
    before = x.tobytes()
    _, want, _ = reference_kernel.forward(params, arch, x, False)
    shapes = buffer_shapes(arch, (50,), M)
    arena = Arena(shapes)
    arena.flat.fill(np.nan)
    bufs = arena.views(shapes)
    for _ in range(2):
        _, out = forward(params, arch, x, "eval", bufs=bufs)
        assert out is bufs[-1] and out.tobytes() == want.tobytes()
    assert x.tobytes() == before


_PUBLIC_CASES = {  # (stacked, mask, frozen)
    "2d-every": (False, [0, 1, 2, 3], ()),
    "2d-shared": (False, [1, 3], {"head"}),
    "stacked-every": (True, [3, 2, 1, 0], {"feature_extractor"}),
    "stacked-shared": (True, [0, 2], ()),
    "stacked-per-model": (True, np.array([[0, 1], [2, 3], [1, 3]]), ()),
}


@pytest.mark.parametrize("case", list(_PUBLIC_CASES))
def test_public_kernel_functions_never_write_into_their_callers_arrays(case) -> None:
    """The cores use up their inputs; the public functions do not.  Around
    each call of ``forward``, ``masked_bce_loss``, ``backward`` and
    ``sgd_step`` the bytes of ``x``, ``params``, ``acts``, ``p``, ``y`` and
    ``grads`` stay as they were, the running statistics a train-mode
    forward updates aside, for 2-D and stacked inputs, masks over every
    column, shared and per-model masks and frozen groups.  ``backward``
    twice on the same activations gives the same bits, and each result
    is the reference kernel's."""
    stacked, mask, frozen = _PUBLIC_CASES[case]
    arch = build_architecture(5, hidden=(6, 3))
    rng = np.random.default_rng(17)
    models = [random_params(arch, 4, seed=s) for s in (1, 2, 3)]
    params = stack_params(models) if stacked else models[0]
    x = rng.normal(size=(3, 9, 5) if stacked else (9, 5))
    y = (rng.random(x.shape[:-1] + (4,)) < 0.5).astype(np.int8)
    cols = _mask_cols(mask, y)

    def snapshot(*arrays):
        return [a.tobytes() for a in arrays]

    def walk(ps):
        return snapshot(*(a for _, _, a in ps.tensors()))

    ref_params = params.copy()
    ref_acts, want_p, _ = reference_kernel.forward(ref_params, arch, x, True)
    trained = walk(params.map(np.copy))
    seen = snapshot(x)
    acts, p = forward(params, arch, x, "train")
    assert seen == snapshot(x) and params_equal(params, ref_params)
    assert walk(params) != trained  # the running statistics, and only they, moved
    assert [t for (g, _, _), t in zip(params.tensors(), walk(params)) if not g.startswith("bn_")] == [
        t for (g, _, _), t in zip(params.tensors(), trained) if not g.startswith("bn_")]
    assert p.tobytes() == want_p.tobytes()

    held = snapshot(x, *acts, p, y) + walk(params)
    loss = masked_bce_loss(p, y, mask)
    assert snapshot(x, *acts, p, y) + walk(params) == held
    assert np.float64(loss).tobytes() == np.float64(reference_kernel.loss(want_p, y, cols)).tobytes()

    grads = backward(params, arch, acts, p, y, mask)
    assert snapshot(x, *acts, p, y) + walk(params) == held
    again = backward(params, arch, acts, p, y, mask)
    want = reference_kernel.gradients(ref_params, arch, ref_acts, want_p, y, cols)
    assert walk(grads) == walk(again) == walk(want)

    held += walk(grads)
    stepped = sgd_step(params, grads, 0.1, frozen)
    assert snapshot(x, *acts, p, y) + walk(params) + walk(grads) == held
    reference_kernel.sgd(ref_params, want, 0.1, frozenset(frozen))
    assert walk(stepped) == walk(ref_params)


def test_no_core_takes_a_default() -> None:
    """The kernel's cores have one path, into the buffers they are given:
    no parameter of theirs has a default, so no call can leave one out
    and take a second, allocating path."""
    import inspect

    import surgfed.nn as nn

    cores = (nn._forward, nn._bce, nn._output_grad, nn._backward, nn.train_step)
    found = [f"{f.__name__}({name}=)" for f in cores
             for name, p in inspect.signature(f).parameters.items() if p.default is not p.empty]
    assert found == []


# --- the walk over a parameter set ----------------------------------------------


def test_walk_yields_every_array_once_in_checkpoint_row_order(tiny_arch, tmp_path) -> None:
    from surgfed.model import save_checkpoint

    params = random_params(tiny_arch, 3, seed=8)
    walk = list(params.tensors())
    held = (list(params.feature.values()) + list(params.bn_mean.values())
            + list(params.bn_var.values()) + [params.head_W, params.head_b])
    assert sorted(id(a) for _, _, a in walk) == sorted(id(a) for a in held)
    path = tmp_path / "model.csv"
    save_checkpoint(params, path)
    rows = [line.split(",")[:2] for line in path.read_text().splitlines()[1:]]
    assert rows == [[g, g if k is None else str(k)] for g, k, _ in walk]
    rebuilt = ParamSet.from_tensors(walk).tensors()
    assert [(g, k, id(a)) for g, k, a in rebuilt] == [(g, k, id(a)) for g, k, a in walk]


def test_params_nbytes_is_the_walks_byte_sum(tiny_arch) -> None:
    """The benchmark's byte count and the walk see the same tensors, so
    a new field that one of them misses fails here."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    single = random_params(tiny_arch, 3, seed=1)
    for ps in (single, stack_params([single, random_params(tiny_arch, 3, seed=2)])):
        assert tracer.params_nbytes(ps) == sum(a.nbytes for _, _, a in ps.tensors())


def test_changing_any_single_tensor_breaks_params_equal(tiny_arch) -> None:
    params = random_params(tiny_arch, 3, seed=4)
    assert params_equal(params, params.copy())
    for n, (group, key, _) in enumerate(params.tensors()):
        changed = params.copy()
        a = list(changed.tensors())[n][2]
        a.flat[0] += 1.0
        assert not params_equal(params, changed), (group, key)
    fewer = params.copy()
    del fewer.feature["0.b"]
    assert not params_equal(params, fewer) and not params_equal(fewer, params)


def test_map_requires_the_same_tensor_names(tiny_arch) -> None:
    a, b = random_params(tiny_arch, 3, seed=1), random_params(tiny_arch, 3, seed=2)
    summed = a.map(np.add, b)
    for (_, _, s), (_, _, x), (_, _, y) in zip(summed.tensors(), a.tensors(), b.tensors()):
        np.testing.assert_array_equal(s, x + y)
    b.feature["9.W"] = b.feature.pop("0.W")
    with pytest.raises(ContractViolation):
        a.map(np.add, b)
    with pytest.raises(ContractViolation):
        stack_params([a, b])
