"""A plain per-step reference of the dense kernel in ``surgfed.nn``.

Forward pass, loss, output gradient, backward pass and SGD step in the
operation order of the kernel's cores, but with every array fresh: no
buffer is written and no input is used up, so nothing here depends on
which buffer a value lives in.  The cores write into arena buffers and
use up what they may; tests compare them with these functions bit for
bit.  Masks are given as the kernel's cores take them: None for every
head column, else an integer index array, one row per model for a
per-model mask.
"""

from __future__ import annotations

import numpy as np

from surgfed.nn import BCE_CLAMP, BN_EPS, BN_MOMENTUM, ParamSet, expit


def take_cols(a: np.ndarray, cols) -> np.ndarray:
    """The loss columns of ``a``: all of it, a shared cut, or one cut per model."""
    if cols is None:
        return a
    if cols.ndim == 1:
        return a[..., cols]
    return np.take_along_axis(a, cols[:, None, :], axis=-1)


def batch_stats(h: np.ndarray):
    """Mean, centred input and biased variance over the sample axis."""
    n = h.shape[-2]
    mu = np.add.reduce(h, axis=-2, keepdims=True) / n
    centered = h - mu
    return mu, centered, np.add.reduce(centered * centered, axis=-2, keepdims=True) / n


def forward(params: ParamSet, arch, x: np.ndarray, train: bool):
    """``(activations, output, norms)``, every activation its own array;
    a train-mode pass updates the running statistics in place."""
    h, acts, norms = x, [x], {}
    for i, spec in enumerate(arch.feature_specs):
        if spec.kind == "dense":
            h = np.matmul(h, params.feature[f"{i}.W"]) + params.feature[f"{i}.b"][..., None, :]
        elif spec.kind == "batchnorm":
            if train:
                mu, centered, var = batch_stats(h)
                for stat, new in ((params.bn_mean[i], mu), (params.bn_var[i], var)):
                    stat *= 1.0 - BN_MOMENTUM
                    stat += BN_MOMENTUM * new[..., 0, :]
            else:
                centered = h - params.bn_mean[i][..., None, :]
                var = params.bn_var[i][..., None, :]
            norms[i] = (centered, np.sqrt(var + BN_EPS))
            h = (centered / norms[i][1]) * params.feature[f"{i}.gamma"][..., None, :]
            h = h + params.feature[f"{i}.beta"][..., None, :]
        else:
            h = np.maximum(h, 0.0)
        acts.append(h)
    logits = np.matmul(h, params.head_W) + params.head_b[..., None, :]
    out = expit(logits)
    return acts + [logits, out], out, norms


def bce(p: np.ndarray, y: np.ndarray):
    """Clamped BCE over every sample and column of ``p``, one value per
    model, summed column by column."""
    q = np.minimum(np.maximum(p, BCE_CLAMP), 1.0 - BCE_CLAMP)
    terms = np.log(q) * y + np.log1p(-q) * (1 - y)
    total = np.add.reduce(np.ascontiguousarray(terms.swapaxes(-1, -2)), axis=(-2, -1))
    return -(total / (q.shape[-2] * q.shape[-1]))


def loss(p: np.ndarray, y: np.ndarray, cols):
    return bce(take_cols(p, cols), take_cols(y, cols))


def output_grad(p: np.ndarray, y: np.ndarray, cols) -> np.ndarray:
    """The logit gradient of :func:`loss` over the whole head: zero
    outside the loss columns."""
    cut_p, cut_y = take_cols(p, cols), take_cols(y, cols)
    g = (cut_p - cut_y) / (cut_p.shape[-2] * cut_p.shape[-1])
    if cols is None:
        return g
    full = np.zeros(p.shape)
    if cols.ndim == 1:
        full[..., cols] = g
    else:
        np.put_along_axis(full, cols[:, None, :], g, axis=-1)
    return full


def backward(params: ParamSet, arch, acts, g: np.ndarray, norms, heads_only: bool = False) -> ParamSet:
    """The gradients of every trainable tensor (only the head's with
    ``heads_only``), as a set with empty statistics dicts."""
    n = len(arch.feature_specs)
    feature = {}
    head_W = np.matmul(acts[n].swapaxes(-1, -2), g)
    head_b = np.add.reduce(g, axis=-2)
    if heads_only:
        return ParamSet({}, {}, {}, head_W, head_b)
    g = np.matmul(g, params.head_W.swapaxes(-1, -2))
    for i in range(n - 1, -1, -1):
        spec, x_in = arch.feature_specs[i], acts[i]
        if spec.kind == "dense":
            feature[f"{i}.W"] = np.matmul(x_in.swapaxes(-1, -2), g)
            feature[f"{i}.b"] = np.add.reduce(g, axis=-2)
            g = np.matmul(g, params.feature[f"{i}.W"].swapaxes(-1, -2))
        elif spec.kind == "batchnorm":
            nb = x_in.shape[-2]
            centered, std = norms[i]
            inv = 1.0 / std
            xhat = centered * inv
            feature[f"{i}.gamma"] = np.add.reduce(g * xhat, axis=-2)
            feature[f"{i}.beta"] = np.add.reduce(g, axis=-2)
            dxhat = g * params.feature[f"{i}.gamma"][..., None, :]
            s = np.add.reduce(dxhat * xhat, axis=-2, keepdims=True)
            t = nb * dxhat - np.add.reduce(dxhat, axis=-2, keepdims=True) - xhat * s
            g = (inv / nb) * t
        else:
            g = g * (x_in > 0.0)
    return ParamSet(dict(sorted(feature.items())), {}, {}, head_W, head_b)


def gradients(params: ParamSet, arch, acts, p: np.ndarray, y: np.ndarray, cols) -> ParamSet:
    """What ``surgfed.nn.backward`` gives: batch-norm statistics worked
    out again from ``acts``, a train-mode pass's activations."""
    norms = {}
    for i in arch.bn_layers():
        _, centered, var = batch_stats(acts[i])
        norms[i] = (centered, np.sqrt(var + BN_EPS))
    return backward(params, arch, acts, output_grad(p, y, cols), norms)


def sgd(params: ParamSet, grads: ParamSet, lr: float, frozen=frozenset()) -> None:
    """``v -= lr * g`` in place on every tensor of an unfrozen group."""
    if "feature_extractor" not in frozen:
        for k, v in params.feature.items():
            v -= lr * grads.feature[k]
    if "head" not in frozen:
        params.head_W -= lr * grads.head_W
        params.head_b -= lr * grads.head_b


def step(params: ParamSet, arch, x: np.ndarray, y: np.ndarray, cols, lr: float, frozen=frozenset()):
    """What ``surgfed.nn.train_step`` does: one SGD step, ``params``
    updated in place, batch-norm statistics of the forward pass reused.
    Returns one loss per model."""
    acts, p, norms = forward(params, arch, x, True)
    g = output_grad(p, y, cols)
    value = loss(p, y, cols)
    sgd(params, backward(params, arch, acts, g, norms, "feature_extractor" in frozen), lr, frozen)
    return value


def train(params: ParamSet, arch, x: np.ndarray, y: np.ndarray, rng, epochs: int, lr: float, batch_size: int,
          cols, frozen=frozenset()) -> list:
    """One client's local SGD, one batch at a time: each epoch draws a
    row order from ``rng`` and steps through it batch by batch (the last
    batch may be short).  Returns each epoch's mean batch loss."""
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(x))
        total, batches = 0.0, 0
        for start in range(0, len(x), batch_size):
            idx = order[start:start + batch_size]
            total += step(params, arch, x[idx], y[idx], cols, lr, frozen)
            batches += 1
        losses.append(total / batches)
    return losses
