"""Minimal dense-network kernel: forward, masked BCE, backprop, SGD.

Parameters, activations and losses are float64.  Labels may be of any
numeric dtype holding exactly 0 and 1 (runs keep them as ``int8``) and
are never widened: for 0/1 labels the loss and its gradient are bitwise
what float64 labels give.  One model works on 2-D arrays (samples in
rows); K same-shape models train in lock-step when every tensor,
parameters included, carries a leading model axis.  The kernel is
written once for both: matmuls run over the leading axes and every
reduction is over ``axis=-2``, so each model's slice of a stacked call
is bitwise what a call with that model alone gives.

A model is a stack of feature layers (dense, batchnorm, relu) followed
by an implicit classification head: one dense layer plus a sigmoid.
Batch norm uses a fixed momentum and epsilon (``BN_MOMENTUM``,
``BN_EPS``).  The head's parameters live in their own fields of
:class:`ParamSet` so they can be aggregated per class.

Each public function (:func:`forward`, :func:`masked_bce_loss`,
:func:`backward`, :func:`sgd_step`) validates its arguments on every
call and then runs a private core that holds the layer math.  Training
calls the cores directly: :func:`check_training` makes every check once
for a whole training set, and :func:`train_step` runs one step on a
batch of it.  Only the finiteness checks, which depend on the values,
stay in every step.  :func:`forward` can also write into buffers the
caller owns (:func:`eval_buffers`) and then allocates no activations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError, ContractViolation, NumericError

BCE_CLAMP = 1e-7
BN_MOMENTUM = 0.1
BN_EPS = 1e-5

LAYER_KINDS = ("dense", "batchnorm", "relu")
PARAM_GROUPS = frozenset({"feature_extractor", "head"})


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_dim: int
    out_dim: int

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise ConfigError("layer dimensions must be positive")
        if self.kind != "dense" and self.in_dim != self.out_dim:
            raise ConfigError(f"{self.kind} layers cannot change width")


def dense(in_dim: int, out_dim: int) -> LayerSpec:
    return LayerSpec("dense", in_dim, out_dim)


def batchnorm(dim: int) -> LayerSpec:
    return LayerSpec("batchnorm", dim, dim)


def relu(dim: int) -> LayerSpec:
    return LayerSpec("relu", dim, dim)


@dataclass(frozen=True)
class Architecture:
    """Feature-extractor layer stack for inputs of width ``in_dim``.

    ``feature_specs`` may be empty, in which case the classification head
    acts directly on the inputs (a plain logistic model).
    """

    in_dim: int
    feature_specs: tuple[LayerSpec, ...] = ()

    def __post_init__(self):
        if self.in_dim < 1:
            raise ConfigError("in_dim must be positive")
        object.__setattr__(self, "feature_specs", tuple(self.feature_specs))
        w = self.in_dim
        for spec in self.feature_specs:
            if spec.in_dim != w:
                raise ConfigError(
                    f"layer expects width {spec.in_dim} but receives {w}"
                )
            w = spec.out_dim

    @property
    def feature_out_dim(self) -> int:
        return self.feature_specs[-1].out_dim if self.feature_specs else self.in_dim

    def bn_layers(self) -> tuple[int, ...]:
        return tuple(
            i for i, s in enumerate(self.feature_specs) if s.kind == "batchnorm"
        )


def build_architecture(d: int, hidden: tuple[int, ...] = (32, 16), use_batchnorm: bool = True) -> Architecture:
    """Default backbone: dense stack with batchnorm+relu after the first
    dense layer and relu after the rest.  ``hidden=()`` gives a logistic
    model (no feature extractor)."""
    specs: list[LayerSpec] = []
    w = d
    for pos, h in enumerate(hidden):
        specs.append(dense(w, h))
        if pos == 0 and use_batchnorm:
            specs.append(batchnorm(h))
        specs.append(relu(h))
        w = h
    return Architecture(in_dim=d, feature_specs=tuple(specs))


@dataclass
class ParamSet:
    """Trainable parameters plus batch-norm running statistics.

    ``feature`` maps ``"{layer}.W" / "{layer}.b" / "{layer}.gamma" /
    "{layer}.beta"`` to arrays; ``bn_mean`` / ``bn_var`` hold the running
    statistics keyed by feature-layer index.  ``head_W`` is
    (feature_out_dim, n_head_classes) and ``head_b`` its bias row.
    """

    feature: dict[str, np.ndarray]
    bn_mean: dict[int, np.ndarray]
    bn_var: dict[int, np.ndarray]
    head_W: np.ndarray
    head_b: np.ndarray

    @property
    def head_cols(self) -> int:
        return self.head_W.shape[-1]

    def copy(self, head_cols=None) -> "ParamSet":
        """A deep copy, C-ordered; ``head_cols`` keeps only those head
        columns, in that order."""
        cols = slice(None) if head_cols is None else list(head_cols)
        return ParamSet(
            feature={k: v.copy() for k, v in self.feature.items()},
            bn_mean={k: v.copy() for k, v in self.bn_mean.items()},
            bn_var={k: v.copy() for k, v in self.bn_var.items()},
            head_W=self.head_W[:, cols].copy(),
            head_b=self.head_b[cols].copy(),
        )


@dataclass
class ParamGrad:
    feature: dict[str, np.ndarray]
    head_W: np.ndarray
    head_b: np.ndarray


def params_equal(a: ParamSet, b: ParamSet) -> bool:
    """Bitwise equality of two parameter sets (stats included)."""
    if set(a.feature) != set(b.feature) or set(a.bn_mean) != set(b.bn_mean):
        return False
    for k in a.feature:
        if not np.array_equal(a.feature[k], b.feature[k]):
            return False
    for k in a.bn_mean:
        if not np.array_equal(a.bn_mean[k], b.bn_mean[k]):
            return False
        if not np.array_equal(a.bn_var[k], b.bn_var[k]):
            return False
    return np.array_equal(a.head_W, b.head_W) and np.array_equal(a.head_b, b.head_b)


def stack_params(param_sets) -> ParamSet:
    """Same-shape parameter sets as one set whose tensors carry a leading
    model axis (copies, in the given order)."""
    first = param_sets[0]
    return ParamSet(
        feature={k: np.stack([ps.feature[k] for ps in param_sets]) for k in first.feature},
        bn_mean={i: np.stack([ps.bn_mean[i] for ps in param_sets]) for i in first.bn_mean},
        bn_var={i: np.stack([ps.bn_var[i] for ps in param_sets]) for i in first.bn_var},
        head_W=np.stack([ps.head_W for ps in param_sets]),
        head_b=np.stack([ps.head_b for ps in param_sets]),
    )


def unstack_params(stacked: ParamSet) -> list[ParamSet]:
    """Inverse of :func:`stack_params`: one set per model, each a view of
    its own slice of the stacked tensors."""
    return [
        ParamSet(
            feature={key: v[k] for key, v in stacked.feature.items()},
            bn_mean={i: v[k] for i, v in stacked.bn_mean.items()},
            bn_var={i: v[k] for i, v in stacked.bn_var.items()},
            head_W=stacked.head_W[k],
            head_b=stacked.head_b[k],
        )
        for k in range(stacked.head_W.shape[0])
    ]


def _as_batch(x, name: str, dtype=np.float64) -> np.ndarray:
    a = np.asarray(x, dtype=dtype)
    if a.ndim not in (2, 3):
        raise ConfigError(f"{name} must be a 2-D array or a stack of them, got shape {a.shape}")
    return a


def _batch_stats(h: np.ndarray):
    """Batch mean, centred input and biased variance over ``axis=-2``
    (statistics keep that axis at length 1); bitwise what ``h.mean`` and
    ``h.var`` give, without computing the mean twice."""
    n = h.shape[-2]
    mu = np.add.reduce(h, axis=-2, keepdims=True) / n
    centered = h - mu
    return mu, centered, np.add.reduce(centered * centered, axis=-2, keepdims=True) / n


def _non_finite(what: str, layer: int, h: np.ndarray, client_ids) -> NumericError:
    """The error for a non-finite ``h``, naming the first model (lowest
    stack index) that holds such a value."""
    client = None
    if client_ids is not None:
        first = 0 if h.ndim == 2 else int(np.argmin(np.isfinite(h).all(axis=(-2, -1))))
        client = client_ids[first]
    at = "" if client is None else f" at client {client}"
    return NumericError(f"non-finite {what}{at}", layer=layer, client=client)


def _check_inputs(params: ParamSet, arch: Architecture, h: np.ndarray) -> None:
    """The shape checks of :func:`forward`: the input against the
    architecture, the parameters against both."""
    if h.shape[-1] != arch.in_dim:
        raise ConfigError(f"x has width {h.shape[-1]}, architecture expects {arch.in_dim}")
    if h.shape[-2] < 1:
        raise ConfigError("x must contain at least one sample")
    if h.shape[:-2] != params.head_W.shape[:-2]:
        raise ContractViolation("x and params disagree on the number of stacked models")
    for i, spec in enumerate(arch.feature_specs):
        if spec.kind == "dense":
            W = params.feature[f"{i}.W"]
            if W.shape[-2:] != (spec.in_dim, spec.out_dim):
                raise ConfigError(f"layer {i} weight shape {W.shape} does not match spec")
    if params.head_W.shape[-2] != arch.feature_out_dim:
        raise ContractViolation(
            f"head expects {params.head_W.shape[-2]} features, extractor emits {arch.feature_out_dim}"
        )


def _forward(params: ParamSet, arch: Architecture, h: np.ndarray, train: bool, client_ids,
             bufs=None):
    """The layer math of :func:`forward` on checked inputs.  Also returns,
    per batch-norm layer, the ``(centered, sqrt(var + eps))`` pair it
    normalised with, which :func:`_backward` reuses after a train-mode
    pass.  With ``bufs`` (from :func:`eval_buffers`) dense layers and the
    head write into the next buffer and the other layers work in place,
    never on the input."""
    x, acts, norms = h, [h], {}
    bufs = None if bufs is None else iter(bufs)
    for i, spec in enumerate(arch.feature_specs):
        # where the layer writes: a new array, the next buffer or in place
        out = None if bufs is None else next(bufs) if spec.kind == "dense" or h is x else h
        if spec.kind == "dense":
            h = np.matmul(h, params.feature[f"{i}.W"], out=out)
            h += params.feature[f"{i}.b"][..., None, :]
        elif spec.kind == "batchnorm":
            if train:
                mu, centered, var = _batch_stats(h)
                m = BN_MOMENTUM
                for stat, new in ((params.bn_mean[i], mu), (params.bn_var[i], var)):
                    # bitwise (1 - m) * stat + m * new, in place
                    stat *= 1.0 - m
                    stat += m * new[..., 0, :]
                    if not np.isfinite(stat).all():
                        raise _non_finite(f"batch-norm running statistic of layer {i}", i,
                                          stat[..., None, :], client_ids)
            else:
                centered = np.subtract(h, params.bn_mean[i][..., None, :], out=out)
                var = params.bn_var[i][..., None, :]
            norms[i] = (centered, np.sqrt(var + BN_EPS))
            # gamma * (centered / std) + beta, one term at a time
            h = np.divide(centered, norms[i][1], out=out)
            h *= params.feature[f"{i}.gamma"][..., None, :]
            h += params.feature[f"{i}.beta"][..., None, :]
        else:  # relu
            h = np.maximum(h, 0.0, out=out)
        # past layer 0 a relu's input was checked, and max(x, 0) of a finite x is finite
        if (spec.kind != "relu" or i == 0) and not np.isfinite(h).all():
            raise _non_finite(f"activation after layer {i} ({spec.kind})", i, h, client_ids)
        acts.append(h)
    logits = np.matmul(h, params.head_W, out=None if bufs is None else next(bufs))
    logits += params.head_b[..., None, :]
    if not np.isfinite(logits).all():
        raise _non_finite("head pre-activation", len(arch.feature_specs), logits, client_ids)
    out = expit(logits, out=None if bufs is None else logits)
    acts += [logits, out]
    return acts, out, norms


def eval_buffers(arch: Architecture, n: int, head_cols: int) -> list[np.ndarray]:
    """Work arrays for :func:`forward` calls on ``n`` rows with a head of
    ``head_cols`` columns: one per dense layer and the head, and one at
    the input width when the first feature layer is not dense."""
    widths = [s.out_dim for i, s in enumerate(arch.feature_specs) if i == 0 or s.kind == "dense"]
    return [np.empty((n, w)) for w in widths + [head_cols]]


def forward(params: ParamSet, arch: Architecture, x, mode: str = "train", client_ids=None,
            bufs=None):
    """Run the network.  Returns ``(activations, output)``.

    ``activations[0]`` is the input, then one entry per feature layer,
    then the head pre-activations (logits), then the sigmoid output.
    In train mode batch-norm normalises with batch statistics and updates
    the running statistics in place; in eval mode it reads the running
    statistics and touches nothing.

    ``x`` is ``(b, d)`` for one model, or ``(K, b, d)`` for K models
    stacked along a leading axis of every tensor in ``params``.  Each
    model's slice is bitwise what a call with that model alone gives.
    ``client_ids`` (one per model) name the failing client in a
    :class:`NumericError`.  With ``bufs`` from :func:`eval_buffers` (2-D
    ``x`` only) the pass allocates no activations: it returns None for
    them and the last buffer as the output, which the next call into the
    same buffers overwrites.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    h = _as_batch(x, "x")
    _check_inputs(params, arch, h)
    acts, out, _ = _forward(params, arch, h, mode == "train", client_ids, bufs)
    return (acts if bufs is None else None), out


def _mask_cols(mask, p: np.ndarray) -> np.ndarray:
    """The masked columns as an index array: ``(lc,)`` when one mask
    serves every model, ``(K, lc)`` with one row per stacked model.  A
    shared mask is sorted and de-duplicated; per-model rows must already
    be strictly increasing."""
    if isinstance(mask, np.ndarray) and mask.ndim == 2:
        if p.ndim != 3 or mask.shape[0] != p.shape[0]:
            raise ConfigError("a per-model mask needs one row per stacked model")
        cols = mask
        if cols.shape[1] and np.any(cols[:, 1:] <= cols[:, :-1]):
            raise ConfigError("per-model mask rows must be strictly increasing")
    else:
        cols = np.array(sorted({int(c) for c in mask}), dtype=np.intp)
    if cols.shape[-1] == 0:
        raise ConfigError("mask must name at least one class column")
    if cols.min() < 0 or cols.max() >= p.shape[-1]:
        raise ConfigError(f"mask column out of range for width {p.shape[-1]}")
    return cols


def _take_cols(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    if cols.ndim == 1:
        return a[..., cols]
    return np.take_along_axis(a, cols[:, None, :], axis=-1)


def _check_pair(p, y) -> tuple[np.ndarray, np.ndarray]:
    p = _as_batch(p, "p")
    y = _as_batch(y, "y", None)
    if p.shape != y.shape:
        raise ConfigError(f"p {p.shape} and y {y.shape} differ in shape")
    return p, y


def _check_labels(y: np.ndarray) -> None:
    if not np.all((y == 0) | (y == 1)):
        raise ConfigError("labels must be exactly 0 or 1")


def _bce(p: np.ndarray, y: np.ndarray):
    """Clamped BCE averaged over every sample and column of ``p``, one
    value per stacked model, for 0/1 labels ``y`` of any dtype.

    Bitwise ``mean(-(y * log p + (1 - y) * log1p(-p)))``: for y in {0, 1}
    the term it drops is a signed zero, and the mean of the negated
    terms is the negated mean."""
    q = np.maximum(p, BCE_CLAMP)  # the clamp, into a new array
    np.minimum(q, 1.0 - BCE_CLAMP, out=q)
    log_p = np.log(q)
    np.log1p(np.negative(q, out=q), out=q)
    np.copyto(q, log_p, where=y == 1)  # where(y == 1, log p, log1p(-p))
    # reduce over a contiguous (..., columns, samples) layout: column-major
    # per model, the order a 2-D call's column selection leaves it in
    total = np.add.reduce(np.ascontiguousarray(q.swapaxes(-1, -2)), axis=(-2, -1))
    return -(total / (q.shape[-2] * q.shape[-1]))


def masked_bce_loss(p, y, mask):
    """Binary cross-entropy averaged over samples and the masked columns.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs so a
    saturated prediction yields a large finite loss instead of an inf.
    A 2-D ``p`` gives a float; a stack ``(K, b, c)`` gives one loss per
    model, each summed column by column exactly as a 2-D call sums it.
    """
    p, y = _check_pair(p, y)
    _check_labels(y)
    cols = _mask_cols(mask, p)
    loss = _bce(_take_cols(p, cols), _take_cols(y, cols))
    return float(loss) if p.ndim == 2 else loss


def _output_grad(p: np.ndarray, y: np.ndarray, cols, width: int) -> np.ndarray:
    """Gradient of :func:`_bce` of the loss columns ``p``, ``y`` wrt the
    head pre-activations: the joint derivative through the output
    sigmoid, the clamp treated as the identity (exact away from
    saturation).  ``cols`` places the columns in a head of ``width``;
    None means they are the whole head."""
    g = (p - y) / (p.shape[-2] * p.shape[-1])
    if cols is None:
        return g
    full = np.zeros(g.shape[:-1] + (width,))
    if cols.ndim == 1:
        full[..., cols] = g
    else:
        np.put_along_axis(full, cols[:, None, :], g, axis=-1)
    return full


def _backward(params: ParamSet, arch: Architecture, activations, g: np.ndarray, norms,
              heads_only: bool = False) -> ParamGrad:
    """Backpropagate the logit gradient ``g``.  ``norms`` holds the
    ``(centered, sqrt(var + eps))`` pair of each batch-norm layer.  With
    ``heads_only`` the pass stops after the head: the feature gradients
    stay empty."""
    nspecs = len(arch.feature_specs)
    grad_head_W = activations[nspecs].swapaxes(-1, -2) @ g
    grad_head_b = np.add.reduce(g, axis=-2)
    grads: dict[str, np.ndarray] = {}
    if heads_only:
        return ParamGrad(feature=grads, head_W=grad_head_W, head_b=grad_head_b)
    g = g @ params.head_W.swapaxes(-1, -2)
    for i in range(nspecs - 1, -1, -1):
        spec = arch.feature_specs[i]
        x_in = activations[i]
        if spec.kind == "dense":
            grads[f"{i}.W"] = x_in.swapaxes(-1, -2) @ g
            grads[f"{i}.b"] = np.add.reduce(g, axis=-2)
            if i > 0:  # the input gradient of the first layer has no use
                g = g @ params.feature[f"{i}.W"].swapaxes(-1, -2)
        elif spec.kind == "batchnorm":
            gamma = params.feature[f"{i}.gamma"][..., None, :]
            nb = x_in.shape[-2]
            centered, std = norms[i]
            inv = 1.0 / std
            xhat = centered * inv
            grads[f"{i}.gamma"] = np.add.reduce(g * xhat, axis=-2)
            grads[f"{i}.beta"] = np.add.reduce(g, axis=-2)
            dxhat = g * gamma
            g = (inv / nb) * (
                nb * dxhat
                - np.add.reduce(dxhat, axis=-2, keepdims=True)
                - xhat * np.add.reduce(dxhat * xhat, axis=-2, keepdims=True)
            )
        else:  # relu
            g = g * (x_in > 0.0)
    return ParamGrad(feature=grads, head_W=grad_head_W, head_b=grad_head_b)


def backward(params: ParamSet, arch: Architecture, activations, p, y, mask) -> ParamGrad:
    """Analytic gradients of :func:`masked_bce_loss` wrt every trainable
    parameter.  ``activations`` must come from a matching train-mode
    forward call on the same parameters.  Head columns outside the mask
    receive exactly zero gradient.  Stacked inputs give stacked
    gradients.
    """
    p, y = _check_pair(p, y)
    if len(activations) != len(arch.feature_specs) + 3:
        raise ContractViolation("activation list does not match the architecture")
    if activations[0].shape[:-1] != p.shape[:-1]:
        raise ContractViolation("activations are stale: batch size mismatch")
    if p.shape[-1] != params.head_cols:
        raise ContractViolation("p width does not match the head")
    cols = _mask_cols(mask, p)
    g = _output_grad(_take_cols(p, cols), _take_cols(y, cols), cols, p.shape[-1])
    norms = {}
    for i in arch.bn_layers():
        _, centered, var = _batch_stats(activations[i])
        norms[i] = (centered, np.sqrt(var + BN_EPS))
    return _backward(params, arch, activations, g, norms)


def _check_sgd(lr: float, frozen) -> frozenset:
    frozen = frozenset(frozen)
    unknown = frozen - PARAM_GROUPS
    if unknown:
        raise ConfigError(f"unknown parameter group(s) {sorted(unknown)}")
    if lr < 0.0:
        raise ConfigError("lr must be non-negative")
    return frozen


def _sgd(params: ParamSet, grads: ParamGrad, lr: float, frozen: frozenset) -> None:
    """The SGD update, in place: ``v -= lr * g`` is bitwise ``v - lr * g``."""
    if "feature_extractor" not in frozen:
        for k, v in params.feature.items():
            v -= lr * grads.feature[k]
    if "head" not in frozen:
        params.head_W -= lr * grads.head_W
        params.head_b -= lr * grads.head_b


def sgd_step(params: ParamSet, grads: ParamGrad, lr: float, frozen=frozenset()) -> ParamSet:
    """One SGD step.  ``frozen`` names parameter groups to leave alone
    (``feature_extractor``, ``head``).  Running statistics are never
    touched.  Returns a new ParamSet; frozen groups keep their arrays."""
    frozen = _check_sgd(lr, frozen)
    train_features = "feature_extractor" not in frozen
    train_head = "head" not in frozen
    if train_features:
        for k, v in params.feature.items():
            gk = grads.feature.get(k)
            if gk is None or gk.shape != v.shape:
                raise ContractViolation(f"gradient missing or mis-shaped for {k}")
    if train_head and grads.head_W.shape != params.head_W.shape:
        raise ContractViolation("head gradient shape mismatch")
    out = ParamSet(
        feature={k: v.copy() if train_features else v for k, v in params.feature.items()},
        bn_mean=dict(params.bn_mean),
        bn_var=dict(params.bn_var),
        head_W=params.head_W.copy() if train_head else params.head_W,
        head_b=params.head_b.copy() if train_head else params.head_b,
    )
    _sgd(out, grads, lr, frozen)
    return out


# --- lock-step training -------------------------------------------------------


def check_training(params: ParamSet, arch: Architecture, x, y, mask, lr: float, frozen):
    """Every check the four functions above make per call, made once for
    a training set that :func:`train_step` then walks batch by batch:
    ``x`` and ``y`` hold all of it, stacked like ``params``.  Returns
    ``(cols, frozen)`` in the form :func:`train_step` takes; ``cols`` is
    None when the mask names every head column."""
    x, y = _as_batch(x, "x"), _as_batch(y, "y", None)
    _check_inputs(params, arch, x)
    if y.shape != x.shape[:-1] + (params.head_cols,):
        raise ContractViolation(f"labels {y.shape} do not match inputs {x.shape} and the head")
    _check_labels(y)
    cols = _mask_cols(mask, y)
    frozen = _check_sgd(lr, frozen)
    if cols.ndim == 1 and cols.shape[0] == y.shape[-1]:
        cols = None  # sorted, unique and in range: every column, in order
    return cols, frozen


def train_step(params: ParamSet, arch: Architecture, x, y, cols, lr: float, frozen, client_ids):
    """One SGD step on a batch cut from inputs :func:`check_training`
    passed, with the arguments it returned: bitwise :func:`forward`,
    :func:`masked_bce_loss`, :func:`backward` and :func:`sgd_step` in a
    row, but ``params`` is updated in place, batch-norm statistics are
    computed once and a mask over every column is not applied.  With the
    feature extractor frozen, backpropagation stops after the head.
    Returns the loss, one per stacked model."""
    acts, p, norms = _forward(params, arch, x, True, client_ids)
    if cols is not None:
        p, y = _take_cols(p, cols), _take_cols(y, cols)
    loss = _bce(p, y)
    if not np.isfinite(loss).all():
        client = None if client_ids is None else client_ids[int(np.argmin(np.isfinite(loss)))]
        at = "" if client is None else f" at client {client}"
        raise NumericError(f"non-finite loss{at}", client=client)
    heads_only = "feature_extractor" in frozen
    g = _output_grad(p, y, cols, params.head_cols)
    _sgd(params, _backward(params, arch, acts, g, norms, heads_only), lr, frozen)
    return loss
