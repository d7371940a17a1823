"""Client-side model state: init with per-class head columns, local SGD.

Every client in an experiment shares one init seed for the feature
extractor, and each head column is drawn from a stream keyed by
(seed, global class id).  Two clients that share a class therefore start
from identical columns regardless of how wide their heads are.

Local SGD trains a :class:`ClientGroup` of same-shape clients in
lock-step on a stacked copy of their parameters, gathering each epoch's
shuffled rows into buffers the group owns.  Shapes, labels, loss columns,
the learning rate and the frozen groups are checked once per training
call, not per batch; each step then runs :func:`surgfed.nn.train_step`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import LabeledSet
from .errors import ConfigError, ContractViolation
from .registry import need_class_ids
# backward and sgd_step are not called here: perfbench/tracer.py wraps them
# under this module's names
from .nn import (
    Architecture,
    ParamSet,
    backward,
    check_training,
    eval_buffers,
    forward,
    masked_bce_loss,
    sgd_step,
    stack_params,
    train_step,
    unstack_params,
)

_TAG_FEATURE, _TAG_HEAD = 1, 2


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def init_model(arch: Architecture, head_classes: int, seed: int, class_ids=None) -> ParamSet:
    """Fresh parameters: Glorot-uniform dense weights, zero biases,
    batch-norm at (gamma=1, beta=0, mean=0, var=1).

    ``class_ids`` are the global ids behind the head columns (defaults to
    0..head_classes-1); column j is drawn from a stream keyed by
    (seed, class_ids[j]) and each column is initialised as its own
    fan-out-1 dense map so its values do not depend on the head width.
    """
    if head_classes < 1:
        raise ConfigError("head_classes must be positive")
    class_ids = need_class_ids(range(head_classes) if class_ids is None else class_ids, "class_ids")
    if len(class_ids) != head_classes:
        raise ConfigError("class_ids must have one entry per head column")

    rng = np.random.default_rng([seed, _TAG_FEATURE])
    feature: dict[str, np.ndarray] = {}
    bn_mean: dict[int, np.ndarray] = {}
    bn_var: dict[int, np.ndarray] = {}
    for i, spec in enumerate(arch.feature_specs):
        if spec.kind == "dense":
            feature[f"{i}.W"] = _glorot(rng, spec.in_dim, spec.out_dim, (spec.in_dim, spec.out_dim))
            feature[f"{i}.b"] = np.zeros(spec.out_dim)
        elif spec.kind == "batchnorm":
            feature[f"{i}.gamma"] = np.ones(spec.out_dim)
            feature[f"{i}.beta"] = np.zeros(spec.out_dim)
            bn_mean[i] = np.zeros(spec.out_dim)
            bn_var[i] = np.ones(spec.out_dim)

    n_feat = arch.feature_out_dim
    head_W = np.empty((n_feat, head_classes))
    for j, c in enumerate(class_ids):
        col_rng = np.random.default_rng([seed, _TAG_HEAD, c])
        head_W[:, j] = _glorot(col_rng, n_feat, 1, n_feat)
    head_b = np.zeros(head_classes)
    # feature names in walk order, the order every copy of the set keeps
    feature = dict(sorted(feature.items()))
    return ParamSet(feature=feature, bn_mean=bn_mean, bn_var=bn_var, head_W=head_W, head_b=head_b)


@dataclass
class ClientState:
    """One client's model, data views and private RNG stream.

    ``classes`` are the sorted global ids the client holds.  The head is
    normally one column per held class; missing-as-negative and masked
    loss baselines widen it to the full class set, in which case the
    label views are full width as well.  ``loss_cols`` are the head
    columns every training and validation loss covers, fixed when the
    client is built; None means the columns of the client's classes.
    """

    id: int
    arch: Architecture
    params: ParamSet
    classes: tuple[int, ...]
    train: LabeledSet
    val: LabeledSet
    rng: np.random.Generator
    epoch_counter: int = 0
    last_train_loss: float = float("nan")
    loss_cols: tuple[int, ...] | None = None

    def __post_init__(self):
        width = self.params.head_cols
        if self.train.y.shape[1] != width:
            raise ContractViolation("label view width does not match the head")
        if width < len(self.classes):
            raise ContractViolation("head narrower than the client's class list")
        if self.loss_cols is None:
            self.loss_cols = tuple(range(width)) if width == len(self.classes) else self.classes


class ClientGroup(list):
    """Clients that train in lock-step, with the buffers each epoch
    gathers their shuffled training rows into: ``x`` is (K, n, d), ``y``
    is (K, n, c) in the labels' dtype (``int8``), and slice k always
    holds a row permutation of client k's training set.  The simulator
    builds one per group per run; a plain list passed to a training call
    is wrapped in one for that call."""

    def __init__(self, clients):
        super().__init__(clients)
        self.x = np.stack([c.train.x for c in self])
        self.y = np.stack([c.train.y for c in self])


def _train_epoch(group: ClientGroup, params: ParamSet, cols, lr: float, batch_size: int, frozen):
    """One lock-step epoch of a group whose buffers ``check_training`` has
    passed.  ``params`` is stacked along a leading client axis and updated
    in place; every client draws its batch order from its own RNG stream.
    Returns each client's mean batch loss."""
    arch, ids, x, y = group[0].arch, [c.id for c in group], group.x, group.y
    n = x.shape[1]
    # shuffle each client's rows into its slice once; every batch is a view.
    # "clip" spares the copy of out that "raise" makes; the rows are in range
    for k, c in enumerate(group):
        rows = c.rng.permutation(n)
        np.take(c.train.x, rows, axis=0, out=x[k], mode="clip")
        np.take(c.train.y, rows, axis=0, out=y[k], mode="clip")
    total, batches = np.zeros(len(group)), 0
    for start in range(0, n, batch_size):
        end = start + batch_size
        total += train_step(params, arch, x[:, start:end], y[:, start:end], cols, lr, frozen, ids)
        batches += 1
    return total / batches


def _train_group(group, epochs: int, lr: float, batch_size: int, frozen):
    """Run ``epochs`` lock-step epochs on a private stacked copy of the
    group's parameters and write each client's slice back; a call that
    raises leaves every client's parameters as they were.  Inputs are
    checked here, once.  Returns the per-epoch loss arrays (one entry per
    client)."""
    if not group:
        raise ConfigError("a training group needs at least one client")
    first = group[0]
    columns = [c.loss_cols for c in group]
    for c, own in zip(group, columns):
        if (c.arch != first.arch or c.train.n != first.train.n
                or c.params.head_cols != first.params.head_cols or len(own) != len(columns[0])):
            raise ContractViolation(
                "group members must share architecture, train.n, head width and loss-column count"
            )
    # one shared mask, or one row of loss columns per client
    mask = columns[0] if len(set(columns)) == 1 else np.array(columns, dtype=np.intp)
    params = stack_params([c.params for c in group])
    group = group if isinstance(group, ClientGroup) else ClientGroup(group)
    cols, frozen = check_training(params, first.arch, group.x, group.y, mask, lr, frozen)
    losses = [_train_epoch(group, params, cols, lr, batch_size, frozen) for _ in range(epochs)]
    for c, ps in zip(group, unstack_params(params)):
        c.params = ps
    return losses


def head_warmup(group, warmup_epochs: int, warmup_lr: float, batch_size: int):
    """Train only the heads of a group of same-shape clients for a few
    epochs; feature extractors stay frozen but batch-norm running
    statistics do update.  Zero epochs is a no-op."""
    if warmup_epochs < 0:
        raise ConfigError("warmup_epochs must be non-negative")
    if batch_size < 1:
        raise ConfigError("batch_size must be positive")
    if warmup_epochs:
        _train_group(group, warmup_epochs, warmup_lr, batch_size, frozenset({"feature_extractor"}))
    return group


def local_train(group, epochs: int, lr: float, batch_size: int):
    """Run ``epochs`` full passes of mini-batch SGD on every client of a
    group, in lock-step.

    Members must share train.n, head width and the number of loss
    columns.  Each client's result is bitwise what training it alone
    gives.  Batch order comes from the client's own RNG stream, which
    persists across calls, so E epochs twice equals 2E epochs once
    bit-exactly.
    """
    if epochs < 1:
        raise ConfigError("epochs must be at least 1")
    if batch_size < 1:
        raise ConfigError("batch_size must be positive")
    losses = _train_group(group, epochs, lr, batch_size, frozenset())
    for k, c in enumerate(group):
        c.epoch_counter += epochs
        c.last_train_loss = float(np.mean([loss[k] for loss in losses]))
    return group


def validation_loss(client: ClientState) -> float:
    """Masked BCE over the client's loss columns on its validation split,
    eval mode, in place."""
    bufs = eval_buffers(client.arch, client.val.n, client.params.head_cols)
    _, p = forward(client.params, client.arch, client.val.x, "eval", [client.id], bufs)
    return masked_bce_loss(p, client.val.y, client.loss_cols)


# --- checkpoints ------------------------------------------------------------

_CKPT_HEADER = "surgfed-checkpoint-v1"


def save_checkpoint(params: ParamSet, path) -> None:
    """Text checkpoint: one row per tensor with a shape header and
    row-major values at 17 significant digits (bit-exact on reload)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow([_CKPT_HEADER])
        for group, key, arr in params.tensors():
            shape = (arr.shape[0], 0) if arr.ndim == 1 else arr.shape
            name = group if key is None else str(key)
            w.writerow([group, name, shape[0], shape[1]] + [f"{v:.17g}" for v in np.ravel(arr)])


def load_checkpoint(path) -> ParamSet:
    """Inverse of :func:`save_checkpoint`.  A malformed row is a
    :class:`ConfigError` that names its line."""
    path = Path(path)
    rows = []
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r, None)
        if not header or header[0] != _CKPT_HEADER:
            raise ConfigError(f"{path} is not a surgfed checkpoint")
        for row in r:
            where = f"{path} line {r.line_num}"
            if len(row) < 4:
                raise ConfigError(f"{where}: a row needs a group, a name and a two-number shape")
            group, name = row[0], row[1]
            try:
                rows_, cols_ = int(row[2]), int(row[3])
                vals = np.array([float(v) for v in row[4:]], dtype=np.float64)
            except ValueError:
                raise ConfigError(f"{where}: the shape must be integers and the values numbers") from None
            if rows_ < 0 or cols_ < 0 or vals.size != (rows_ if cols_ == 0 else rows_ * cols_):
                raise ConfigError(f"{where}: {vals.size} values do not fill the shape ({rows_}, {cols_})")
            arr = vals if cols_ == 0 else vals.reshape(rows_, cols_)
            if group in ("bn_mean", "bn_var") and not name.isdecimal():
                raise ConfigError(f"{where}: a batch-norm row must name a layer index, got {name!r}")
            if group not in ("feature", "bn_mean", "bn_var", "head_W", "head_b"):
                raise ConfigError(f"unknown checkpoint row group {group!r}")
            key = None if group.startswith("head") else name if group == "feature" else int(name)
            rows.append((group, key, arr))
    if not {"head_W", "head_b"} <= {g for g, _, _ in rows}:
        raise ConfigError("checkpoint is missing the head")
    return ParamSet.from_tensors(rows)
