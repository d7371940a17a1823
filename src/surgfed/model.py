"""Client-side model state: init with per-class head columns, local SGD.

Every client in an experiment shares one init seed for the feature
extractor, and each head column is drawn from a stream keyed by
(seed, global class id).  Two clients that share a class therefore start
from identical columns regardless of how wide their heads are.

A :class:`ClientGroup` stacks same-shape clients once, checking shapes
and labels, and trains them in lock-step on a copy of their parameters
in an arena, which holds each epoch's gathered rows and every step's
buffers and gradients; each step runs :func:`surgfed.nn.train_step`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import LabeledSet
from .errors import ConfigError, ContractViolation
from .registry import need_class_ids
# backward, masked_bce_loss and sgd_step are not called here:
# perfbench/tracer.py wraps them under this module's names
from .nn import (
    Architecture,
    Arena,
    ParamSet,
    backward,
    buffer_shapes,
    check_training,
    forward,
    grad_views,
    masked_bce_loss,
    sgd_step,
    stack_params,
    train_layout,
    train_step,
)
from .nn import _bce, _check_sgd, _mask_cols, _take_cols  # the cores validation and training call

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

    @cached_property
    def cols(self):
        """``loss_cols`` as the loss takes them, worked out at the first
        training or validation call (:func:`surgfed.nn._mask_cols`)."""
        if len(set(self.loss_cols)) != len(self.loss_cols):
            raise ConfigError(f"loss columns {self.loss_cols} name a column twice")
        return _mask_cols(self.loss_cols, self.val.y)


class ClientGroup(list):
    """Same-shape clients stacked once: ``params`` (in tables), ``x``, ``y``,
    ``val_x`` and ``val_y``, each client's own a view of its rows, and
    loss columns ``cols``.  Steps use ``arena``."""

    def __init__(self, clients):
        super().__init__(clients)
        if not self:
            raise ConfigError("a training group needs at least one client")
        if len({(c.arch, c.train.n, c.val.n, c.params.head_cols, len(c.loss_cols)) for c in self}) > 1:
            raise ContractViolation("group members must share architecture, split sizes, head width "
                                    "and loss-column count")
        self.ids, self.arena = [c.id for c in self], Arena()
        self.x, self.y, self.val_x, self.val_y = (np.empty((len(self), *a.shape), a.dtype) for s in
                                                  (self[0].train, self[0].val) for a in (s.x, s.y))
        for k, c in enumerate(self):  # a client's own arrays go as its rows fill, never all held twice
            self.x[k], self.y[k], self.val_x[k], self.val_y[k] = c.train.x, c.train.y, c.val.x, c.val.y
            c.train, c.val = LabeledSet(self.x[k], self.y[k]), LabeledSet(self.val_x[k], self.val_y[k])
        self.order = np.empty(self.y.shape[:2], np.intp)  # an epoch's rows
        self.adopt(stack_params([c.params for c in self]))
        check_training(self.params, self[0].arch, self.x, self.y, None, 0.0, ())
        cols = [c.cols for c in self]  # every column, one shared set or a row per client (see ClientState.cols)
        self.cols = cols[0] if cols[0] is None or len({c.loss_cols for c in self}) == 1 else np.stack(cols)

    def adopt(self, params: ParamSet) -> None:
        """Make ``params`` (in tables) the group's, each client's a view of its rows."""
        self.params = params
        for k, c in enumerate(self):
            c.params = ParamSet.from_tensors(((g, key, a[k]) for g, key, a in params.tensors()),
                                             tuple(t[k] for t in params.tables))

    def step_shapes(self, batch_size: int) -> dict[int, list]:
        """:func:`surgfed.nn.train_layout` for this group."""
        return train_layout(self[0].arch, len(self), self.x.shape[1], self.params.head_cols, batch_size)

    def val_shapes(self) -> list:
        """The buffers of its validation pass and loss."""
        return buffer_shapes(self[0].arch, self.val_y.shape[:2], self.params.head_cols, loss=True)


def _train_epoch(group: ClientGroup, x, y, params: ParamSet, lr: float, batch_size: int, frozen, steps):
    """One lock-step epoch: each client draws a row order from its own
    stream, one take per array gathers the rows and ``int8`` labels into
    slice k of ``x`` and ``y``, and a batch is a view.  ``params`` is
    updated in place; a step takes its buffers and gradients from
    ``steps`` by batch length.  Returns each client's mean batch loss."""
    K, n = x.shape[:2]
    rows = group.order
    for k, c in enumerate(group):  # client k's rows lie at k*n in the stack
        rows[k] = c.rng.permutation(n) + k * n
    # "clip" spares the copy of out that "raise" makes; the rows are in range
    np.take(group.x.reshape(K * n, -1), rows, axis=0, out=x, mode="clip")
    np.take(group.y.reshape(K * n, -1), rows, axis=0, out=y, mode="clip")
    total, batches = np.zeros(K), 0
    for start in range(0, n, batch_size):
        end = start + batch_size
        total += train_step(params, group[0].arch, x[:, start:end], y[:, start:end], group.cols, lr, frozen,
                            group.ids, *steps[min(batch_size, n - start)])
        batches += 1
    return total / batches


def _train_group(group, epochs: int, lr: float, batch_size: int, frozen):
    """Run ``epochs`` lock-step epochs on a copy of the group's tables and
    hand the copy to its clients (a plain list is stacked on entry); a
    call that raises leaves every client as it was.  Returns the
    per-epoch loss arrays (one entry per client)."""
    group = group if isinstance(group, ClientGroup) else ClientGroup(group)
    frozen = _check_sgd(lr, frozen)
    params = grad_views(group.params, *(t.copy() for t in group.params.tables))
    views = {b: group.arena.views(s) for b, s in group.step_shapes(batch_size).items()}
    x, y = views[max(views)][:2]
    steps = {b: (v[2:], grad_views(params, v[-1])) for b, v in views.items()}
    losses = [_train_epoch(group, x, y, params, lr, batch_size, frozen, steps) for _ in range(epochs)]
    group.adopt(params)
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

    Members must share split sizes, head width and the number of loss
    columns.  Each client's result is bitwise what training it alone
    gives.  Batch order comes from the client's own RNG stream, which
    persists across calls, so E epochs twice equals 2E epochs once
    bit-exactly.
    """
    if epochs < 1:
        raise ConfigError("epochs must be at least 1")
    if batch_size < 1:
        raise ConfigError("batch_size must be positive")
    losses = np.stack(_train_group(group, epochs, lr, batch_size, frozenset()), axis=1)
    for c, own in zip(group, losses):  # np.mean's sum of the client's epoch losses
        c.epoch_counter += epochs
        c.last_train_loss = float(np.add.reduce(own) / epochs)
    return group


def validation_loss(clients, arena: Arena | None = None):
    """Masked BCE over each client's loss columns on its validation split,
    eval mode, in ``arena`` or a fresh one: one pass and a loss per client
    for a group (a list is stacked on entry), a float for one client."""
    one = isinstance(clients, ClientState)
    group = clients if isinstance(clients, ClientGroup) else ClientGroup([clients] if one else clients)
    bufs = (Arena() if arena is None else arena).views(group.val_shapes())
    _, p = forward(group.params, group[0].arch, group.val_x, "eval", group.ids, bufs)
    losses = _bce(_take_cols(p, group.cols), _take_cols(group.val_y, group.cols), bufs[-1])
    return float(losses[0]) if one else losses


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
