"""Server-side aggregation: one rule for every exchanging method.

:func:`server_update` is FedAvg with two knobs.  Every feature tensor is
averaged over all clients.  Batch-norm running statistics are averaged
as well (``fedavg``) or kept local by each client (``fedbn``,
``fedbn_plus``).  The head is merged per class: global column c is the
mean of that class's (weights, bias) column over exactly the clients
whose head holds c, taken in ascending client order.  With the class
registry that is the surgical merge; with a registry in which every
client holds all M columns it is plain FedAvg of full-width heads; with
no registry every head stays personal.  A class held by a single client
passes through bit-exactly.  The round is written into each client's
rows (``ParamSet.tables``, which every client's parameters must have):
the averaged features, the statistics it keeps and the merged head cut
to its columns, the cut that builds each client's initial model from the
M-column init.

All means are one rule, FedAvg's weighted mean summed left to right in
client order; no weights means unit weights, which give the plain mean
bit for bit.  One loop takes every mean of the round (the feature row,
the statistics row, ``head_W`` and ``head_b``): it starts at -0.0, adds
each client's weighted part at its columns, and divides each column by
its holders' summed weights.  -0.0 + x is x bit for bit, so a column's
first holder lands unchanged.  The independent FedAvg reference, whole
parameter sets averaged tensor by tensor with :func:`mean_arrays`, lives
in the tests, which compare :func:`server_update` against it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractViolation, NumericError
from .nn import Architecture, ParamSet, forward, grad_views
# perfbench/tracer.py wraps clients_with_class under this module's name
from .registry import ClassRegistry, clients_with_class  # noqa: F401

STRATEGIES = ("fedavg", "fedbn", "fedbn_plus")


def _weights(weights, n: int) -> list[float]:
    """``n`` weights, 1.0 each if None, each finite and not negative."""
    weights = [1.0] * n if weights is None else [float(w) for w in weights]
    if len(weights) != n or not all(0.0 <= w < np.inf for w in weights):
        raise ConfigError(f"need {n} weights, each finite and not negative")
    return weights


def mean_arrays(arrays, weights=None) -> np.ndarray:
    """Weighted mean of equally-shaped arrays, summed left to right
    (index order = client order).  No weights means unit weights, the
    plain mean bit for bit: ``x * 1.0`` is ``x``, a sum of n ones is n."""
    if len(arrays) == 0:
        raise ConfigError("cannot average an empty list")
    weights = _weights(weights, len(arrays))
    total = sum(weights)
    if total <= 0.0:
        raise ConfigError("weights must sum to a positive value")
    acc = np.array(arrays[0], dtype=np.float64, copy=True) * weights[0]
    for a, w in zip(arrays[1:], weights[1:]):
        acc += a * w
    acc /= total
    return acc


def _merge(parts, cols, width: int, weights) -> np.ndarray:
    """The round's one mean.  Client k's ``parts[k]`` lands at ``cols[k]``
    of ``width`` columns on the last axis (``slice(None)`` for all of
    them, else class indices).  Each column is ``part * w`` summed in
    client order from -0.0, divided by its holders' summed weights."""
    weights = _weights(weights, len(parts))
    acc = np.full(parts[0].shape[:-1] + (width,), -0.0)
    divisor = np.zeros(width)
    for part, c, w in zip(parts, cols, weights):
        acc[..., c] += part * w
        divisor[c] += w
    if np.any(divisor <= 0.0):
        raise ConfigError("weights must sum to a positive value")
    acc /= divisor
    return acc


def collect_bn_stats(params: ParamSet, arch: Architecture, x) -> tuple[dict, dict]:
    """Per-layer input mean/variance observed in one train-style pass
    over ``x``; used to pre-seed global batch-norm statistics."""
    acts, _ = forward(params.copy(), arch, x, "train")
    captured_mean = {i: acts[i].mean(axis=0) for i in arch.bn_layers()}
    captured_var = {i: acts[i].var(axis=0) for i in arch.bn_layers()}
    return captured_mean, captured_var


def surgical_head_update(heads, registry: ClassRegistry, weights=None):
    """Merge local heads into one (feature_dim, M) head.

    ``heads[k]`` is ``(head_W, head_b, classes)`` for client k, with one
    column per held class in sorted class order.  Global column c is the
    mean of the (weights, bias) columns of the clients holding c, in
    ascending client order, weighted by ``weights`` (1.0 each if None);
    the bias travels with its column.  It is the round's merge loop,
    seeded at -0.0 so a lone holder's column, -0.0 included, lands as it
    is; every column is bitwise what :func:`mean_arrays` gives on its
    holders' columns.
    """
    if len(heads) != registry.n_clients:
        raise ContractViolation("one head per registry client required")
    n_feat = heads[0][0].shape[0]
    for k, (W, b, classes) in enumerate(heads):
        classes = tuple(classes)
        if classes != registry.client_classes[k]:
            raise ContractViolation(f"head {k} classes do not match the registry")
        if W.shape[1] != len(classes) or b.shape != (len(classes),):
            raise ContractViolation(f"head {k} width does not match its class list")
        if W.shape[0] != n_feat:
            raise ContractViolation("heads disagree on feature width")
    cols = [np.asarray(cs) for cs in registry.client_classes]
    return (_merge([W for W, _, _ in heads], cols, registry.n_classes, weights),
            _merge([b for _, b, _ in heads], cols, registry.n_classes, weights))


def _need_finite(merged: np.ndarray, parts, name: str, layer: int | None = None) -> None:
    """A weighted mean of finite tensors can still overflow, in ``W * w``
    or in the sum.  When the merged tensor holds a non-finite value that
    none of the ``parts`` merged into it held, the server made it: raise
    :class:`NumericError` naming the tensor and the server.  Parts that
    already held one pass through as the mean gives them."""
    if not np.isfinite(merged).all() and all(np.isfinite(a).all() for a in parts):
        raise NumericError(f"non-finite averaged {name} on the server", layer=layer)


def server_update(clients, registry: ClassRegistry | None, strategy: str = "fedavg",
                  pretrained_bn=None, weights=None):
    """One communication round.

    Averages the clients' feature tensors and, under ``fedavg``, their
    batch-norm running statistics; under ``fedbn`` and ``fedbn_plus``
    every client keeps its own statistics.  ``registry`` names the head
    columns of each client (``registry.client_classes[k]``), and each
    global column is merged over its holders.  With ``registry=None``
    every head stays personal and no global model is built, which is the
    only case ``fedbn`` allows; otherwise the global model's statistics
    are the averaged ones (``fedavg``) or ``pretrained_bn`` (``fedbn_plus``).
    Every averaged tensor and the merged head are checked once: a
    non-finite value that the merge made from finite inputs raises
    :class:`NumericError` naming the tensor and the server (``client``
    None).

    Each client gets the round in its rows, ``c.params.tables``, as a
    run's clients hold them (a client without them is a
    :class:`ContractViolation`).  Returns ``(global ParamSet or None,
    those rows)``; the global model shares no memory with them.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    keep_global = registry is not None
    if strategy == "fedbn" and keep_global:
        raise ConfigError("strategy 'fedbn' emits no global model; use it with the pfl method only")
    if strategy == "fedbn_plus" and keep_global and pretrained_bn is None:
        raise ConfigError("fedbn_plus requires pretrained batch-norm statistics")
    sets = [c.params for c in clients]
    if not sets:
        raise ConfigError("no clients to aggregate")
    if not all(ps.tables for ps in sets):
        raise ContractViolation("every client's parameters must be laid out in tables to take the round")
    if any(set(ps.feature) != set(sets[0].feature) for ps in sets):
        raise ContractViolation("clients disagree on feature parameter names")
    if keep_global:
        if len(sets) != registry.n_clients:
            raise ContractViolation("one client state per registry client required")
        cols = [np.asarray(cs) for cs in registry.client_classes]  # built once, merged and handed back
        for k, (c, ps) in enumerate(zip(clients, sets)):
            if not set(c.classes) <= set(registry.client_classes[k]):
                raise ContractViolation(f"client {k} classes do not match the registry")
            if ps.head_cols != len(cols[k]):
                raise ContractViolation(f"client {k} head width does not match the registry")

    # the averages, in rows laid out as client 0's; features and statistics
    # are each averaged as one row, then every tensor is checked
    glob = grad_views(sets[0], *(np.empty(t.size) for t in sets[0].tables))
    width = glob.feature_width
    every = [slice(None)] * len(sets)
    glob.tables[0][:width] = _merge([ps.tables[0][:width] for ps in sets], every, width, weights)
    shared_stats = strategy == "fedavg"
    if shared_stats:
        glob.tables[1][...] = _merge([ps.tables[1] for ps in sets], every, glob.tables[1].size, weights)
    for group in ("feature", "bn_mean", "bn_var")[:3 if shared_stats else 1]:
        for key, a in sorted(getattr(glob, group).items()):
            _need_finite(a, (getattr(ps, group)[key] for ps in sets), f"{group}[{key!r}]",
                         int(str(key).split(".")[0]))
    if not shared_stats and keep_global:
        mean_stats, var_stats = pretrained_bn
        for i in glob.bn_mean:
            if i not in mean_stats or i not in var_stats:
                raise ConfigError(f"pretrained statistics missing for batch-norm layer {i}")
        glob.bn_mean = {i: mean_stats[i].copy() for i in sorted(glob.bn_mean)}
        glob.bn_var = {i: var_stats[i].copy() for i in sorted(glob.bn_var)}

    global_params = None
    if keep_global:
        global_W = _merge([ps.head_W for ps in sets], cols, registry.n_classes, weights)
        global_b = _merge([ps.head_b for ps in sets], cols, registry.n_classes, weights)
        _need_finite(global_W, [ps.head_W for ps in sets], "head_W")
        _need_finite(global_b, [ps.head_b for ps in sets], "head_b")
        global_params = ParamSet(glob.feature, glob.bn_mean, glob.bn_var, global_W, global_b)

    # every check has passed: the round goes into the rows
    for k, ps in enumerate(sets):
        ps.tables[0][:width] = glob.tables[0][:width]
        if shared_stats:
            ps.tables[1][...] = glob.tables[1]
        if keep_global:
            np.take(global_W, cols[k], axis=1, out=ps.head_W)
            np.take(global_b, cols[k], out=ps.head_b)
    return global_params, sets
