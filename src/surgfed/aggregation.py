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

All means are one rule, FedAvg's weighted mean as :func:`mean_arrays`
sums it, left to right in client order; no weights means unit weights,
which give the plain mean bit for bit.  It averages all feature tensors
as one row per client, and all statistics as another.  The head merge
applies it to all classes at once: it walks the clients in order,
scatters each weighted head's columns into (feature, M) accumulators
(assigned at a column's first holder, added at every later one) and
their weights into per-class totals, then divides.
The independent FedAvg reference, whole parameter sets averaged tensor
by tensor, lives in the tests, which compare :func:`server_update`
against it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractViolation, NumericError
from .nn import Architecture, ParamSet, forward, grad_views
# perfbench/tracer.py wraps clients_with_class under this module's name
from .registry import ClassRegistry, clients_with_class  # noqa: F401

STRATEGIES = ("fedavg", "fedbn", "fedbn_plus")


def mean_arrays(arrays, weights=None) -> np.ndarray:
    """Weighted mean of equally-shaped arrays, summed left to right
    (index order = client order).  No weights means unit weights, the
    plain mean bit for bit: ``x * 1.0`` is ``x``, a sum of n ones is n."""
    if len(arrays) == 0:
        raise ConfigError("cannot average an empty list")
    weights = [1.0] * len(arrays) if weights is None else [float(w) for w in weights]
    if len(weights) != len(arrays):
        raise ConfigError("one weight per array required")
    total = sum(weights)
    if total <= 0.0:
        raise ConfigError("weights must sum to a positive value")
    acc = np.array(arrays[0], dtype=np.float64, copy=True) * weights[0]
    for a, w in zip(arrays[1:], weights[1:]):
        acc += a * w
    acc /= total
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
    the bias travels with its column.  Every column is bitwise what
    :func:`mean_arrays` gives on its holders' columns.
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
    M = registry.n_classes
    weights = [1.0] * len(heads) if weights is None else [float(w) for w in weights]
    if len(weights) != registry.n_clients:
        raise ConfigError("one weight per client required")
    global_W, global_b = np.empty((n_feat, M)), np.empty(M)
    divisor = np.zeros(M)  # per-class weight totals, summed in client order
    seen = np.zeros(M, dtype=bool)
    for k, ((W, b, _), w) in enumerate(zip(heads, weights)):
        W, b = W * w, b * w
        cols = np.asarray(registry.client_classes[k])
        later = seen[cols]
        # a first holder's column is copied, never added to zero: 0.0 + -0.0 is +0.0
        first = ~later
        global_W[:, cols[first]] = W[:, first]
        global_b[cols[first]] = b[first]
        global_W[:, cols[later]] += W[:, later]
        global_b[cols[later]] += b[later]
        divisor[cols] += w
        seen[cols] = True
    if np.any(divisor <= 0.0):
        raise ConfigError("weights must sum to a positive value")
    global_W /= divisor
    global_b /= divisor
    return global_W, global_b


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
        for k, (c, ps) in enumerate(zip(clients, sets)):
            cols = registry.client_classes[k]
            if not set(c.classes) <= set(cols):
                raise ContractViolation(f"client {k} classes do not match the registry")
            if ps.head_cols != len(cols):
                raise ContractViolation(f"client {k} head width does not match the registry")

    # the averages, in rows laid out as client 0's; features and statistics
    # are each averaged as one row, then every tensor is checked
    glob = grad_views(sets[0], *(np.empty(t.size) for t in sets[0].tables))
    width = glob.feature_width
    glob.tables[0][:width] = mean_arrays([ps.tables[0][:width] for ps in sets], weights)
    shared_stats = strategy == "fedavg"
    if shared_stats:
        glob.tables[1][...] = mean_arrays([ps.tables[1] for ps in sets], weights)
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
        heads = [(ps.head_W, ps.head_b, registry.client_classes[k]) for k, ps in enumerate(sets)]
        global_W, global_b = surgical_head_update(heads, registry, weights)
        _need_finite(global_W, [ps.head_W for ps in sets], "head_W")
        _need_finite(global_b, [ps.head_b for ps in sets], "head_b")
        global_params = ParamSet(glob.feature, glob.bn_mean, glob.bn_var, global_W, global_b)

    # every check has passed: the round goes into the rows
    for k, ps in enumerate(sets):
        ps.tables[0][:width] = glob.tables[0][:width]
        if shared_stats:
            ps.tables[1][...] = glob.tables[1]
        if keep_global:
            np.take(global_W, registry.client_classes[k], axis=1, out=ps.head_W)
            np.take(global_b, registry.client_classes[k], out=ps.head_b)
    return global_params, sets
