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
passes through bit-exactly.

All means follow one sequential rule, that of :func:`mean_arrays`, so
the same inputs give bit-identical results on every code path.  The head
merge applies it to all classes at once: it walks the clients in index
order and scatters each head's columns into (feature, M) accumulators,
assigning a column at its first holder and adding it at every later
one, then divides each column by its holder count or weight total.
:func:`fedavg_full` and :func:`fedavg_feature` average whole parameter
sets tensor by tensor; they are the independent FedAvg reference the
tests compare :func:`server_update` against.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractViolation
from .nn import Architecture, ParamSet, forward
from .registry import ClassRegistry, clients_with_class

STRATEGIES = ("fedavg", "fedbn", "fedbn_plus")


def mean_arrays(arrays, weights=None) -> np.ndarray:
    """Mean of equally-shaped arrays with a fixed left-to-right
    accumulation order (index order = client order)."""
    if len(arrays) == 0:
        raise ConfigError("cannot average an empty list")
    if weights is None:
        acc = np.array(arrays[0], dtype=np.float64, copy=True)
        for a in arrays[1:]:
            acc += a
        acc /= len(arrays)
        return acc
    weights = [float(w) for w in weights]
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


def _check_same_feature_keys(param_sets) -> None:
    keys = set(param_sets[0].feature)
    for ps in param_sets[1:]:
        if set(ps.feature) != keys:
            raise ContractViolation("clients disagree on feature parameter names")


def fedavg_feature(param_sets, weights=None):
    """Average every feature tensor, including batch-norm gamma/beta and
    the running statistics.  Returns ``(feature, bn_mean, bn_var)``."""
    if not param_sets:
        raise ConfigError("no clients to aggregate")
    _check_same_feature_keys(param_sets)
    feature = {
        k: mean_arrays([ps.feature[k] for ps in param_sets], weights)
        for k in sorted(param_sets[0].feature)
    }
    bn_mean = {
        i: mean_arrays([ps.bn_mean[i] for ps in param_sets], weights)
        for i in sorted(param_sets[0].bn_mean)
    }
    bn_var = {
        i: mean_arrays([ps.bn_var[i] for ps in param_sets], weights)
        for i in sorted(param_sets[0].bn_var)
    }
    return feature, bn_mean, bn_var


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
    ascending client order; the bias travels with its column.  Every
    column is bitwise what :func:`mean_arrays` gives on its holders'
    columns.
    """
    if len(heads) != registry.n_clients:
        raise ContractViolation("one head per registry client required")
    n_feat = None
    for k, (W, b, classes) in enumerate(heads):
        classes = tuple(classes)
        if classes != registry.client_classes[k]:
            raise ContractViolation(f"head {k} classes do not match the registry")
        if W.shape[1] != len(classes) or b.shape != (len(classes),):
            raise ContractViolation(f"head {k} width does not match its class list")
        if n_feat is None:
            n_feat = W.shape[0]
        elif W.shape[0] != n_feat:
            raise ContractViolation("heads disagree on feature width")
    M = registry.n_classes
    if weights is None:
        divisor = np.array([len(ks) for ks in registry.holders], dtype=np.float64)
    else:
        weights = [float(w) for w in weights]
        if len(weights) != registry.n_clients:
            raise ConfigError("one weight per client required")
        # the builtin sum over each class's holders, as mean_arrays takes it
        divisor = np.array([
            sum([weights[k] for k in clients_with_class(registry, c)]) for c in range(M)
        ])
        if np.any(divisor <= 0.0):
            raise ConfigError("weights must sum to a positive value")
    global_W = np.empty((n_feat, M))
    global_b = np.empty(M)
    seen = np.zeros(M, dtype=bool)
    for k, (W, b, _) in enumerate(heads):
        if weights is not None:
            W, b = W * weights[k], b * weights[k]
        cols = np.asarray(registry.client_classes[k])
        later = seen[cols]
        # a first holder's column is copied, never added to zero: 0.0 + -0.0 is +0.0
        first = ~later
        global_W[:, cols[first]] = W[:, first]
        global_b[cols[first]] = b[first]
        global_W[:, cols[later]] += W[:, later]
        global_b[cols[later]] += b[later]
        seen[cols] = True
    global_W /= divisor
    global_b /= divisor
    return global_W, global_b


def reconstruct_client_head(global_W, global_b, registry: ClassRegistry, k: int):
    """Client k's head: the global columns for its classes, in sorted
    class order (copies, not views)."""
    if not 0 <= k < registry.n_clients:
        raise ConfigError(f"client index {k} out of range")
    if global_W.shape[1] != registry.n_classes or global_b.shape != (registry.n_classes,):
        raise ContractViolation("global head width does not match the registry")
    cols = list(registry.client_classes[k])
    return global_W[:, cols].copy(), global_b[cols].copy()


def fedavg_full(param_sets, weights=None) -> ParamSet:
    """Plain federated averaging of entire parameter sets (heads must all
    have the same width).  This is the classical baseline aggregation and
    is kept as an independent path from the per-class merge."""
    if not param_sets:
        raise ConfigError("no clients to aggregate")
    width = param_sets[0].head_cols
    for ps in param_sets[1:]:
        if ps.head_cols != width:
            raise ContractViolation("fedavg_full needs equal head widths")
    feature, bn_mean, bn_var = fedavg_feature(param_sets, weights)
    head_W = mean_arrays([ps.head_W for ps in param_sets], weights)
    head_b = mean_arrays([ps.head_b for ps in param_sets], weights)
    return ParamSet(feature=feature, bn_mean=bn_mean, bn_var=bn_var, head_W=head_W, head_b=head_b)


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

    Returns ``(global ParamSet or None, sendbacks)``: one fresh parameter
    set per client, holding the averaged feature tensors, the statistics
    it keeps and its slice of the global head (its own head when heads
    are personal).
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    keep_global = registry is not None
    if strategy == "fedbn" and keep_global:
        raise ConfigError("strategy 'fedbn' emits no global model; use it with the pfl method only")
    if strategy == "fedbn_plus" and keep_global and pretrained_bn is None:
        raise ConfigError("fedbn_plus requires pretrained batch-norm statistics")
    param_sets = [c.params for c in clients]
    if not param_sets:
        raise ConfigError("no clients to aggregate")
    _check_same_feature_keys(param_sets)
    if keep_global:
        if len(param_sets) != registry.n_clients:
            raise ContractViolation("one client state per registry client required")
        for k, (c, ps) in enumerate(zip(clients, param_sets)):
            cols = registry.client_classes[k]
            if not set(c.classes) <= set(cols):
                raise ContractViolation(f"client {k} classes do not match the registry")
            if ps.head_cols != len(cols):
                raise ContractViolation(f"client {k} head width does not match the registry")

    feature = {
        k: mean_arrays([ps.feature[k] for ps in param_sets], weights)
        for k in sorted(param_sets[0].feature)
    }
    shared_stats = strategy == "fedavg"
    if shared_stats:
        bn_mean = {
            i: mean_arrays([ps.bn_mean[i] for ps in param_sets], weights)
            for i in sorted(param_sets[0].bn_mean)
        }
        bn_var = {
            i: mean_arrays([ps.bn_var[i] for ps in param_sets], weights)
            for i in sorted(param_sets[0].bn_var)
        }
    elif keep_global:
        mean_stats, var_stats = pretrained_bn
        for i in param_sets[0].bn_mean:
            if i not in mean_stats or i not in var_stats:
                raise ConfigError(f"pretrained statistics missing for batch-norm layer {i}")
        bn_mean = {i: mean_stats[i].copy() for i in sorted(param_sets[0].bn_mean)}
        bn_var = {i: var_stats[i].copy() for i in sorted(param_sets[0].bn_var)}

    global_params = None
    if keep_global:
        heads = [(ps.head_W, ps.head_b, registry.client_classes[k]) for k, ps in enumerate(param_sets)]
        global_W, global_b = surgical_head_update(heads, registry, weights)
        global_params = ParamSet(
            feature=feature, bn_mean=bn_mean, bn_var=bn_var, head_W=global_W, head_b=global_b,
        )

    sendbacks = []
    for k, ps in enumerate(param_sets):
        if keep_global:
            head_W, head_b = reconstruct_client_head(global_W, global_b, registry, k)
        else:
            head_W, head_b = ps.head_W.copy(), ps.head_b.copy()
        own_mean, own_var = (bn_mean, bn_var) if shared_stats else (ps.bn_mean, ps.bn_var)
        sendbacks.append(
            ParamSet(
                feature={key: v.copy() for key, v in feature.items()},
                bn_mean={i: v.copy() for i, v in own_mean.items()},
                bn_var={i: v.copy() for i, v in own_var.items()},
                head_W=head_W,
                head_b=head_b,
            )
        )
    return global_params, sendbacks
