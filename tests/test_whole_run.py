"""A whole run against a slow reference written from per-client pieces.

The reference draws the scenario with ``generate_synthetic``, starts
each client from ``init_model``, trains one client and one batch at a
time through ``reference_kernel``, averages every tensor with
``mean_arrays`` over the clients and each head column over the clients
that hold it, validates each client with its own eval pass, scores the
global model with the scalar ``auroc`` and keeps the round of lowest
mean validation loss.  Nothing in it stacks clients, shares buffers or
walks a class registry's tables, so a run that stores, groups or
aggregates its clients differently must still give its bytes.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from surgfed import (
    STRATEGIES,
    ConfigError,
    auroc,
    collect_bn_stats,
    generate_synthetic,
    init_model,
    mean_arrays,
    run_experiment,
    save_checkpoint,
    scatter_restricted,
    stats_split,
)
from surgfed.cli import _write_run_outputs, build_manifest, config_to_dict, manifest_hash, write_rounds_csv
from surgfed.nn import ParamSet

import reference_kernel
from conftest import experiment_configs

WIDE = ("vanilla_fl", "fl_partial_loss", "centralized")  # heads over all M classes
ALL_COLUMNS = ("vanilla_fl", "centralized")  # a missing label is a negative
GLOBAL = ("surgical", "vanilla_fl", "fl_partial_loss", "centralized")
EXCHANGING = ("surgical", "vanilla_fl", "fl_partial_loss", "pfl")
RUNS = [(m, s) for m in ("surgical", "vanilla_fl", "fl_partial_loss", "pfl", "centralized", "individual")
        for s in STRATEGIES if s != "fedbn" or m == "pfl"]


def _clients(cfg, data):
    """One (classes, train x, train y, val x, val y) per client: labels
    cut to the client's classes, scattered to M columns for wide heads,
    or every site pooled into one client for ``centralized``."""
    M = cfg.scenario.M
    sites = []
    for cd in data.clients:
        ys = [cd.train.y, cd.val.y]
        if cfg.method in WIDE:
            ys = [scatter_restricted(y, cd.classes, M) for y in ys]
        sites.append((cd.classes, cd.train.x, ys[0], cd.val.x, ys[1]))
    if cfg.method == "centralized":
        sites = [(tuple(range(M)), *(np.vstack([s[i] for s in sites]) for i in range(1, 5)))]
    return sites


def _mean(values, weights):
    return mean_arrays(values, None if weights is None else list(weights))


def _aggregate(cfg, params, classes, weights, pretrained):
    """One server round: every feature tensor averaged over all clients,
    statistics averaged (fedavg) or kept, each head column averaged over
    the clients whose head holds it, then each client's head cut back.
    Returns the global model (or None) and the new client parameters."""
    K, M = len(params), cfg.scenario.M
    feature = {key: _mean([ps.feature[key] for ps in params], weights) for key in sorted(params[0].feature)}
    if cfg.strategy == "fedavg":
        stats = [{i: _mean([ps.bn_mean[i] for ps in params], weights) for i in sorted(params[0].bn_mean)},
                 {i: _mean([ps.bn_var[i] for ps in params], weights) for i in sorted(params[0].bn_var)}]
        kept = [stats] * K
    else:
        kept = [[ps.bn_mean, ps.bn_var] for ps in params]
        stats = pretrained
    if cfg.method == "pfl":
        heads = [(ps.head_W, ps.head_b) for ps in params]
        glob = None
    else:
        # column j of client k's head is class held[k][j]
        held = [list(range(M)) if cfg.method in WIDE else list(cs) for cs in classes]
        W, b = np.empty((params[0].head_W.shape[0], M)), np.empty(M)
        for c in range(M):
            holders = [k for k in range(K) if c in held[k]]
            w = None if weights is None else [weights[k] for k in holders]
            W[:, c] = _mean([params[k].head_W[:, held[k].index(c)] for k in holders], w)
            b[c] = _mean([params[k].head_b[held[k].index(c):held[k].index(c) + 1] for k in holders], w)[0]
        heads = [(np.ascontiguousarray(W[:, cols]), b[cols]) for cols in held]
        glob = ParamSet(feature, *stats, W, b)
    new = [ParamSet(feature, *own, *head).copy() for own, head in zip(kept, heads)]
    return glob, new


def _score(params, arch, test, M):
    """Each class's AUROC from one eval pass, and their mean."""
    _, p, _ = reference_kernel.forward(params, arch, test.x, False)
    per_class = [auroc(p[:, c], test.y[:, c]) for c in range(M)]
    defined = [v for v in per_class if v is not None]
    return (float(np.mean(defined)) if defined else None), tuple(per_class)


def oracle_run(cfg):
    """``run_experiment``'s reports, best round and kept parameters,
    computed one client and one batch at a time."""
    spec, arch, seeds = cfg.scenario, cfg.architecture(), cfg.resolved_seeds()
    M = spec.M
    data = generate_synthetic(spec)
    sites = _clients(cfg, data)
    classes = [s[0] for s in sites]
    wide = cfg.method in WIDE
    params = [init_model(arch, M if wide else len(cs), seeds.init, class_ids=range(M) if wide else cs)
              for cs in classes]
    rngs = [np.random.default_rng([seeds.shuffle, k]) for k in range(len(sites))]
    # the loss columns of each head: every column, or those of the client's classes
    cols = [None if cfg.method in ALL_COLUMNS or ps.head_cols == len(cs) else np.array(cs)
            for ps, cs in zip(params, classes)]
    weights = [len(s[1]) for s in sites] if cfg.sample_weighted else None
    pretrained = None
    if cfg.strategy == "fedbn_plus" and cfg.method in GLOBAL and cfg.method in EXCHANGING:
        pretrained = list(collect_bn_stats(params[0], arch, stats_split(spec)))

    for k, (_, x, y, _, _) in enumerate(sites):
        if cfg.warmup_epochs:
            reference_kernel.train(params[k], arch, x, y, rngs[k], cfg.warmup_epochs, cfg.warmup_lr,
                                   cfg.batch_size, cols[k], frozenset({"feature_extractor"}))
    reports, best = [], (np.inf, 0, None)
    for r in range(1, cfg.T // cfg.E + 1):
        train_loss = tuple(
            float(np.mean(reference_kernel.train(params[k], arch, x, y, rngs[k], cfg.E, cfg.lr,
                                                 cfg.batch_size, cols[k])))
            for k, (_, x, y, _, _) in enumerate(sites))
        glob = params[0] if cfg.method == "centralized" else None
        if cfg.method in EXCHANGING:
            glob, params = _aggregate(cfg, params, classes, weights, pretrained)
        val_loss = tuple(
            float(reference_kernel.loss(reference_kernel.forward(ps, arch, vx, False)[1], vy, c))
            for ps, (_, _, _, vx, vy), c in zip(params, sites, cols))
        mean_val = float(np.mean(val_loss))
        mean_auroc, per_class = (None, None) if glob is None else _score(glob, arch, data.test, M)
        reports.append(SimpleNamespace(round=r, client_train_loss=train_loss, client_val_loss=val_loss,
                                       mean_val_loss=mean_val, test_mean_auroc=mean_auroc,
                                       test_per_class=per_class))
        if mean_val < best[0]:
            kept = [glob] if glob is not None else params
            best = (mean_val, r, [ps.copy() for ps in kept])
    return SimpleNamespace(reports=reports, best_round=best[1], kept=best[2], classes=classes,
                           registry=data.registry, has_global=cfg.method in GLOBAL)


def _files(out):
    return {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("method,strategy", RUNS)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_a_run_writes_the_bytes_of_the_per_client_reference(method, strategy, data, tmp_path_factory) -> None:
    """``rounds.csv`` and every checkpoint a run writes are byte for byte
    those written from the reference run of the same config."""
    cfg = data.draw(experiment_configs(method, strategy), label="config")
    try:
        want = oracle_run(cfg)
    except ConfigError:  # the draw gave a split without both labels of a class
        reject()
    got_dir, want_dir = tmp_path_factory.mktemp("run"), tmp_path_factory.mktemp("oracle")
    result = run_experiment(cfg)
    _write_run_outputs(got_dir, result, build_manifest(result))
    want_result = SimpleNamespace(client_classes=want.classes, registry=want.registry, reports=want.reports)
    write_rounds_csv(want_dir / "rounds.csv", want_result, manifest_hash(config_to_dict(cfg)))
    for k, ps in enumerate(want.kept):
        save_checkpoint(ps, want_dir / ("checkpoint.csv" if want.has_global else f"checkpoint_client{k}.csv"))
    assert result.best_round == want.best_round
    assert _files(got_dir) == _files(want_dir)
