"""Experiment driver: local epochs, communication rounds, checkpointing.

One experiment trains K clients for floor(T/E) communication rounds of E
local epochs each.  The selected model is the round checkpoint with the
lowest mean local validation BCE.

Methods
-------
``METHOD_TABLE`` holds one row per method, as in the README "Methods"
table; the run reads every method difference from it:

surgical          narrow heads, per-class selective head aggregation
vanilla_fl        full-width heads, missing labels treated as negatives
fl_partial_loss   full-width heads, loss masked to each client's classes
pfl               feature aggregation only; personalised heads, no global model
centralized       all data concatenated (missing-as-negative), one model
individual        one standalone model per client, no communication

Every method that exchanges parameters aggregates through one rule,
:func:`surgfed.aggregation.server_update`; the row says over whom each
head column is merged.

Clients that share a shape (split sizes, head width and number of loss
columns) are stacked once per run into a lock-step group, each client's
state a view of its rows.  A round copies each group's parameters once,
trains the copy (one stacked pass per step), aggregates into its rows
and validates each group in one pass, so what a round hands out never
changes later.  Every client keeps its own loss columns and RNG stream,
so each one ends bitwise where training it alone would; groups train one
after another on one thread, and aggregation always walks clients in
index order.

Training (gathered rows, step buffers and gradients), validation and the
test forward pass never overlap: they share one :class:`surgfed.nn.Arena`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .aggregation import STRATEGIES, collect_bn_stats, mean_arrays, server_update  # noqa: F401
from .data import (
    LabeledSet,
    ScenarioData,
    ScenarioSpec,
    generate_synthetic,
    scatter_restricted,
    stats_split,
)
from .errors import ConfigError, NumericError, need_flag, need_int, need_number
from .metrics import EvalResult, TestPlan, evaluate, ibeta, paired_ttest, significance_stars
from .model import (
    ClientGroup,
    ClientState,
    head_warmup,
    init_model,
    local_train,
    validation_loss,
)
from .nn import Architecture, Arena, ParamSet, buffer_shapes, build_architecture, train_layout
from .registry import GROUP_NAMES, ClassRegistry


@dataclass(frozen=True)
class Method:
    """One row of the method table."""

    wide: bool          # head over all M classes, else one column per held class
    loss_mode: str      # "local_classes", or "all_classes_negatives": every head column
    heads: str          # contributors per head column: its "holders", "all" clients or "personal"
    global_model: bool  # a global model is scored each round and checkpointed
    exchanges: bool     # each round sends parameters through server_update and back

    @property
    def pooled(self) -> bool:
        """A global model that is never exchanged is trained on the pooled data."""
        return self.global_model and not self.exchanges


METHOD_TABLE = {
    #                         wide   loss_mode                heads       global exchanges
    "surgical":        Method(False, "local_classes",         "holders",  True,  True),
    "vanilla_fl":      Method(True,  "all_classes_negatives", "all",      True,  True),
    "fl_partial_loss": Method(True,  "local_classes",         "all",      True,  True),
    "pfl":             Method(False, "local_classes",         "personal", False, True),
    "centralized":     Method(True,  "all_classes_negatives", "all",      True,  False),
    "individual":      Method(False, "local_classes",         "personal", False, False),
}
METHODS = tuple(METHOD_TABLE)
# methods that keep one model per client and no global model
PERSONAL_METHODS = tuple(m for m, row in METHOD_TABLE.items() if not row.global_model)

_TAG_INIT, _TAG_SHUFFLE = 101, 102

# the largest epoch budget, T or warmup_epochs, a config may ask for
MAX_EPOCHS = 100_000


@dataclass(frozen=True)
class SeedBundle:
    init: int
    shuffle: int

    def __post_init__(self):
        object.__setattr__(self, "init", need_int(self.init, "init", 0))
        object.__setattr__(self, "shuffle", need_int(self.shuffle, "shuffle", 0))


def default_seeds(scenario_seed: int) -> SeedBundle:
    ss = np.random.SeedSequence([scenario_seed, _TAG_INIT]).generate_state(2)
    return SeedBundle(init=int(ss[0]), shuffle=int(ss[1]))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; identical configs give identical runs.

    Construction checks every field as :class:`ScenarioSpec` does, so a
    config built here and one parsed from JSON reject the same values,
    and rejects a run whose arrays would not fit in physical memory."""

    scenario: ScenarioSpec
    method: str
    strategy: str = "fedavg"
    T: int = 100
    E: int = 1
    lr: float = 0.01
    batch_size: int = 32
    warmup_epochs: int = 5
    warmup_lr: float = 0.01
    hidden: tuple[int, ...] = (32, 16)
    use_batchnorm: bool = True
    sample_weighted: bool = False
    seeds: SeedBundle | None = None

    def __post_init__(self):
        if not isinstance(self.scenario, ScenarioSpec):
            raise ConfigError("must be a ScenarioSpec", "scenario")
        if not isinstance(self.method, str) or self.method not in METHODS:
            raise ConfigError(f"must be one of {METHODS}, got {self.method!r}", "method")
        if not isinstance(self.strategy, str) or self.strategy not in STRATEGIES:
            raise ConfigError(f"must be one of {STRATEGIES}, got {self.strategy!r}", "strategy")
        if self.strategy == "fedbn" and self.method != "pfl":
            raise ConfigError("strategy 'fedbn' keeps no global model and is only valid with method 'pfl'")
        for name, low in (("T", 1), ("E", 1), ("batch_size", 1), ("warmup_epochs", 0)):
            object.__setattr__(self, name, need_int(getattr(self, name), name, low))
        for name in ("T", "warmup_epochs"):
            if getattr(self, name) > MAX_EPOCHS:
                raise ConfigError(f"must be at most {MAX_EPOCHS}", name)
        if self.T < self.E:
            raise ConfigError("T must be at least E (no round would ever complete)")
        for name in ("lr", "warmup_lr"):
            object.__setattr__(self, name, need_number(getattr(self, name), name))
            if getattr(self, name) <= 0.0:
                raise ConfigError("must be positive", name)
        if not isinstance(self.hidden, (list, tuple)):
            raise ConfigError("must be a list of layer widths", "hidden")
        widths = tuple(need_int(h, f"hidden[{i}]", 1) for i, h in enumerate(self.hidden))
        object.__setattr__(self, "hidden", widths)
        need_flag(self.use_batchnorm, "use_batchnorm")
        need_flag(self.sample_weighted, "sample_weighted")
        if self.seeds is not None and not isinstance(self.seeds, SeedBundle):
            raise ConfigError("must be a SeedBundle or None", "seeds")
        # client data, the test features and the arena, float64 but for the
        # int8 labels; rejected here, not by numpy mid-run.  An upper bound:
        # every label M wide, the arena M wide for any of its passes
        s, arch = self.scenario, self.architecture()
        arena = max(map(Arena.size, (
            buffer_shapes(arch, (s.n_test,), s.M), buffer_shapes(arch, (s.K * s.n_val,), s.M, loss=True),
            *train_layout(arch, s.K, s.n_train, s.M, self.batch_size).values())))
        need = (8 * (s.K * s.n_per_client * s.d + s.n_test * s.d + arena)
                + s.K * s.n_per_client * s.M + s.n_test * s.M)
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > have:
            raise ConfigError(f"needs an estimated {need / 2**30:,.1f} GiB of arrays, more than the "
                              f"{have / 2**30:,.1f} GiB of physical memory", "scenario")

    def resolved_seeds(self) -> SeedBundle:
        return self.seeds if self.seeds is not None else default_seeds(self.scenario.seed)

    def architecture(self) -> Architecture:
        return build_architecture(self.scenario.d, self.hidden, self.use_batchnorm)


@dataclass(frozen=True)
class RoundReport:
    """Per-round losses plus global-model test metrics when one exists."""

    round: int
    client_train_loss: tuple[float, ...]
    client_val_loss: tuple[float, ...]
    mean_val_loss: float
    test_mean_auroc: float | None
    test_per_class: tuple[float | None, ...] | None
    wall_time: float


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run.  ``realized`` is :meth:`ScenarioData.realized`
    of the data the run trained on, so its manifest needs no second draw.
    The run scored each kept model once, over every class: ``best_eval``
    (the best round's global model) and ``client_evals``.  Subsets are cut
    from them with ``groups``, the sharing-profile classes; the test set
    is not kept."""

    method: str
    config: ExperimentConfig
    arch: Architecture
    registry: ClassRegistry
    groups: dict[str, tuple[int, ...]]
    realized: dict
    reports: tuple[RoundReport, ...]
    best_round: int
    global_params: ParamSet | None
    client_params: tuple[ParamSet, ...] | None
    client_classes: tuple[tuple[int, ...], ...]
    best_eval: EvalResult | None
    client_evals: tuple[EvalResult, ...] | None

    def global_eval(self, class_subset=None) -> EvalResult:
        if self.global_params is None:
            raise ConfigError(f"method {self.method!r} keeps no global model")
        return self.best_eval if class_subset is None else self.best_eval.restrict(class_subset, self.groups)

    def client_eval(self, k: int, class_subset=None) -> EvalResult:
        if self.client_params is None:
            raise ConfigError(f"method {self.method!r} keeps no per-client models")
        ev = self.client_evals[k]
        return ev if class_subset is None else ev.restrict(class_subset, self.groups)


def _build_clients(data: ScenarioData, cfg: ExperimentConfig, arch: Architecture) -> list[ClientState]:
    """One client per site, with the head width of the method's table
    row, or one client on every site's data pooled.  Every head column
    is drawn once, in one M-column init; each client starts from copies
    of its feature tensors and of its own head columns, bitwise what
    :func:`init_model` draws for the client's class ids.  The row's
    ``loss_mode`` fixes each client's loss columns here."""
    row = METHOD_TABLE[cfg.method]
    seeds = cfg.resolved_seeds()
    M = data.registry.n_classes
    init = init_model(arch, M, seeds.init, class_ids=range(M))
    sites = []
    for cd in data.clients:
        if row.wide:
            train = LabeledSet(cd.train.x, scatter_restricted(cd.train.y, cd.classes, M))
            val = LabeledSet(cd.val.x, scatter_restricted(cd.val.y, cd.classes, M))
            sites.append((cd.classes, train, val))
        else:
            sites.append((cd.classes, cd.train, cd.val))
    if row.pooled:
        sites = [(
            tuple(range(M)),
            LabeledSet(np.vstack([t.x for _, t, _ in sites]), np.vstack([t.y for _, t, _ in sites])),
            LabeledSet(np.vstack([v.x for _, _, v in sites]), np.vstack([v.y for _, _, v in sites])),
        )]
    loss_cols = tuple(range(M)) if row.loss_mode == "all_classes_negatives" else None
    return [ClientState(id=k, arch=arch, params=init.copy(None if row.wide else classes), classes=classes,
                        train=train, val=val, rng=np.random.default_rng([seeds.shuffle, k]), loss_cols=loss_cols)
            for k, (classes, train, val) in enumerate(sites)]


def _head_registry(row: Method, registry: ClassRegistry) -> ClassRegistry | None:
    """Who contributes to each head column in ``server_update``: the
    class registry, a registry in which every client holds all M
    columns, or None for personal heads."""
    if row.heads == "holders":
        return registry
    if row.heads == "all":
        return ClassRegistry(registry.global_classes, [range(registry.n_classes)] * registry.n_clients)
    return None


def _client_groups(clients) -> list[ClientGroup]:
    """Clients that can train in lock-step, stacked, in order of their
    first member's id."""
    groups: dict[tuple, list[ClientState]] = {}
    for c in clients:
        groups.setdefault((c.train.n, c.val.n, c.params.head_cols, len(c.loss_cols)), []).append(c)
    return [ClientGroup(g) for g in groups.values()]


def _train_all(groups, epochs, lr, batch_size) -> None:
    for g in groups:
        local_train(g, epochs, lr, batch_size)


# perfbench/tracer.py wraps these names and mean_arrays here; they go once
# the tracer is re-pointed (ROADMAP item 1).  Every method aggregates
# through server_update.
_full_fedavg_update = _pfl_update = server_update


def run_experiment(config: ExperimentConfig, parallel: int = 1, round_hook=None) -> RunResult:
    """Run one experiment end to end on one thread; ``parallel`` is
    checked (at least 1) and changes nothing.  ``round_hook(round,
    global_params, clients)`` is called after every communication round.
    A :class:`NumericError` leaves with the round it happened in (0 for
    the warmup) in its ``round`` and its message."""
    need_int(parallel, "parallel", 1)
    row = METHOD_TABLE[config.method]
    data = generate_synthetic(config.scenario)
    arch = config.architecture()
    registry = data.registry
    M = registry.n_classes
    clients = _build_clients(data, config, arch)
    head_registry = _head_registry(row, registry)
    weights = [c.train.n for c in clients] if config.sample_weighted else None

    pretrained_bn = None
    if config.strategy == "fedbn_plus" and row.exchanges and row.global_model:
        # batch-norm inputs come from the feature extractor alone, and every
        # client starts from the same one
        pretrained_bn = collect_bn_stats(clients[0].params, arch, stats_split(config.scenario))

    # the run reads only the clients, the test set and `realized` from here
    # on: labels or features the clients copied go before the arena exists
    test, realized = data.test, data.realized()
    del data
    groups = _client_groups(clients)  # each client's state is a view of its group's rows from here on
    # one buffer for every pass that writes arrays with a sample axis or gradients;
    # the test passes score the global model each round or each client's best once
    test_shapes = {w: buffer_shapes(arch, (config.scenario.n_test,), w)
                   for w in ([M] if row.global_model else [c.params.head_cols for c in clients])}
    arena = Arena(*test_shapes.values(),
                  *(s for g in groups for s in [*g.step_shapes(config.batch_size).values(), g.val_shapes()]))
    for g in groups:
        g.arena = arena
    reports: list[RoundReport] = []
    best_val = np.inf
    best_round = 0
    best_global, best_eval = None, None  # the best round's global model and its score
    best_clients: list[ParamSet] | None = None

    r = 0  # the round a NumericError is reported in; 0 is the warmup
    try:
        for g in groups:
            head_warmup(g, config.warmup_epochs, config.warmup_lr, config.batch_size)
        # after the warmup, since perfbench's setup_s ends where the warmup starts
        plan = TestPlan(test, registry)
        del test

        for r in range(1, config.T // config.E + 1):
            t0 = time.perf_counter()
            _train_all(groups, config.E, config.lr, config.batch_size)

            if row.exchanges:  # into the rows each group trained this round
                global_params, _ = server_update(clients, head_registry, config.strategy, pretrained_bn, weights)
            else:
                global_params = clients[0].params if row.global_model else None

            val = {c.id: v for g in groups for c, v in zip(g, validation_loss(g, arena).tolist())}
            val_losses = tuple(val[c.id] for c in clients)
            mean_val = float(np.mean(val_losses))
            ev = None if global_params is None else evaluate(
                global_params, arch, range(M), plan, bufs=arena.views(test_shapes[M]))
            reports.append(
                RoundReport(
                    round=r,
                    client_train_loss=tuple(c.last_train_loss for c in clients),
                    client_val_loss=val_losses,
                    mean_val_loss=mean_val,
                    test_mean_auroc=None if ev is None else ev.mean_auroc,
                    test_per_class=None if ev is None else tuple(ev.per_class.values()),
                    wall_time=time.perf_counter() - t0,
                )
            )
            if round_hook is not None:
                round_hook(r, global_params, clients)
            if mean_val < best_val:
                best_val = mean_val
                best_round = r
                # no copies: nothing writes a round's parameters after it
                if row.global_model:
                    best_global, best_eval = global_params, ev
                else:
                    best_clients = [c.params for c in clients]
    except NumericError as exc:
        raise NumericError(f"{exc} in round {r}", exc.layer, exc.client, r) from exc

    client_evals = None if best_clients is None else tuple(
        evaluate(ps, arch, c.classes, plan, bufs=arena.views(test_shapes[ps.head_cols]))
        for ps, c in zip(best_clients, clients)
    )
    return RunResult(
        method=config.method,
        config=config,
        arch=arch,
        registry=registry,
        groups=plan.groups,
        realized=realized,
        reports=tuple(reports),
        best_round=best_round,
        global_params=best_global,
        client_params=tuple(best_clients) if best_clients else None,
        client_classes=tuple(c.classes for c in clients),
        best_eval=best_eval,
        client_evals=client_evals,
    )


# --- suites -----------------------------------------------------------------

SUITE_GROUPS = ("all", *GROUP_NAMES)


@dataclass(frozen=True)
class GroupStats:
    mean: float | None
    sd: float | None
    n: int
    p: float | None
    stars: str


@dataclass(frozen=True)
class SuiteRow:
    label: str
    method: str
    is_reference: bool
    failed: bool
    groups: dict[str, GroupStats]


@dataclass(frozen=True)
class SuiteResult:
    rows: tuple[SuiteRow, ...]
    reference: str
    class_names: tuple[str, ...]


def _per_class_vector(result: RunResult) -> dict[int, float | None]:
    """Per-class test AUROC for one run.  Personalised/individual methods
    have no single model, so each class is scored by averaging the
    owning clients' models (a class held by one client is simply that
    client's score)."""
    if result.global_params is not None:
        return dict(result.global_eval().per_class)
    per_class: dict[int, list[float]] = {c: [] for c in range(result.registry.n_classes)}
    for k, classes in enumerate(result.client_classes):
        for c, v in result.client_eval(k, classes).per_class.items():
            if v is not None:
                per_class[c].append(v)
    return {c: (float(np.mean(v)) if v else None) for c, v in per_class.items()}


def run_suite(configs, reference: str = "surgical"):
    """Run several methods on comparable scenarios and build one table.

    Returns ``(SuiteResult, list[RunResult | None])``; a member that
    raises is recorded as a failed row with empty stats.  Group means
    come with the sample SD across classes and a paired t-test against
    the reference method over the classes both runs define.
    """
    configs = list(configs)
    if not configs:
        raise ConfigError("suite needs at least one member config")
    if reference not in [c.method for c in configs]:
        raise ConfigError(f"reference method {reference!r} is not among the suite members")
    ibeta()  # the t-tests need it: a broken scipy fails before training, inside setup_s

    results: list[RunResult | None] = []
    errors: list[str | None] = []
    for cfg in configs:
        try:
            results.append(run_experiment(cfg))
            errors.append(None)
        except Exception as exc:  # member failure must not sink the suite
            results.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")

    ref_idx = next(
        (i for i, cfg in enumerate(configs) if cfg.method == reference and results[i] is not None),
        None,
    )
    if ref_idx is None:
        raise ConfigError("the reference run failed; no comparison is possible")
    ref_result = results[ref_idx]
    ref_vector = _per_class_vector(ref_result)
    group_classes = {"all": tuple(range(ref_result.registry.n_classes)), **ref_result.groups}

    seen: dict[str, int] = {}
    rows = []
    for i, cfg in enumerate(configs):
        count = seen.get(cfg.method, 0)
        seen[cfg.method] = count + 1
        label = cfg.method if count == 0 else f"{cfg.method}#{count + 1}"
        if results[i] is None:
            rows.append(
                SuiteRow(
                    label=label, method=cfg.method, is_reference=False, failed=True,
                    groups={g: GroupStats(None, None, 0, None, "failed") for g in SUITE_GROUPS},
                )
            )
            continue
        vector = _per_class_vector(results[i])
        is_ref = i == ref_idx
        groups = {}
        for gname in SUITE_GROUPS:
            classes = group_classes[gname]
            vals = [vector[c] for c in classes if vector[c] is not None]
            mean = float(np.mean(vals)) if vals else None
            sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else (0.0 if vals else None)
            if is_ref:
                p, stars = None, "ref"
            else:
                paired = [
                    (vector[c], ref_vector[c])
                    for c in classes
                    if vector[c] is not None and ref_vector[c] is not None
                ]
                if len(paired) >= 2:
                    tt = paired_ttest([a for a, _ in paired], [b for _, b in paired])
                    p, stars = tt.p, significance_stars(tt.p)
                else:
                    p, stars = None, "NA"
            groups[gname] = GroupStats(mean=mean, sd=sd, n=len(vals), p=p, stars=stars)
        rows.append(SuiteRow(label=label, method=cfg.method, is_reference=is_ref, failed=False, groups=groups))

    suite = SuiteResult(
        rows=tuple(rows), reference=reference,
        class_names=ref_result.registry.global_classes,
    )
    return suite, results
