"""Command-line front end.

Subcommands::

    surgfed run <config.json> --out <dir>       one experiment
    surgfed suite <suite.json> --out <dir>      several methods, one table
    surgfed ablation <clients|shared> --out <dir>   scenario ladders

Global options: ``--seed`` replaces every seed in the config
deterministically, ``--parallel-clients`` trains lock-step client groups
on worker threads (bit-identical results).  The ``SURGFED_OUT_DIR``
environment variable overrides the output directory of any subcommand.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration.
Every CSV row carries the manifest hash of the run that produced it, so
mixed-up outputs are detectable.  Floats are written with 17 significant
digits; reruns of the same config are byte-identical (timing lives only
in result.json).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import (  # noqa: F401 (perfbench/tracer.py wraps generate_synthetic here)
    ScenarioSpec,
    effect_of_clients_scenarios,
    effect_of_shared_classes_scenarios,
    generate_synthetic,
)
from .errors import ConfigError
from .metrics import EvalResult
from .model import save_checkpoint
from .registry import ClassRegistry
from .simulator import (
    METHODS,
    PERSONAL_METHODS,
    ExperimentConfig,
    RunResult,
    SeedBundle,
    run_experiment,
    run_suite,
)

OUT_DIR_ENV = "SURGFED_OUT_DIR"
ABLATION_KINDS = ("clients", "shared")
ABLATION_METHODS = ("surgical", "vanilla_fl", "fl_partial_loss", "centralized")

# ladder runs get a short budget, so they use a larger step size than the
# package default to reach a regime where the methods separate cleanly
ABLATION_LR = 0.05


# --- config file handling ---------------------------------------------------

_SCENARIO_KEYS = {
    "n_per_client", "d", "M", "K", "seed", "assignment", "shared_count",
    "unique_count", "skew", "shift_sigma", "label_noise", "n_test", "val_fraction",
}
_CONFIG_KEYS = {
    "scenario", "method", "strategy", "T", "E", "lr", "batch_size",
    "warmup_epochs", "warmup_lr", "hidden", "use_batchnorm", "sample_weighted", "seeds",
}
_REQUIRED_SCENARIO = ("n_per_client", "d", "M", "K", "seed")


def _is_int64(v) -> bool:
    """An integer (not a bool) that fits in a signed 64-bit integer."""
    return isinstance(v, int) and not isinstance(v, bool) and -2**63 <= v < 2**63


def _need_int(obj, key: str, path: str) -> int:
    v = obj[key]
    if not _is_int64(v):
        raise ConfigError(f"field {path}.{key} must be an integer that fits in 64 bits")
    return v


def _opt_number(obj, key: str, path: str, default):
    if key not in obj or obj[key] is None:
        return default
    v = obj[key]
    error = ConfigError(f"field {path}.{key} must be a finite number")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise error
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        raise error from None
    if not np.isfinite(v):
        raise error
    return v


def _opt_bool(obj, key: str, path: str, default: bool) -> bool:
    v = obj.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"field {path}.{key} must be true or false")
    return v


def _opt_int(obj, key: str, path: str, default):
    if key not in obj or obj[key] is None:
        return default
    return _need_int(obj, key, path)


def parse_scenario(obj, path: str = "scenario") -> ScenarioSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"field {path} must be an object")
    unknown = set(obj) - _SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"unknown field {path}.{sorted(unknown)[0]}")
    for key in _REQUIRED_SCENARIO:
        if key not in obj:
            raise ConfigError(f"missing required field {path}.{key}")
    assignment = obj.get("assignment")
    if assignment is not None:
        if not isinstance(assignment, list) or not all(
            isinstance(cs, list) and all(_is_int64(c) for c in cs)
            for cs in assignment
        ):
            raise ConfigError(f"field {path}.assignment must be a list of class-index lists")
        assignment = tuple(tuple(cs) for cs in assignment)
    return ScenarioSpec(
        n_per_client=_need_int(obj, "n_per_client", path),
        d=_need_int(obj, "d", path),
        M=_need_int(obj, "M", path),
        K=_need_int(obj, "K", path),
        seed=_need_int(obj, "seed", path),
        assignment=assignment,
        shared_count=_opt_int(obj, "shared_count", path, None),
        unique_count=_opt_int(obj, "unique_count", path, None),
        skew=obj.get("skew", "iid"),
        shift_sigma=_opt_number(obj, "shift_sigma", path, 0.0),
        label_noise=_opt_number(obj, "label_noise", path, 0.05),
        n_test=_opt_int(obj, "n_test", path, 2000),
        val_fraction=_opt_number(obj, "val_fraction", path, 0.2),
    )


def parse_config(obj, path: str = "config") -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a parsed JSON object,
    reporting the offending field on any problem."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown field {path}.{sorted(unknown)[0]}")
    for key in ("method", "scenario"):
        if key not in obj:
            raise ConfigError(f"missing required field {path}.{key}")
    scenario = parse_scenario(obj["scenario"], f"{path}.scenario")
    seeds = None
    if obj.get("seeds") is not None:
        sobj = obj["seeds"]
        if not isinstance(sobj, dict) or set(sobj) != {"init", "shuffle"}:
            raise ConfigError(f"field {path}.seeds must be an object with keys init and shuffle")
        seeds = SeedBundle(init=_need_int(sobj, "init", f"{path}.seeds"),
                           shuffle=_need_int(sobj, "shuffle", f"{path}.seeds"))
    hidden = obj.get("hidden", [32, 16])
    if not isinstance(hidden, list) or not all(_is_int64(h) for h in hidden):
        raise ConfigError(f"field {path}.hidden must be a list of integers that fit in 64 bits")
    return ExperimentConfig(
        scenario=scenario,
        method=obj["method"],
        strategy=obj.get("strategy", "fedavg"),
        T=_opt_int(obj, "T", path, 100),
        E=_opt_int(obj, "E", path, 1),
        lr=_opt_number(obj, "lr", path, 0.01),
        batch_size=_opt_int(obj, "batch_size", path, 32),
        warmup_epochs=_opt_int(obj, "warmup_epochs", path, 5),
        warmup_lr=_opt_number(obj, "warmup_lr", path, 0.01),
        hidden=tuple(hidden),
        use_batchnorm=_opt_bool(obj, "use_batchnorm", path, True),
        sample_weighted=_opt_bool(obj, "sample_weighted", path, False),
        seeds=seeds,
    )


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    return {
        "n_per_client": spec.n_per_client,
        "d": spec.d,
        "M": spec.M,
        "K": spec.K,
        "seed": spec.seed,
        "assignment": None if spec.assignment is None else [list(cs) for cs in spec.assignment],
        "shared_count": spec.shared_count,
        "unique_count": spec.unique_count,
        "skew": spec.skew,
        "shift_sigma": spec.shift_sigma,
        "label_noise": spec.label_noise,
        "n_test": spec.n_test,
        "val_fraction": spec.val_fraction,
    }


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical JSON form of a config; parse(serialise(x)) == x."""
    return {
        "scenario": scenario_to_dict(cfg.scenario),
        "method": cfg.method,
        "strategy": cfg.strategy,
        "T": cfg.T,
        "E": cfg.E,
        "lr": cfg.lr,
        "batch_size": cfg.batch_size,
        "warmup_epochs": cfg.warmup_epochs,
        "warmup_lr": cfg.warmup_lr,
        "hidden": list(cfg.hidden),
        "use_batchnorm": cfg.use_batchnorm,
        "sample_weighted": cfg.sample_weighted,
        "seeds": None if cfg.seeds is None else {"init": cfg.seeds.init, "shuffle": cfg.seeds.shuffle},
    }


def _apply_seed_override(cfg: ExperimentConfig, seed: int | None) -> ExperimentConfig:
    if seed is None:
        return cfg
    if seed < 0:
        raise ConfigError("--seed must be non-negative")
    return replace(cfg, scenario=replace(cfg.scenario, seed=seed), seeds=None)


def manifest_hash(snapshot: dict) -> str:
    blob = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _fmt(v) -> str:
    if v is None:
        return "NA"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def build_manifest(result: RunResult) -> dict:
    """Provenance of a run: its config, seeds and what the run's own
    scenario data realized."""
    from . import __version__

    cfg = result.config
    snapshot = config_to_dict(cfg)
    seeds = cfg.resolved_seeds()
    return {
        "config": snapshot,
        "manifest_hash": manifest_hash(snapshot),
        "version": __version__,
        "seeds": {"data": cfg.scenario.seed, "init": seeds.init, "shuffle": seeds.shuffle},
        "realized": result.realized,
    }


def eval_to_dict(ev: EvalResult, registry: ClassRegistry) -> dict:
    names = registry.global_classes
    return {
        "per_class": {names[c]: ev.per_class[c] for c in sorted(ev.per_class)},
        "mean_auroc": ev.mean_auroc,
        "group_means": dict(ev.group_means),
        "uncovered": [names[c] for c in ev.uncovered],
        "degenerate": [names[c] for c in ev.degenerate],
    }


def write_rounds_csv(path, result: RunResult, run_id: str) -> None:
    K = len(result.client_classes)
    M = result.registry.n_classes
    names = result.registry.global_classes
    header = (
        ["run_id", "round", "mean_val_loss", "test_mean_auroc"]
        + [f"train_loss_{k}" for k in range(K)]
        + [f"val_loss_{k}" for k in range(K)]
        + [f"auroc_{names[c]}" for c in range(M)]
    )
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for rep in result.reports:
            per_class = rep.test_per_class if rep.test_per_class is not None else [None] * M
            w.writerow(
                [run_id, rep.round, _fmt(rep.mean_val_loss), _fmt(rep.test_mean_auroc)]
                + [_fmt(v) for v in rep.client_train_loss]
                + [_fmt(v) for v in rep.client_val_loss]
                + [_fmt(v) for v in per_class]
            )


def _result_payload(result: RunResult, manifest: dict) -> dict:
    payload = {
        "manifest": manifest,
        "method": result.method,
        "best_round": result.best_round,
        "rounds": len(result.reports),
        "timing": {"total_s": float(sum(r.wall_time for r in result.reports))},
    }
    if result.global_params is not None:
        payload["eval"] = eval_to_dict(result.global_eval(), result.registry)
    if result.client_params is not None:
        payload["client_eval"] = [
            {
                "client": k,
                "classes": [result.registry.global_classes[c] for c in result.client_classes[k]],
                "local": eval_to_dict(result.client_eval(k, result.client_classes[k]), result.registry),
                # the full class set is not learnable by one client: undefined, not a number
                "full_set_mean_auroc": result.client_eval(k).mean_auroc,
            }
            for k in range(len(result.client_classes))
        ]
    return payload


def _write_run_outputs(out_dir: Path, result: RunResult, manifest: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = manifest["manifest_hash"]
    write_rounds_csv(out_dir / "rounds.csv", result, run_id)
    with open(out_dir / "result.json", "w") as f:
        json.dump(_result_payload(result, manifest), f, indent=2, sort_keys=True)
        f.write("\n")
    if result.global_params is not None:
        save_checkpoint(result.global_params, out_dir / "checkpoint.csv")
    if result.client_params is not None:
        for k, ps in enumerate(result.client_params):
            save_checkpoint(ps, out_dir / f"checkpoint_client{k}.csv")


def cmd_run(config_path, out_dir, seed: int | None = None, parallel: int = 1) -> int:
    with open(config_path) as f:
        raw = json.load(f)
    cfg = _apply_seed_override(parse_config(raw), seed)
    result = run_experiment(cfg, parallel=parallel)
    manifest = build_manifest(result)
    _write_run_outputs(Path(out_dir), result, manifest)
    return 0


def cmd_suite(suite_path, out_dir, seed: int | None = None, parallel: int = 1) -> int:
    with open(suite_path) as f:
        raw = json.load(f)
    if not isinstance(raw, dict) or "members" not in raw:
        raise ConfigError("suite file must be an object with a members list")
    members = raw["members"]
    if not isinstance(members, list) or not members:
        raise ConfigError("field members must be a non-empty list of configs")
    reference = raw.get("reference", "surgical")
    configs = [
        _apply_seed_override(parse_config(m, f"members[{i}]"), seed)
        for i, m in enumerate(members)
    ]
    snapshot = {"reference": reference, "members": [config_to_dict(c) for c in configs]}
    run_id = manifest_hash(snapshot)
    suite, results = run_suite(configs, reference=reference, parallel=parallel)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ["run_id", "label", "method", "reference", "failed"]
    for g in ("all", "shared_by_all", "partially_shared", "unique"):
        header += [f"{g}_mean", f"{g}_sd", f"{g}_n", f"{g}_p", f"{g}_stars"]
    with open(out / "comparison.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in suite.rows:
            cells = [run_id, row.label, row.method, int(row.is_reference), int(row.failed)]
            for g in ("all", "shared_by_all", "partially_shared", "unique"):
                st = row.groups[g]
                cells += [_fmt(st.mean), _fmt(st.sd), st.n, _fmt(st.p), st.stars]
            w.writerow(cells)
    with open(out / "suite.json", "w") as f:
        json.dump(
            {
                "manifest": {"suite": snapshot, "manifest_hash": run_id},
                "reference": suite.reference,
                "failed": [row.label for row in suite.rows if row.failed],
            },
            f, indent=2, sort_keys=True,
        )
        f.write("\n")
    for row, result in zip(suite.rows, results):
        if result is not None:
            sub = out / f"member_{row.label}"
            member_manifest = build_manifest(result)
            _write_run_outputs(sub, result, member_manifest)
    return 1 if any(row.failed for row in suite.rows) else 0


def cmd_ablation(kind, out_dir, seed: int | None = None, parallel: int = 1,
                 seeds: int = 3, epochs: int | None = None,
                 methods=ABLATION_METHODS, strategy: str = "fedavg") -> int:
    if kind not in ABLATION_KINDS:
        raise ConfigError(f"ablation kind must be one of {ABLATION_KINDS}")
    if seeds < 1:
        raise ConfigError("--seeds must be at least 1")
    methods = tuple(methods)
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r} in --methods")
    base_seed = 7000 if seed is None else seed
    T = 100 if epochs is None else epochs
    ladder = effect_of_clients_scenarios if kind == "clients" else effect_of_shared_classes_scenarios
    # every rung is scored on the global model, so reject what cannot
    # build one before any rung trains or any file is written
    first_spec = ladder(base_seed)[0]
    for method in methods:
        ExperimentConfig(scenario=first_spec, method=method, strategy=strategy, T=T, lr=ABLATION_LR)
        if method in PERSONAL_METHODS:
            raise ConfigError(f"method {method!r} keeps no global model; the ablation scores global models")

    snapshot = {
        "kind": kind, "base_seed": base_seed, "seeds": seeds, "epochs": T,
        "methods": list(methods), "strategy": strategy, "lr": ABLATION_LR,
    }
    run_id = manifest_hash(snapshot)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # rung value -> method -> list of per-seed mean AUROCs
    curve: dict[int, dict[str, list[float]]] = {}
    for s in range(seeds):
        specs = ladder(base_seed + s)
        for spec in specs:
            rung = spec.K if kind == "clients" else _shared_count_of(spec)
            rows = []
            for method in methods:
                cfg = ExperimentConfig(scenario=spec, method=method, strategy=strategy, T=T, lr=ABLATION_LR)
                result = run_experiment(cfg, parallel=parallel)
                ev = result.global_eval()
                rows.append((method, s, ev))
                curve.setdefault(rung, {}).setdefault(method, []).append(ev.mean_auroc)
            rung_path = out / f"{kind}_rung{rung:02d}_seed{s}.csv"
            with open(rung_path, "w", newline="") as f:
                w = csv.writer(f, lineterminator="\n")
                w.writerow(
                    ["run_id", "rung", "seed", "method", "mean_auroc",
                     "shared_by_all_mean", "partially_shared_mean", "unique_mean"]
                )
                for method, s_, ev in rows:
                    w.writerow(
                        [run_id, rung, s_, method, _fmt(ev.mean_auroc)]
                        + [_fmt(ev.group_means[g]) for g in ("shared_by_all", "partially_shared", "unique")]
                    )

    with open(out / "summary.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["run_id", "kind", "rung", "method", "mean_auroc", "sd", "n_seeds"])
        for rung in sorted(curve):
            for method in methods:
                vals = [v for v in curve[rung][method] if v is not None]
                mean = float(np.mean(vals)) if vals else None
                sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
                w.writerow([run_id, kind, rung, method, _fmt(mean), _fmt(sd), len(vals)])
    with open(out / "ablation.json", "w") as f:
        json.dump({"manifest": snapshot, "manifest_hash": run_id}, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def _shared_count_of(spec: ScenarioSpec) -> int:
    from .registry import sharing_profile

    reg = ClassRegistry([f"c{i:02d}" for i in range(spec.M)], spec.assignment)
    return len(sharing_profile(reg).shared_by_all)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surgfed",
        description="Deterministic federated simulator with per-class selective head aggregation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", required=True, help=f"output directory (overridden by ${OUT_DIR_ENV})")
        p.add_argument("--seed", type=int, default=None, help="replace every config seed deterministically")
        p.add_argument("--parallel-clients", type=int, default=1, metavar="N",
                       help="worker threads, each training one lock-step client group (results are identical)")

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    add_common(p_run)

    p_suite = sub.add_parser("suite", help="run a suite file and write a comparison table")
    p_suite.add_argument("suite", help="path to a JSON suite file")
    add_common(p_suite)

    p_abl = sub.add_parser("ablation", help="run a scenario ladder")
    p_abl.add_argument("kind", choices=ABLATION_KINDS)
    add_common(p_abl)
    p_abl.add_argument("--seeds", type=int, default=3, help="independent repetitions per rung")
    p_abl.add_argument("--epochs", type=int, default=None, help="override local epochs T")
    p_abl.add_argument("--strategy", default="fedavg", help="feature aggregation strategy")
    p_abl.add_argument("--methods", default=",".join(ABLATION_METHODS),
                       help="comma-separated methods to ladder")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = os.environ.get(OUT_DIR_ENV) or args.out
    try:
        if args.command == "run":
            return cmd_run(args.config, out_dir, args.seed, args.parallel_clients)
        if args.command == "suite":
            return cmd_suite(args.suite, out_dir, args.seed, args.parallel_clients)
        methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
        return cmd_ablation(
            args.kind, out_dir, args.seed, args.parallel_clients,
            seeds=args.seeds, epochs=args.epochs, methods=methods, strategy=args.strategy,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
