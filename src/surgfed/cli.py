"""Command-line front end.

Subcommands::

    surgfed run <config.json> --out <dir>       one experiment
    surgfed suite <suite.json> --out <dir>      several methods, one table
    surgfed ablation <clients|shared> --out <dir>   scenario ladders

Global options: ``--seed`` replaces every seed in the config
deterministically, ``--parallel-clients`` trains lock-step client groups
on worker threads (bit-identical results, but slower than one thread
under lock-step training).  The ``SURGFED_OUT_DIR``
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
import dataclasses
import hashlib
import json
import os
import sys
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import (  # noqa: F401 (perfbench/tracer.py wraps generate_synthetic here)
    ScenarioSpec,
    effect_of_clients_scenarios,
    effect_of_shared_classes_scenarios,
    generate_synthetic,
)
from .errors import ConfigError, need_int
from .metrics import EvalResult
from .model import save_checkpoint
from .registry import GROUP_NAMES, ClassRegistry
from .simulator import (
    PERSONAL_METHODS,
    SUITE_GROUPS,
    ExperimentConfig,
    RunResult,
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
#
# The config dataclasses are the schema: they check every field's type and
# range themselves and store JSON lists as tuples.  Parsing only maps JSON
# objects onto them and adds field paths.


def _check_keys(obj, keys: dict, path: str) -> None:
    """Reject ``obj`` unless it is an object whose keys all appear in
    ``keys`` and include every key that ``keys`` maps to True (required)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"field {path} must be an object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(f"unknown field {path}.{unknown[0]}")
    for key, required in keys.items():
        if required and key not in obj:
            raise ConfigError(f"missing required field {path}.{key}")


def _from_json(cls, obj, path: str):
    """Build config dataclass ``cls`` from a JSON object, nested config
    objects included, reporting every problem under its field path."""
    _check_keys(obj, {f.name: f.default is dataclasses.MISSING for f in dataclasses.fields(cls)}, path)
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in obj.items():
        # a field typed as a config dataclass, alone or with None, holds a nested object
        types = (hints[key], *typing.get_args(hints[key]))
        nested = next((t for t in types if dataclasses.is_dataclass(t)), None)
        if nested is not None and value is not None:
            value = _from_json(nested, value, f"{path}.{key}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError as exc:  # name the field by its path in the file
        raise ConfigError(f"{path}.{exc}" if exc.field else f"{path}: {exc}") from None


def parse_config(obj, path: str = "config") -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a parsed JSON object,
    reporting the offending field on any problem."""
    return _from_json(ExperimentConfig, obj, path)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical JSON form of a config; parse(serialise(x)) == x."""
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def _apply_seed_override(cfg: ExperimentConfig, seed: int | None) -> ExperimentConfig:
    if seed is None:
        return cfg
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
    _check_keys(raw, {"members": True, "reference": False}, "suite")
    members = raw["members"]
    if not isinstance(members, list) or not members:
        raise ConfigError("field members must be a non-empty list of configs")
    reference = raw.get("reference", "surgical")
    if not isinstance(reference, str):
        raise ConfigError("field reference must be a string")
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
    for g in SUITE_GROUPS:
        header += [f"{g}_mean", f"{g}_sd", f"{g}_n", f"{g}_p", f"{g}_stars"]
    with open(out / "comparison.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in suite.rows:
            cells = [run_id, row.label, row.method, int(row.is_reference), int(row.failed)]
            for g in SUITE_GROUPS:
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
    need_int(seeds, "--seeds", 1)
    methods = tuple(methods)
    if not methods:
        raise ConfigError("--methods must name at least one method")
    if len(set(methods)) < len(methods):
        raise ConfigError("--methods must not name a method twice")
    base_seed = 7000 if seed is None else seed
    ladder = effect_of_clients_scenarios if kind == "clients" else effect_of_shared_classes_scenarios
    # one config per method, re-targeted at every rung; every rung is scored
    # on the global model, so reject what cannot build one before any rung
    # trains or any file is written
    first_spec = ladder(base_seed)[0]
    budget = {} if epochs is None else {"T": epochs}
    templates = [
        ExperimentConfig(scenario=first_spec, method=method, strategy=strategy, lr=ABLATION_LR, **budget)
        for method in methods
    ]
    for cfg in templates:
        if cfg.method in PERSONAL_METHODS:
            raise ConfigError(f"method {cfg.method!r} keeps no global model, which the ablation scores")

    snapshot = {
        "kind": kind, "base_seed": base_seed, "seeds": seeds, "epochs": templates[0].T,
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
            for template in templates:
                result = run_experiment(replace(template, scenario=spec), parallel=parallel)
                ev = result.global_eval()
                rows.append((template.method, s, ev))
                curve.setdefault(rung, {}).setdefault(template.method, []).append(ev.mean_auroc)
            rung_path = out / f"{kind}_rung{rung:02d}_seed{s}.csv"
            with open(rung_path, "w", newline="") as f:
                w = csv.writer(f, lineterminator="\n")
                w.writerow(["run_id", "rung", "seed", "method", "mean_auroc"]
                           + [f"{g}_mean" for g in GROUP_NAMES])
                for method, s_, ev in rows:
                    w.writerow([run_id, rung, s_, method, _fmt(ev.mean_auroc)]
                               + [_fmt(ev.group_means[g]) for g in GROUP_NAMES])

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
                       help="worker threads, each training one lock-step client group; results are "
                            "identical, but more than 1 is slower under lock-step training")

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
        if args.seed is not None:
            need_int(args.seed, "--seed", 0)
        need_int(args.parallel_clients, "--parallel-clients", 1)
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
