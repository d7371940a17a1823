from __future__ import annotations

import copy
import csv
import json
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surgfed import METHODS, STRATEGIES, ConfigError, ExperimentConfig, ScenarioSpec, SeedBundle
from surgfed.simulator import MAX_EPOCHS
from surgfed.cli import (
    ABLATION_METHODS,
    config_to_dict,
    main,
    manifest_hash,
    parse_config,
)

SMALL_CONFIG = {
    "scenario": {
        "n_per_client": 60,
        "d": 5,
        "M": 4,
        "K": 2,
        "seed": 42,
        "assignment": [[0, 1, 2], [1, 2, 3]],
    },
    "method": "surgical",
    "T": 6,
    "E": 2,
    "warmup_epochs": 1,
}


def _write(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


# --- config parsing ---------------------------------------------------------


def test_parse_config_round_trip() -> None:
    cfg = ExperimentConfig(
        scenario=ScenarioSpec(
            n_per_client=80, d=6, M=5, K=3, seed=7,
            shared_count=2, unique_count=3,
            skew="feature_shift", shift_sigma=0.5,
            label_noise=0.1, n_test=500, val_fraction=0.25,
        ),
        method="fl_partial_loss", strategy="fedavg",
        T=12, E=3, lr=0.02, batch_size=16,
        warmup_epochs=2, warmup_lr=0.005,
        hidden=(8, 4), use_batchnorm=False, sample_weighted=True,
        seeds=SeedBundle(init=111, shuffle=222),
    )
    assert parse_config(config_to_dict(cfg)) == cfg


def test_numpy_integers_are_accepted_as_ints() -> None:
    """A config built from numpy integers, as a script computing an
    assignment makes them, equals the one built from ints and
    serialises the same; bools of either kind are still no integers."""
    def cfg(i, assignment):
        return ExperimentConfig(
            scenario=ScenarioSpec(n_per_client=i(40), d=i(4), M=i(3), K=i(2), seed=i(5), assignment=assignment),
            method="surgical", T=i(4), batch_size=i(8), hidden=(i(6),),
            seeds=SeedBundle(init=i(1), shuffle=i(2)),
        )

    plain = cfg(int, [[0, 1], [1, 2]])
    numpy = cfg(np.int64, [[np.int64(0), np.int32(1)], list(np.arange(1, 3, dtype=np.uint8))])
    assert numpy == plain
    assert config_to_dict(numpy) == config_to_dict(plain)
    assert json.dumps(config_to_dict(numpy)) == json.dumps(config_to_dict(plain))
    assert parse_config(config_to_dict(numpy)) == plain
    for flag in (True, np.True_):
        with pytest.raises(ConfigError, match="assignment"):
            ScenarioSpec(n_per_client=40, d=4, M=3, K=2, seed=5, assignment=[[0, flag], [1, 2]])
        with pytest.raises(ConfigError, match="seed"):
            ScenarioSpec(n_per_client=40, d=4, M=3, K=2, seed=flag, assignment=[[0, 1], [1, 2]])
    with pytest.raises(ConfigError, match="fits in 64 bits"):
        ScenarioSpec(n_per_client=40, d=4, M=3, K=2, seed=np.uint64(2**63), assignment=[[0, 1], [1, 2]])


def test_numpy_numbers_are_accepted_as_floats() -> None:
    """Every number field takes numpy integer and floating values: the
    config equals the one built from ``float(v)`` and round-trips through
    its serialised form; bools of either kind are no numbers."""
    def cfg(v):
        return ExperimentConfig(
            scenario=ScenarioSpec(n_per_client=80, d=4, M=3, K=2, seed=5, assignment=[[0, 1], [1, 2]],
                                  skew="feature_shift", shift_sigma=v, label_noise=v / 4, val_fraction=v / 2),
            method="surgical", lr=v, warmup_lr=v,
        )

    for v in (np.float32(0.05), np.float16(0.25), np.float64(0.3), np.int64(1), np.uint8(1), np.int32(1)):
        numpy, plain = cfg(v), cfg(float(v))
        assert numpy == plain, v
        assert type(numpy.lr) is float and type(numpy.scenario.shift_sigma) is float
        assert parse_config(config_to_dict(numpy)) == plain
        assert json.dumps(config_to_dict(numpy)) == json.dumps(config_to_dict(plain))
    for bad in (True, np.True_, np.float32("nan"), np.float32("inf")):
        with pytest.raises(ConfigError, match="lr must be a finite number"):
            ExperimentConfig(scenario=cfg(0.1).scenario, method="surgical", lr=bad)


def test_parse_config_reports_field_paths() -> None:
    with pytest.raises(ConfigError, match="config.method"):
        parse_config({"scenario": SMALL_CONFIG["scenario"]})
    with pytest.raises(ConfigError, match="config.scenario.K"):
        parse_config({"method": "surgical", "scenario": {"n_per_client": 10, "d": 2, "M": 2, "seed": 0}})
    with pytest.raises(ConfigError, match="config.turbo"):
        parse_config({**SMALL_CONFIG, "turbo": True})
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config({**SMALL_CONFIG, "T": True})


@pytest.mark.parametrize(
    "bad",
    [
        {"use_batchnorm": "false"},
        {"sample_weighted": "no"},
        {"lr": float("nan")},
        {"warmup_lr": float("nan")},
        {"scenario": {**SMALL_CONFIG["scenario"], "assignment": [[0.7, 1, 2], [1, 2, 3]]}},
    ],
    ids=["use_batchnorm-string", "sample_weighted-string", "lr-nan", "warmup_lr-nan", "float-class-index"],
)
def test_uncoercible_values_exit_2_before_compute(tmp_path, monkeypatch, bad) -> None:
    """Values that used to be coerced (a string through bool(), 0.7
    through int()) or to pass a ``<= 0`` check (NaN) are config errors,
    raised before any data is generated or any client trained."""
    import surgfed.cli as cli

    def no_compute(*args, **kwargs):
        raise AssertionError("compute started before the config was rejected")

    monkeypatch.setattr(cli, "generate_synthetic", no_compute)
    monkeypatch.setattr(cli, "run_experiment", no_compute)
    cfg = {**SMALL_CONFIG, **bad}
    with pytest.raises(ConfigError):
        parse_config(cfg)
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "x")]) == 2


def test_memory_estimate_counts_labels_at_one_byte(tmp_path, monkeypatch) -> None:
    """A config is rejected when its estimated arrays exceed physical
    memory: 8·(K·n·d + n_test·d + A) bytes of float64 data and buffers
    plus K·n·M + n_test·M bytes of int8 labels, where A bounds the run's
    arena: the largest of the test forward pass, n_test·(Σhidden + M), of
    every validation row pooled and of training all K clients at once,
    each M wide (an epoch's gathered rows and labels, the gradients and a
    step).  A machine of exactly that size takes the config, also one
    that float64 labels would have overfilled; one byte less exits 2
    before any work."""
    import surgfed.cli as cli
    from surgfed import simulator

    s = SMALL_CONFIG["scenario"]
    K, n, d, M, n_test, hidden = s["K"], s["n_per_client"], s["d"], s["M"], 2000, (32, 16)
    need = 8 * (K * n * d + n_test * (d + M + sum(hidden))) + K * n * M + n_test * M
    float64_need = 8 * (K * n * (d + M) + n_test * (d + 2 * M + sum(hidden)))
    assert need < float64_need

    def machine(nbytes):
        monkeypatch.setattr(simulator.os, "sysconf",
                            lambda name: {"SC_PHYS_PAGES": nbytes, "SC_PAGE_SIZE": 1}[name])

    for have in (need, float64_need - 1):
        machine(have)
        parse_config(SMALL_CONFIG)

    def no_compute(*args, **kwargs):
        raise AssertionError("compute started before the config was rejected")

    monkeypatch.setattr(cli, "generate_synthetic", no_compute)
    monkeypatch.setattr(cli, "run_experiment", no_compute)
    machine(need - 1)
    with pytest.raises(ConfigError, match="physical memory"):
        parse_config(SMALL_CONFIG)
    assert main(["run", _write(tmp_path, SMALL_CONFIG), "--out", str(tmp_path / "x")]) == 2

    # 100 clients and 2 test rows: training sets A.  Each client gathers
    # 48 rows of d features and M one-byte labels an epoch, and a step of
    # 32 rows has 112 forward, 2·M head and 80 backward columns a row and
    # the loss's work array, M columns a row or the client's `grads`
    # gradients if more
    many = {**SMALL_CONFIG, "scenario": {"n_per_client": n, "d": d, "M": M, "K": 100, "seed": 42,
                                         "shared_count": M, "unique_count": 0, "n_test": 2}}
    K, n_test, n_val, n_train = 100, 2, 12, 48
    grads = (d + 1) * 32 + 2 * 32 + (32 + 1) * 16 + (16 + 1) * M
    arena = K * n_train * d + K * n_train * M // 8 + K * 32 * (112 + 2 * M + 80) + K * max(32 * M, grads)
    assert arena > max(n_test * (sum(hidden) + M), K * n_val * (sum(hidden) + 2 * M))
    need = 8 * (K * n * d + n_test * d + arena) + K * n * M + n_test * M
    machine(need)
    parse_config(many)
    machine(need - 1)
    with pytest.raises(ConfigError, match="physical memory"):
        parse_config(many)


# --- config fuzz: one field of a valid config made malformed -------------------

_VALID = {**SMALL_CONFIG, "seeds": {"init": 1, "shuffle": 2}}
_DELETE = object()  # marks a field removed from the config

_NOT_A_NUMBER = st.one_of(st.text(), st.booleans(), st.lists(st.integers(), max_size=2),
                          st.dictionaries(st.text(), st.integers(), max_size=1))
_NOT_AN_INT = st.one_of(_NOT_A_NUMBER, st.floats())


def _ints_below(low):
    return st.one_of(st.integers(max_value=low - 1), _NOT_AN_INT)


def _numbers_outside(ok):
    """Wrong types, non-finite values, integers beyond the float range,
    and finite floats ``ok`` rejects."""
    return st.one_of(
        _NOT_A_NUMBER, st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        st.integers(min_value=2**1024), st.floats(allow_nan=False).filter(lambda v: not ok(v)),
    )


def _unknown(valid):
    return st.one_of(st.text().filter(lambda v: v not in valid), st.integers(), st.none(), st.booleans())


def _class_lists():
    """Assignments with an index out of range, an empty or duplicated
    client list, a class no client holds, the wrong client count or a
    non-integer entry."""
    return st.sampled_from([
        [[0, 1, 2], [1, 2, 4]], [[0, 1, 2], [1, 2, -1]], [[0, 1, 2, 3], []], [[0, 1, 1], [2, 3]],
        [[0, 1], [1, 2]], [[0, 1, 2, 3]], [[0, 1, 2], [1, 2, "3"]], [[0, 1, 2], [1, 2, 3.0]], "0,1", 7,
    ])


_MALFORMED = {
    "method": _unknown(METHODS),
    "strategy": _unknown(STRATEGIES),
    "T": _ints_below(1),
    "E": _ints_below(1),
    "batch_size": _ints_below(1),
    "warmup_epochs": _ints_below(0),
    "lr": _numbers_outside(lambda v: v > 0.0),
    "warmup_lr": _numbers_outside(lambda v: v > 0.0),
    "hidden": st.one_of(st.lists(st.integers(max_value=0), min_size=1, max_size=3),
                        st.lists(st.floats() | st.text(), min_size=1, max_size=2),
                        st.text(), st.integers(), st.floats()),  # [] is valid: no hidden layer
    "use_batchnorm": st.one_of(st.text(), st.integers(), st.floats(), st.none()),
    "sample_weighted": st.one_of(st.text(), st.integers(), st.floats(), st.none()),
    "seeds": st.one_of(st.text(), st.integers(), st.just({"init": 1}),
                       st.just({"init": 1, "shuffle": 2, "extra": 3})),
    "seeds.init": _ints_below(0),
    "seeds.shuffle": _ints_below(0),
    "scenario": st.one_of(st.text(), st.integers(), st.lists(st.integers(), max_size=2)),
    "scenario.n_per_client": _ints_below(2),
    "scenario.d": _ints_below(1),
    "scenario.M": _ints_below(1),
    "scenario.K": _ints_below(1),
    "scenario.seed": _ints_below(0),
    "scenario.n_test": _ints_below(2),
    "scenario.assignment": _class_lists(),
    "scenario.shared_count": st.integers(0, 4),  # counts and an assignment exclude each other
    "scenario.skew": _unknown(("iid", "feature_shift")),
    "scenario.shift_sigma": _numbers_outside(lambda v: v == 0.0),  # iid pins it to 0
    "scenario.label_noise": _numbers_outside(lambda v: 0.0 <= v < 0.5),
    # with n_per_client 60, fractions below 0.025 or above 0.975 leave a split
    # of fewer than 2 rows
    "scenario.val_fraction": _numbers_outside(lambda v: 0.0 < v < 1.0 and 2 <= round(60 * v) <= 58),
}
# every integer field, set beyond the signed 64-bit range
_HUGE = st.one_of(st.integers(min_value=2**63), st.integers(max_value=-2**63 - 1))
_INT_FIELDS = ("T", "E", "batch_size", "warmup_epochs", "seeds.init", "seeds.shuffle",
               "scenario.n_per_client", "scenario.d", "scenario.M", "scenario.K", "scenario.seed",
               "scenario.n_test", "scenario.shared_count", "scenario.unique_count")
# sizes within 64 bits whose arrays outgrow any machine's memory
_OVERSIZED = st.integers(min_value=2**40, max_value=2**62)
# epoch budgets within 64 bits that would train for ever
_ENDLESS = st.integers(min_value=MAX_EPOCHS + 1, max_value=2**63 - 1)
_VALID_SNAPSHOT = config_to_dict(parse_config(_VALID))
_KNOWN_FIELDS = {*_VALID_SNAPSHOT, *_VALID_SNAPSHOT["scenario"]}
_FIELD_PATHS = ({f.name for f in fields(ExperimentConfig)}
                | {f"scenario.{f.name}" for f in fields(ScenarioSpec)}
                | {f"seeds.{f.name}" for f in fields(SeedBundle)})
_REQUIRED_FIELDS = ("method", "scenario", "scenario.n_per_client", "scenario.d", "scenario.M",
                    "scenario.K", "scenario.seed")


def _mutation():
    return st.one_of(
        st.sampled_from(sorted(_MALFORMED)).flatmap(lambda f: st.tuples(st.just(f), _MALFORMED[f])),
        st.tuples(st.sampled_from(_REQUIRED_FIELDS), st.just(_DELETE)),
        st.one_of(
            st.tuples(st.sampled_from(_INT_FIELDS), _HUGE),
            st.tuples(st.just("hidden"), _HUGE.map(lambda v: [16, v])),
            st.tuples(st.just("scenario.assignment"), _HUGE.map(lambda v: [[0, 1, 2], [1, 2, 3, v]])),
        ),
        st.one_of(
            st.tuples(st.sampled_from(["scenario.n_per_client", "scenario.n_test", "scenario.d"]), _OVERSIZED),
            st.tuples(st.just("hidden"), _OVERSIZED.map(lambda v: [v])),
        ),
        st.tuples(st.sampled_from(["T", "warmup_epochs"]), _ENDLESS),
        st.tuples(
            st.sampled_from(["", "scenario."]).flatmap(
                lambda prefix: st.text(min_size=1).map(lambda k: prefix + k.replace(".", "_"))
            ).filter(lambda f: f.rsplit(".", 1)[-1] not in _KNOWN_FIELDS),
            st.integers(),
        ),
    )


def _construct(cfg):
    """``cfg`` built straight from the dataclasses, as an API caller
    builds it: lists stay lists, nothing goes through ``parse_config``."""
    scenario, seeds = cfg["scenario"], cfg.get("seeds")
    return ExperimentConfig(**{
        **cfg,
        "scenario": ScenarioSpec(**scenario) if isinstance(scenario, dict) else scenario,
        "seeds": SeedBundle(**seeds) if isinstance(seeds, dict) else seeds,
    })


def _mutated(field, value):
    """A copy of the valid config with ``field`` set to ``value`` (or removed)."""
    cfg = copy.deepcopy(_VALID)
    *parents, key = field.split(".")
    node = cfg
    for p in parents:
        node = node[p]
    if value is _DELETE:
        del node[key]
    else:
        node[key] = value
    return cfg


def _rejected_by_both_entry_points(field, value):
    """Assert that ``parse_config`` rejects the mutated config and, for a
    bad value of a known field, so does building the dataclasses directly;
    a missing or unknown key is a ``TypeError`` of that call, so only JSON
    can carry it.  Returns the mutated config."""
    cfg = _mutated(field, value)
    with pytest.raises(ConfigError):
        parse_config(cfg)
    if value is not _DELETE and field in _FIELD_PATHS and not (field == "seeds" and isinstance(value, dict)):
        with pytest.raises(ConfigError):
            _construct(cfg)
    return cfg


def test_direct_construction_matches_parsing() -> None:
    assert _construct(_VALID) == parse_config(_VALID)


@pytest.mark.parametrize("field", sorted(_MALFORMED))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_every_fuzzed_field_is_rejected_by_both_entry_points(field, data) -> None:
    """Each row of the mutation table on its own, so that no field's check
    depends on the fuzz below happening to draw it."""
    _rejected_by_both_entry_points(field, data.draw(_MALFORMED[field]))


# each of these was accepted at construction before the dataclasses checked
# their own fields: trained with a coerced value or failed mid-run
@example(("hidden", [1.5, 4]))
@example(("scenario.assignment", [[0.7, 1, 2], [1, 2, 3]]))
@example(("T", 2.5))
@example(("batch_size", 3.5))
@example(("scenario.n_per_client", 60.5))
@example(("scenario.n_test", 100.0))
@example(("E", True))
# a split with no training rows: accepted until data generation refused it
@example(("scenario", {**SMALL_CONFIG["scenario"], "n_per_client": 2, "val_fraction": 0.9}))
# one validation row, which never holds both labels: generation refused it
@example(("scenario", {**SMALL_CONFIG["scenario"], "n_per_client": 4}))
# accepted before the run's array footprint was checked; numpy raised
# MemoryError for a 160 TiB array once the run had started
@example(("scenario.n_per_client", 2**40))
# accepted before the epoch budget was capped, and then trained for ever
@example(("T", 2**62))
@example(("warmup_epochs", MAX_EPOCHS + 1))
@given(_mutation())
@settings(max_examples=300, deadline=None)
def test_malformed_config_fuzz_exits_2_before_any_work(mutation) -> None:
    """Every malformed field fails ``parse_config`` and, where an API
    caller can pass it, the dataclasses with ``ConfigError`` (no other
    exception type), and ``surgfed run`` exits 2 without creating its
    output directory or starting to train."""
    import surgfed.simulator as simulator

    cfg = _rejected_by_both_entry_points(*mutation)

    trained = []
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(simulator, "head_warmup", lambda *a, **k: trained.append(a))
        mp.setattr(simulator, "_train_all", lambda *a, **k: trained.append(a))
        out = Path(tmp) / "out"
        assert main(["run", _write(Path(tmp), cfg), "--out", str(out)]) == 2
        assert not out.exists()
    assert trained == []


def test_manifest_hash_is_stable_and_sensitive() -> None:
    snap = config_to_dict(parse_config(SMALL_CONFIG))
    h = manifest_hash(snap)
    assert h == manifest_hash(json.loads(json.dumps(snap)))
    assert len(h) == 12
    other = dict(snap)
    other["T"] = 7
    assert manifest_hash(other) != h


# --- run ------------------------------------------------------------------


def test_run_writes_outputs(tmp_path) -> None:
    cfg_path = _write(tmp_path, SMALL_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out)]) == 0
    rows = _read_rows(out / "rounds.csv")
    assert rows[0][:4] == ["run_id", "round", "mean_val_loss", "test_mean_auroc"]
    assert len(rows) == 1 + 3  # header plus T // E rounds
    run_ids = {r[0] for r in rows[1:]}
    assert len(run_ids) == 1
    payload = json.loads((out / "result.json").read_text())
    assert payload["manifest"]["manifest_hash"] == next(iter(run_ids))
    assert payload["method"] == "surgical"
    assert payload["rounds"] == 3
    assert "eval" in payload
    assert set(payload["manifest"]["realized"]["client_classes"][0]) == {0, 1, 2}
    assert (out / "checkpoint.csv").exists()


def test_run_is_byte_deterministic(tmp_path) -> None:
    cfg_path = _write(tmp_path, SMALL_CONFIG)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["run", cfg_path, "--out", str(a)]) == 0
    assert main(["run", cfg_path, "--out", str(b)]) == 0
    assert main(["run", cfg_path, "--out", str(c), "--parallel-clients", "4"]) == 0
    ra = (a / "rounds.csv").read_bytes()
    assert ra == (b / "rounds.csv").read_bytes()
    assert ra == (c / "rounds.csv").read_bytes()
    assert (a / "checkpoint.csv").read_bytes() == (c / "checkpoint.csv").read_bytes()


def test_seed_override_changes_run(tmp_path) -> None:
    cfg_path = _write(tmp_path, SMALL_CONFIG)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["run", cfg_path, "--out", str(a)]) == 0
    assert main(["run", cfg_path, "--out", str(b), "--seed", "99"]) == 0
    assert main(["run", cfg_path, "--out", str(c), "--seed", "99"]) == 0
    assert (a / "rounds.csv").read_bytes() != (b / "rounds.csv").read_bytes()
    assert (b / "rounds.csv").read_bytes() == (c / "rounds.csv").read_bytes()


def test_out_dir_env_override(tmp_path, monkeypatch) -> None:
    cfg_path = _write(tmp_path, SMALL_CONFIG)
    envdir = tmp_path / "from_env"
    monkeypatch.setenv("SURGFED_OUT_DIR", str(envdir))
    assert main(["run", cfg_path, "--out", str(tmp_path / "ignored")]) == 0
    assert (envdir / "rounds.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_exit_codes(tmp_path) -> None:
    bad = _write(tmp_path, {**SMALL_CONFIG, "turbo": True}, "bad.json")
    assert main(["run", bad, "--out", str(tmp_path / "x")]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["run", missing, "--out", str(tmp_path / "x")]) == 1
    broken = {**SMALL_CONFIG, "scenario": {**SMALL_CONFIG["scenario"], "n_per_client": 2}}
    assert main(["run", _write(tmp_path, broken, "b2.json"), "--out", str(tmp_path / "x")]) == 2


def test_pfl_run_reports_undefined_full_set(tmp_path) -> None:
    cfg = {**SMALL_CONFIG, "method": "pfl"}
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "result.json").read_text())
    assert "eval" not in payload
    for entry in payload["client_eval"]:
        assert entry["full_set_mean_auroc"] is None
        assert entry["local"]["mean_auroc"] is not None
    assert (out / "checkpoint_client0.csv").exists()
    assert (out / "checkpoint_client1.csv").exists()


# --- suite ------------------------------------------------------------------


def test_suite_outputs(tmp_path) -> None:
    suite = {
        "reference": "surgical",
        "members": [SMALL_CONFIG, {**SMALL_CONFIG, "method": "vanilla_fl"}],
    }
    out = tmp_path / "out"
    assert main(["suite", _write(tmp_path, suite, "suite.json"), "--out", str(out)]) == 0
    rows = _read_rows(out / "comparison.csv")
    assert len(rows) == 3
    header = rows[0]
    assert header[:5] == ["run_id", "label", "method", "reference", "failed"]
    assert "unique_stars" in header
    by_label = {r[1]: r for r in rows[1:]}
    assert by_label["surgical"][3] == "1"
    assert by_label["vanilla_fl"][3] == "0"
    assert (out / "member_surgical" / "rounds.csv").exists()
    assert (out / "member_vanilla_fl" / "result.json").exists()
    meta = json.loads((out / "suite.json").read_text())
    assert meta["failed"] == []


def test_suite_failure_sets_exit_code(tmp_path) -> None:
    # this step size overflows the weights: a NumericError in round 1
    doomed = {**SMALL_CONFIG, "method": "vanilla_fl", "lr": 1e200}
    suite = {"members": [SMALL_CONFIG, doomed]}
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["suite", _write(tmp_path, suite, "suite.json"), "--out", str(out)]) == 1
    meta = json.loads((out / "suite.json").read_text())
    assert meta["failed"] == ["vanilla_fl"]
    rows = _read_rows(out / "comparison.csv")
    failed_row = [r for r in rows[1:] if r[1] == "vanilla_fl"][0]
    assert failed_row[4] == "1"


def test_suite_with_a_member_split_leaving_no_training_rows_exits_2(tmp_path) -> None:
    """A member whose ``val_fraction`` leaves no training row is a config
    error: the suite exits 2 before its first member trains, and writes
    nothing."""
    empty_split = {**SMALL_CONFIG, "method": "vanilla_fl",
                   "scenario": {**SMALL_CONFIG["scenario"], "n_per_client": 2, "val_fraction": 0.9}}
    out = tmp_path / "out"
    suite = _write(tmp_path, {"members": [SMALL_CONFIG, empty_split]}, "suite.json")
    assert main(["suite", suite, "--out", str(out)]) == 2
    assert not out.exists()


def test_suite_rejects_malformed_file(tmp_path, monkeypatch) -> None:
    """A suite file's top level holds a non-empty ``members`` list and an
    optional ``reference`` string, nothing else; anything else exits 2
    before any member trains or any output exists."""
    import surgfed.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: calls.append(a))
    out = tmp_path / "o"
    two = [SMALL_CONFIG, {**SMALL_CONFIG, "method": "vanilla_fl"}]
    for i, suite in enumerate([
        {"members": []},
        [1, 2],
        {"members": two, "refrence": "vanilla_fl"},  # used to run with reference "surgical"
        {"members": two, "reference": ["vanilla_fl"]},
    ]):
        assert main(["suite", _write(tmp_path, suite, f"s{i}.json"), "--out", str(out)]) == 2
    assert calls == []
    assert not out.exists()


# --- ablation ------------------------------------------------------------------


def test_ablation_clients_reduced(tmp_path) -> None:
    out = tmp_path / "out"
    code = main([
        "ablation", "clients", "--out", str(out),
        "--seeds", "1", "--epochs", "4", "--methods", "surgical,vanilla_fl",
    ])
    assert code == 0
    rows = _read_rows(out / "summary.csv")
    assert rows[0] == ["run_id", "kind", "rung", "method", "mean_auroc", "sd", "n_seeds"]
    assert len(rows) == 1 + 7 * 2  # ladder rungs times methods
    rungs = sorted({int(r[2]) for r in rows[1:]})
    assert rungs == [2, 3, 4, 5, 6, 8, 10]
    assert (out / "clients_rung02_seed0.csv").exists()
    assert (out / "ablation.json").exists()


def test_ablation_shared_reduced(tmp_path) -> None:
    out = tmp_path / "out"
    code = main([
        "ablation", "shared", "--out", str(out),
        "--seeds", "1", "--epochs", "2", "--methods", "surgical",
    ])
    assert code == 0
    rows = _read_rows(out / "summary.csv")
    rungs = sorted({int(r[2]) for r in rows[1:]})
    assert rungs == [0, 1, 2, 4, 8, 12, 14]


def test_ablation_validation(tmp_path, monkeypatch) -> None:
    import surgfed.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    assert main(["ablation", "clients", "--out", str(out), "--seeds", "0"]) == 2
    assert main(["ablation", "clients", "--out", str(out), "--methods", "surgical,telepathy"]) == 2
    # an empty list would write header-only tables, a repeated method every row twice
    assert main(["ablation", "clients", "--out", str(out), "--methods", ","]) == 2
    twice = ["--methods", "surgical,surgical", "--seeds", "2"]
    assert main(["ablation", "clients", "--out", str(out), *twice]) == 2
    assert calls == []
    assert not out.exists()


SUITE_AND_ABLATION_DIGESTS = {
    "suite/comparison.csv": "f591d033b3a03b6f57334d4d1beb054550f38830b13f98b688ba0abc49e5afa4",
    "suite/suite.json": "2061df0b10c36b00d957fd7083827df7051f4d177eca3ca18fe20ebe7739fbd9",
    "ablation/shared_rung00_seed0.csv": "df1dbd755371d6689b4e33ecae066b2ef09f583325a1c78509459adf59647e4f",
    "ablation/shared_rung00_seed1.csv": "4047aba3d1cf6b7ead3888e673d2b32ccc17c43812cc30daabbfbb7dbcd1eb85",
    "ablation/shared_rung01_seed0.csv": "d821a267b99f3f42bd8f964a4b6273062fa37458bac360b435a821a663bfdd74",
    "ablation/shared_rung01_seed1.csv": "37e78b5ae9c134e38b07d1c0e5f0100c9da7450e86bddcfeec4e141ae337d874",
    "ablation/shared_rung02_seed0.csv": "fa04e3028c4ae1ddba2dc207ea5c229e6d738bcb041892bdf85a8ada73f8ecaa",
    "ablation/shared_rung02_seed1.csv": "ac8b6df164dc8314aff939fc347e17eea3bde675f997c22034e06583328f1175",
    "ablation/shared_rung04_seed0.csv": "a97c92ca006ae4d03ef0f336b36e9cae87bafd25b31c3feed9aac2eb3dac8dc9",
    "ablation/shared_rung04_seed1.csv": "3608a4ccad19e1485184da6305ce75194d64ba6a038b9fe693ca35ebb1eff78f",
    "ablation/shared_rung08_seed0.csv": "5390d49c67c8774711e40a1302560703131ceacacadab078499467252096aca6",
    "ablation/shared_rung08_seed1.csv": "6dcae421cc3689d3b2f6ce018d2b09ff4072ae921b89220d2bcac9f310c156fa",
    "ablation/shared_rung12_seed0.csv": "9c2e2fb03df02bba9cd6bcf9422fdece7fcb7d49ff29bcb3d91e4709db74d4be",
    "ablation/shared_rung12_seed1.csv": "b413189cbd43acf7abbe1666f93d65ceff54b8dff0f578c10d9cb32ea920ae1b",
    "ablation/shared_rung14_seed0.csv": "24bfafd085f2564652ff25a56e669a3813893f43865b575ff23d77ff3a40a3dc",
    "ablation/shared_rung14_seed1.csv": "62f0e470c72df598402ecd0dab35b153c6022ebfcac6e3c50091e103b8c1c525",
    "ablation/summary.csv": "99895ee13c3c7fd40c6da08599fd230efdbc872e53382a885454ebb79a8a5740",
    "ablation/ablation.json": "074800076b451172cecb26b2594a2cc6103f22e621aa5dcc8dfffd069d18fe6a",
}


def test_suite_and_ablation_artifacts_match_their_pinned_bytes(tmp_path, monkeypatch) -> None:
    """``comparison.csv``, ``suite.json``, every rung CSV, ``summary.csv``
    and ``ablation.json`` keep their bytes.  The runs are stubbed with
    fixed scores (a failed suite row, an undefined group mean), so the pin
    reads no trained number and holds under any BLAS kernel."""
    import hashlib

    import surgfed.cli as cli
    from surgfed.metrics import EvalResult
    from surgfed.registry import GROUP_NAMES
    from surgfed.simulator import SUITE_GROUPS, GroupStats, SuiteResult, SuiteRow

    ref = SuiteRow("surgical", "surgical", True, False,
                   {g: GroupStats(0.5 + i / 7, i / 9, 4 + i, None, "ref") for i, g in enumerate(SUITE_GROUPS)})
    failed = SuiteRow("vanilla_fl", "vanilla_fl", False, True,
                      {g: GroupStats(None, None, 0, None, "failed") for g in SUITE_GROUPS})
    monkeypatch.setattr(cli, "run_suite", lambda configs, reference: (
        SuiteResult((ref, failed), reference, ("c0", "c1", "c2", "c3")), [None, None]))

    class Run:
        def __init__(self, cfg):
            self.cfg = cfg

        def global_eval(self):
            mean = 0.5 + ABLATION_METHODS.index(self.cfg.method) / 7 + self.cfg.scenario.seed % 97 / 3e3
            groups = {g: None if i == 1 else mean - i / 11 for i, g in enumerate(GROUP_NAMES)}
            return EvalResult({}, mean, groups, (), ())

    monkeypatch.setattr(cli, "run_experiment", Run)
    out = tmp_path / "out"
    suite = {"members": [SMALL_CONFIG, {**SMALL_CONFIG, "method": "vanilla_fl"}]}
    assert cli.cmd_suite(_write(tmp_path, suite, "suite.json"), out / "suite") == 1
    assert cli.cmd_ablation("shared", out / "ablation", seeds=2) == 0
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*.*")) == sorted(SUITE_AND_ABLATION_DIGESTS)
    for name, digest in SUITE_AND_ABLATION_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("option", [["--seed", "-1"], ["--seed", str(2**70)], ["--parallel-clients", "0"]],
                         ids=["negative-seed", "seed-beyond-int64", "no-worker-threads"])
@pytest.mark.parametrize("command", ["run", "suite", "ablation"])
def test_bad_global_options_exit_2_before_any_output(tmp_path, monkeypatch, command, option) -> None:
    """``--seed`` must be a non-negative 64-bit integer and
    ``--parallel-clients`` at least 1, for every subcommand, checked before
    any run starts or any output directory is made."""
    import surgfed.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: calls.append(a))
    target = {
        "run": ["run", _write(tmp_path, SMALL_CONFIG)],
        "suite": ["suite", _write(tmp_path, {"members": [SMALL_CONFIG]}, "suite.json")],
        "ablation": ["ablation", "shared", "--seeds", "1"],
    }[command]
    out = tmp_path / "out"
    assert main([*target, "--out", str(out), *option]) == 2
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [
        ["--methods", "surgical,pfl"],
        ["--methods", "individual"],
        ["--methods", "surgical", "--strategy", "fedbn"],
        ["--methods", "surgical", "--strategy", "fedprox"],
        ["--methods", "surgical", "--epochs", "0"],
    ],
    ids=["pfl", "individual", "fedbn-without-pfl", "unknown-strategy", "zero-epochs"],
)
def test_ablation_preflight_rejects_before_training(tmp_path, monkeypatch, extra) -> None:
    """A method with no global model or an invalid method/strategy pair
    exits 2 before the first rung trains and before any output exists."""
    import surgfed.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    assert main(["ablation", "shared", "--out", str(out), "--seeds", "1", *extra]) == 2
    assert calls == []
    assert not out.exists()


def test_run_manifest_comes_from_the_run_data(tmp_path, monkeypatch) -> None:
    """The scenario is generated once per run; the manifest records what
    that draw realized."""
    import surgfed.simulator as simulator
    from surgfed import generate_synthetic

    calls = []

    def counting(spec):
        calls.append(spec)
        return generate_synthetic(spec)

    monkeypatch.setattr(simulator, "generate_synthetic", counting)
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, SMALL_CONFIG), "--out", str(out)]) == 0
    assert len(calls) == 1
    manifest = json.loads((out / "result.json").read_text())["manifest"]
    expected = json.loads(json.dumps(generate_synthetic(calls[0]).realized()))
    assert manifest["realized"] == expected


def test_ablation_default_method_list() -> None:
    assert ABLATION_METHODS == ("surgical", "vanilla_fl", "fl_partial_loss", "centralized")


# --- console entry point and cold start -------------------------------------


def _fresh_python(*args: str) -> str:
    """Run ``python *args`` in a new interpreter that imports the package
    these tests import, not whatever copy the caller's environment would
    find first; returns its stdout."""
    import os

    import surgfed

    src = str(Path(surgfed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_console_script_is_installed(tmp_path) -> None:
    out = tmp_path / "out"
    _fresh_python("-m", "surgfed.cli", "run", _write(tmp_path, SMALL_CONFIG), "--out", str(out))
    assert (out / "rounds.csv").exists()


def test_a_run_never_imports_scipy_special(tmp_path) -> None:
    """A run loads scipy's ``_special_ufuncs`` C module, for ``expit``, and
    nothing else of ``scipy.special``: importing that package costs a
    process about 0.3 s and 17 MB."""
    code = ("import sys\nimport surgfed.cli as cli\n"
            "assert cli.main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))")
    out = _fresh_python("-c", code, _write(tmp_path, SMALL_CONFIG), str(tmp_path / "out"))
    assert out.splitlines()[-1] == "['scipy.special._special_ufuncs']"
    assert (tmp_path / "out" / "rounds.csv").exists()


_AFTER_IBETA = """
from surgfed import metrics, nn
ibeta = metrics.ibeta()
import scipy.special, scipy.stats
from scipy.special import _special_ufuncs, _ufuncs_cxx
args = [(a, b, x) for a in (0.5, 1.0, 2.5, 30.0) for b in (0.5, 3.0, 7.25) for x in (1e-3, 0.3, 0.5, 0.9)]
same = all(float(scipy.special.betainc(a, b, x)).hex() == ibeta(a, b, x).hex() for a, b, x in args)
p = scipy.stats.ttest_rel([0.61, 0.72, 0.55, 0.9], [0.6, 0.7, 0.58, 0.8]).pvalue
print(nn.expit is scipy.special.expit, same, 0.0 < p < 1.0)
"""


@pytest.mark.parametrize("first", ["surgfed.nn", "scipy.special", "ibeta"])
def test_expit_is_scipy_specials_own_ufunc(first) -> None:
    """Whichever is imported first, ``nn.expit`` is the very object
    ``scipy.special`` hands out, so every value it gives is bitwise
    scipy's.  Once ``metrics.ibeta`` has resolved, ``scipy.special`` and
    ``scipy.stats`` still import, their private C modules too, and
    ``betainc`` is ``ibeta`` bit for bit."""
    if first == "ibeta":
        assert _fresh_python("-c", _AFTER_IBETA).split() == ["True", "True", "True"]
        return
    code = f"import {first}, surgfed.nn, scipy.special; print(surgfed.nn.expit is scipy.special.expit)"
    assert _fresh_python("-c", code).split() == ["True"]


def test_a_suite_resolves_ibeta_before_its_first_member_trains() -> None:
    """The suite's t-tests need ``metrics.ibeta``; it is resolved before
    any member runs, so a broken scipy fails a suite before training, and
    ``scipy.special`` itself is never imported."""
    code = """
import sys, types
from surgfed import metrics, simulator
from surgfed.errors import ConfigError
assert metrics.ibeta.cache_info().currsize == 0
seen = []
def run_experiment(config, *args, **kwargs):
    seen.append((metrics.ibeta.cache_info().currsize, "scipy.special" in sys.modules))
    raise RuntimeError("stub")
simulator.run_experiment = run_experiment
try:
    simulator.run_suite([types.SimpleNamespace(method=m) for m in ("surgical", "vanilla_fl")])
except ConfigError:
    print(seen)
"""
    assert _fresh_python("-c", code).splitlines()[-1] == "[(1, False), (1, False)]"


def test_a_suite_never_imports_scipy_special(tmp_path) -> None:
    """A suite loads two C modules of ``scipy.special``: ``_special_ufuncs``
    for ``expit`` and ``_ufuncs_cxx`` for the t-tests' incomplete beta,
    and not the package, which costs a process about 0.3 s and 17 MB."""
    suite = {"members": [{**SMALL_CONFIG, "T": 2}, {**SMALL_CONFIG, "T": 2, "method": "vanilla_fl"}]}
    code = ("import sys\nimport surgfed.cli as cli\n"
            "assert cli.main(['suite', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))")
    out = _fresh_python("-c", code, _write(tmp_path, suite, "suite.json"), str(tmp_path / "out"))
    assert out.splitlines()[-1] == "['scipy.special._special_ufuncs', 'scipy.special._ufuncs_cxx']"
    rows = _read_rows(tmp_path / "out" / "comparison.csv")
    header = next(r for r in rows if "all_p" in r)
    assert float(rows[-1][header.index("all_p")]) >= 0.0  # the t-test ran


def test_a_broken_ibeta_fails_a_suite_before_training() -> None:
    """A capsule that ``_ufuncs_cxx`` does not export raises ``ImportError``
    naming the file and scipy's version, before any member runs and
    without falling back to ``scipy.special``."""
    code = """
import sys, types
import scipy
from surgfed import metrics, simulator
metrics._IBETA_CAPSULE = "_export_no_such_capsule"
ran = []
simulator.run_experiment = lambda *a, **k: ran.append(a)
try:
    simulator.run_suite([types.SimpleNamespace(method="surgical")])
except ImportError as exc:
    print(exc, scipy.__version__, ran, "scipy.special" in sys.modules, sep=" | ")
"""
    message, version, ran, imported = _fresh_python("-c", code).splitlines()[-1].split(" | ")
    assert "no working ibeta in " in message and "_ufuncs_cxx" in message
    assert message.endswith(f"(scipy {version})")
    assert (ran, imported) == ("[]", "False")


def test_no_module_imports_scipy_special_or_scipy_stats() -> None:
    """``surgfed`` loads single C modules of ``scipy.special``
    (``nn.from_scipy_special``) and never imports that package, or
    ``scipy.stats``, which imports it."""
    import ast

    import surgfed

    banned = ("scipy.special", "scipy.stats")
    files = sorted(Path(surgfed.__file__).parent.glob("*.py"))
    assert "nn.py" in [f.name for f in files]
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names
                      if any(n == b or n.startswith(f"{b}.") for b in banned)]
    assert found == []
