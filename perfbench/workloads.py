"""Workload definitions and the byte-compared artifact digests.

Every workload is one CLI invocation (``surgfed run`` or ``surgfed
suite``) on a config this module writes.  The benchmark seed reaches
the program only through the CLI's ``--seed`` flag, which replaces the
scenario seed and re-derives the init and shuffle seeds.

``scale="tiny"`` shrinks every workload so the harness self-test runs
in seconds; benchmark runs use ``scale="full"``.

Why each workload exists, and which metrics it is meant to move, is
written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

WORKLOADS = ("reference", "wide_federation", "method_suite")
SCALES = ("full", "tiny")

# configs/reference_run.json, copied so later edits to configs/ cannot
# silently change what the benchmark measures
_REFERENCE_SCENARIO = {
    "n_per_client": 2000,
    "d": 20,
    "M": 8,
    "K": 4,
    "seed": 100,
    "assignment": [[0, 1, 2, 4], [0, 1, 2, 5], [0, 1, 3, 6], [0, 1, 3, 7]],
    "skew": "feature_shift",
    "shift_sigma": 0.75,
    "label_noise": 0.05,
}
_REFERENCE = {"scenario": _REFERENCE_SCENARIO, "method": "surgical", "T": 100, "E": 1, "lr": 0.05}

# 50 classes held by every client plus 450 unique ones, 9 per client
_WIDE = {
    "scenario": {
        "n_per_client": 300,
        "d": 20,
        "M": 500,
        "K": 50,
        "seed": 100,
        "shared_count": 50,
        "unique_count": 450,
        "skew": "feature_shift",
        "shift_sigma": 0.75,
        "label_noise": 0.05,
    },
    "method": "surgical",
    "strategy": "fedavg",
    "T": 20,
    "E": 1,
    "lr": 0.05,
}

# configs/method_suite.json with T cut from 100 to 20 rounds, so that
# one run of the suite fits the benchmark's time budget more than once
_SUITE_METHODS = (
    {"method": "surgical"},
    {"method": "vanilla_fl"},
    {"method": "fl_partial_loss"},
    {"method": "pfl", "strategy": "fedbn"},
    {"method": "centralized"},
)
_SUITE_T = 20


def _suite() -> dict:
    members = []
    for extra in _SUITE_METHODS:
        member = {"scenario": copy.deepcopy(_REFERENCE_SCENARIO), "T": _SUITE_T, "E": 1, "lr": 0.05}
        member.update(extra)
        members.append(member)
    return {"reference": "surgical", "members": members}


def _shrink(cfg: dict) -> dict:
    """Tiny variant of one experiment config for the self-test."""
    cfg = copy.deepcopy(cfg)
    sc = cfg["scenario"]
    sc["n_per_client"] = 120
    sc["n_test"] = 300
    if sc["M"] > 8:
        sc.update(M=12, K=4, shared_count=4, unique_count=8)
    cfg["T"] = 3
    cfg["warmup_epochs"] = 1
    return cfg


def subcommand(workload: str) -> str:
    return "suite" if workload == "method_suite" else "run"


def config(workload: str, scale: str = "full") -> dict:
    """The JSON document handed to the CLI for a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    if workload == "reference":
        cfg = copy.deepcopy(_REFERENCE)
    elif workload == "wide_federation":
        cfg = copy.deepcopy(_WIDE)
    else:
        cfg = _suite()
    if scale == "tiny":
        if workload == "method_suite":
            cfg["members"] = [_shrink(m) for m in cfg["members"]]
        else:
            cfg = _shrink(cfg)
    return cfg


def write_config(workload: str, scale: str, path: Path) -> None:
    with open(path, "w") as f:
        json.dump(config(workload, scale), f, indent=2)
        f.write("\n")


# --- byte-compared artifacts --------------------------------------------------


def _is_compared(name: str) -> bool:
    return name in ("rounds.csv", "comparison.csv", "result.json") or (
        name.startswith("checkpoint") and name.endswith(".csv")
    )


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every byte-compared artifact under ``out_dir``, keyed by
    its path relative to ``out_dir``.  ``result.json`` is hashed with its
    ``timing`` block removed, re-serialised the way the CLI writes it."""
    out_dir = Path(out_dir)
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file() or not _is_compared(path.name):
            continue
        if path.name == "result.json":
            with open(path) as f:
                payload = json.load(f)
            payload.pop("timing", None)
            blob = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        else:
            blob = path.read_bytes()
        digests[path.relative_to(out_dir).as_posix()] = hashlib.sha256(blob).hexdigest()
    return digests


DIGEST_FILE = Path(__file__).with_name("digests.json")


def pinned_digests(workload: str, seed: int) -> dict[str, str] | None:
    """Digests the seed commit produced for this workload and seed at full
    scale, or None when that seed was not pinned."""
    with open(DIGEST_FILE) as f:
        table = json.load(f)
    return table.get(workload, {}).get(str(seed))
