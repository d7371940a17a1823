"""The benchmark under ``perfbench/`` reaches into ``src/`` by name.

``tracer.install`` wraps module-level functions under every module name
the program calls them through, and ``micro.py`` calls single layers
directly.  A rename or signature change those files cannot follow breaks
``perfbench/run.py --trace 1``; these checks make it fail here first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import tracer
import micro

tracer.install(tracer.Tracer())
cases = {**micro._kernel_cases(), **micro._auroc_case()}
cases["merge"] = micro._merge_case(8, 4, [[0, 1, 2, 4], [0, 1, 2, 5], [0, 1, 3, 6], [0, 1, 3, 7]])
for fn in cases.values():
    fn()
"""


def test_tracer_and_microbenchmarks_bind_to_the_program() -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


_TRACED_RUN = """
import json
import sys

import child
import tracer
from surgfed import cli

t = tracer.Tracer()
tracer.install(t)
child._install_probes({"t_setup": None, "experiments": []}, t)
assert cli.main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
print(json.dumps(t.dump()["stats"]))
"""


def _traced_run(tmp_path, config) -> dict:
    """Span counts by (name, parent) of a traced ``surgfed run``."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(cfg_path), str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return {(name, parent): count for name, parent, count, _, _ in json.loads(proc.stdout)}


def test_traced_run_keeps_the_round_loop_spans(tmp_path) -> None:
    """``simulator.test_eval_s`` and ``metrics.evaluate_ms`` come from
    ``simulator.evaluate`` spans opened directly under
    ``simulator.run_experiment``, which ``child.py`` wraps; a run of T=2
    rounds over K=2 clients must close two of them and 2*K validation
    spans.  ``simulator.train_s`` and ``model.local_train_s`` come from
    one ``simulator.train`` span a round, holding one ``local_train``
    span per lock-step group; the two clients share a shape, so one."""
    K = 2
    config = {
        "scenario": {"n_per_client": 40, "d": 4, "M": 3, "K": K, "seed": 5,
                     "assignment": [[0, 1], [1, 2]], "n_test": 50},
        "method": "surgical", "T": 2, "E": 1, "warmup_epochs": 1, "hidden": [4],
    }
    calls = _traced_run(tmp_path, config)
    assert calls.get(("simulator.evaluate", "simulator.run_experiment")) == 2
    assert calls.get(("simulator.val", "simulator.run_experiment")) == 2 * K
    assert calls.get(("simulator.train", "simulator.run_experiment")) == 2
    assert calls.get(("model.local_train", "simulator.train")) == 2


def test_traced_personal_run_scores_its_clients_in_the_run(tmp_path) -> None:
    """A ``pfl`` run scores each client's best model once, in the run:
    K ``simulator.evaluate`` spans directly under
    ``simulator.run_experiment``, so personal scoring counts in the
    ``test_eval`` phase, and none under writing the outputs."""
    K = 3
    config = {
        "scenario": {"n_per_client": 40, "d": 4, "M": 3, "K": K, "seed": 5,
                     "assignment": [[0, 1], [1, 2], [0, 2]], "n_test": 50},
        "method": "pfl", "T": 2, "E": 1, "warmup_epochs": 1, "hidden": [4],
    }
    calls = _traced_run(tmp_path, config)
    scored = {parent: count for (name, parent), count in calls.items() if name == "simulator.evaluate"}
    assert scored == {"simulator.run_experiment": K}
