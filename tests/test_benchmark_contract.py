"""The benchmark under ``perfbench/`` reaches into ``src/`` by name.

``tracer.install`` wraps module-level functions under every module name
the program calls them through, and ``micro.py`` calls single layers
directly.  A rename or signature change those files cannot follow breaks
``perfbench/run.py --trace 1``; these checks make it fail here first.
"""

from __future__ import annotations

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
