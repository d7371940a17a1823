"""Record the artifact digests the benchmark checks runs against.

    python3 perfbench/pin_digests.py --src <checkout>/src

runs every workload once for each of the seeds 0-31 through
``python3 -m surgfed.cli`` with the package at ``--src`` and merges the
digests into ``perfbench/digests.json``.  The committed table was produced from the
commit that introduced the benchmark; re-pin only when a change is
meant to alter the artifacts, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads


def pin(src: Path, workload: str, seed: int, scratch: Path) -> dict[str, str]:
    cfg_path = scratch / f"{workload}.json"
    workloads.write_config(workload, "full", cfg_path)
    out = scratch / f"{workload}-{seed}"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-m", "surgfed.cli", workloads.subcommand(workload), str(cfg_path),
         "--out", str(out), "--seed", str(seed)],
        env=env, check=True,
    )
    digests = workloads.artifact_digests(out)
    shutil.rmtree(out)
    return digests


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, type=Path, help="directory holding the surgfed package")
    args = ap.parse_args()
    table = json.loads(workloads.DIGEST_FILE.read_text()) if workloads.DIGEST_FILE.exists() else {}
    scratch = Path(__file__).parent / "out"  # ignored by git, like every run's output
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for seed in range(32):
            for w in workloads.WORKLOADS:
                table.setdefault(w, {})[str(seed)] = pin(args.src.resolve(), w, seed, Path(tmp))
                workloads.DIGEST_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
                print(f"pinned {w} seed {seed}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
