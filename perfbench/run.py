"""surgfed benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Every run of the program happens in a
fresh ``python3 perfbench/child.py`` process, so interpreter start-up,
the ``import surgfed`` step and peak memory are part of what is
measured.  Runs are closed loop: one child at a time, BLAS at the
process default.

``--trace 0`` makes full runs until ``--seconds`` have passed (at least
``MIN_REPS``) and reports the end-to-end metrics as medians over them.

``--trace 1`` makes one untraced run, one traced run, one traced run
with BLAS pinned to one thread and one microbenchmark process, and
reports the per-layer metrics.

Every full run's byte-compared artifacts must match the digests the
seed commit produced (``digests.json``, where the seed is pinned) and
those of every other run in the invocation; the exact counts of the two
traced runs must match too.  A mismatch or a non-zero exit counts as a
failed operation and makes the benchmark exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human-readable
table goes to standard error and the full record, with the environment
stamp and the spans, to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_REPS = 2
CHILD_TIMEOUT_S = 150
# stop starting children that could end past the 180 s a run may take
DEADLINE_S = 165

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "test_mean_auroc": "auroc",
}

SIM_PHASES = ("warmup", "train", "aggregate", "val", "test_eval", "datagen", "loop", "suite")
CLI_PHASES = ("parse", "manifest", "write", "cli")
KERNELS = {"forward": "nn.forward", "backward": "nn.backward", "loss": "nn.loss", "sgd_step": "nn.sgd_step"}
AGGREGATE_SPANS = ("aggregation.server_update", "simulator.full_fedavg_update", "simulator.pfl_update")
PER_LAYER = {
    **{f"simulator.{p}_s": "s" for p in ("warmup", "train", "aggregate", "val", "test_eval", "datagen")},
    **{f"simulator.{p}_self_s": "s" for p in SIM_PHASES},
    "simulator.train_s.blas1": "s",
    "process.startup_s": "s",
    "cli.import_s": "s",
    "cli.parse_ms": "ms",
    "cli.manifest_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    **{f"cli.{p}_self_s": "s" for p in CLI_PHASES if p != "cli"},
    "cli.main_self_s": "s",
    **{f"nn.{k}_calls": "count" for k in KERNELS},
    **{f"nn.{k}_self_s": "s" for k in KERNELS},
    "nn.forward_b32_us": "us",
    "nn.backward_b32_us": "us",
    "nn.loss_b32_us": "us",
    "nn.sgd_step_b32_us": "us",
    "nn.bare_forward_b32_us": "us",
    "nn.forward_eval_n2000_ms": "ms",
    "model.sgd_steps": "count",
    "model.local_train_s": "s",
    "model.checkpoint_write_s": "s",
    "model.checkpoint_bytes": "bytes",
    "aggregation.server_update_ms": "ms",
    "aggregation.surgical_head_update_ms": "ms",
    "aggregation.mean_arrays_calls": "count/round",
    "aggregation.upload_bytes": "bytes/round",
    "aggregation.download_bytes": "bytes/round",
    "aggregation.head_merge_M8K4_ms": "ms",
    "aggregation.head_merge_M100K20_ms": "ms",
    "aggregation.head_merge_M500K50_ms": "ms",
    "metrics.evaluate_ms": "ms",
    "metrics.auroc_calls": "count",
    "metrics.auroc_n2000_us": "us",
    "registry.clients_with_class_calls": "count/round",
    "data.generate_calls": "count",
    "data.generate_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


class Session:
    """The children of one benchmark invocation and their bookkeeping."""

    def __init__(self, workload: str, seed: int, scale: str, trace: int):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.dir = OUT / f"{workload}-{scale}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        workloads.write_config(workload, scale, self.config)
        self.pinned = workloads.pinned_digests(workload, seed) if scale == "full" else None
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_digests: dict | None = None

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def fail(self, tag: str, why: str) -> None:
        self.failures.append(f"{tag}: {why}")
        print(f"FAILED {tag}: {why}", file=sys.stderr)

    def spawn(self, mode: str, tag: str, env_extra=None) -> dict | None:
        """Run one child; returns its record with the parent's spawn time
        added, or None when the child failed."""
        d = self.dir / tag
        d.mkdir()
        artifacts = d / "artifacts"
        req = {
            "mode": mode,
            "src": str(SRC),
            "record": str(d / "record.json"),
            "argv": [workloads.subcommand(self.workload), str(self.config), "--out", str(artifacts),
                     "--seed", str(self.seed)],
        }
        (d / "request.json").write_text(json.dumps(req))
        env = dict(os.environ, **(env_extra or {}))
        env.pop("SURGFED_OUT_DIR", None)  # would send the artifacts elsewhere
        self.attempted += 1
        with open(d / "stderr.log", "w") as log:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(d / "request.json")],
                                    stdout=log, stderr=log, cwd=ROOT, env=env)
            try:
                rc = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = "timeout"
        t_exit = time.perf_counter()
        if rc != 0 or not (d / "record.json").exists():
            tail = (d / "stderr.log").read_text()[-2000:]
            self.fail(tag, f"child exited with {rc}\n{tail}")
            return None
        rec = json.loads((d / "record.json").read_text())
        rec.update(t_spawn=t_spawn, t_exit=t_exit, artifacts=str(artifacts))
        if mode != "micro":
            if rec["exit_code"] != 0:
                self.fail(tag, f"surgfed exited with {rec['exit_code']}")
                return None
            if not self.check_digests(tag, artifacts):
                return None
        return rec

    def check_digests(self, tag: str, artifacts: Path) -> bool:
        digests = workloads.artifact_digests(artifacts)
        if not digests:
            self.fail(tag, "no byte-compared artifacts were written")
            return False
        if self.pinned is not None and digests != self.pinned:
            bad = sorted(k for k in set(digests) | set(self.pinned) if digests.get(k) != self.pinned.get(k))
            self.fail(tag, f"artifacts differ from the pinned digests: {bad}")
            return False
        if self.reference_digests is None:
            self.reference_digests = digests
        elif digests != self.reference_digests:
            self.fail(tag, "artifacts differ from those of an earlier run of the same seed")
            return False
        return True


# --- reading a finished run -------------------------------------------------------


def _round_latencies_ms(rec: dict) -> list[float]:
    """One sample per communication round.  A suite sample is one round of
    every member (their r-th round latencies summed): members differ in
    per-round cost, and pooling their rounds would make the distribution
    multimodal and its quantiles jump between the modes."""
    per_exp = []
    for exp in rec["experiments"]:
        ts = [exp["t_warmup_end"]] + exp["rounds"]
        per_exp.append([(b - a) * 1e3 for a, b in zip(ts, ts[1:])])
    return [sum(r) for r in zip(*per_exp)]


def _samples_trained(artifacts: Path) -> int:
    """Client training samples processed: warmup plus local epochs, all
    clients, every experiment; read back from the manifests."""
    total = 0
    for path in sorted(artifacts.rglob("result.json")):
        manifest = json.loads(path.read_text())["manifest"]
        epochs = manifest["config"]["warmup_epochs"] + manifest["config"]["T"]
        total += sum(manifest["realized"]["n_train_per_client"]) * epochs
    return total


def _test_mean_auroc(workload: str, artifacts: Path) -> float:
    if workload == "method_suite":
        with open(artifacts / "comparison.csv", newline="") as f:
            row = next(r for r in csv.DictReader(f) if r["reference"] == "1")
        return float(row["all_mean"])
    return json.loads((artifacts / "result.json").read_text())["eval"]["mean_auroc"]


def _bytes(artifacts: Path, prefix: str = "") -> int:
    return sum(p.stat().st_size for p in artifacts.rglob(prefix + "*") if p.is_file())


def _percentiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


# --- the two kinds of run ------------------------------------------------------------


def measure(s: Session, seconds: float) -> tuple[dict, dict]:
    setups, walls, rounds, rates, rss = [], [], [], [], []
    auroc = None
    n, last = 0, 0.0
    while n < MIN_REPS or s.elapsed() < seconds:
        if s.elapsed() + last > DEADLINE_S:
            break
        t = s.elapsed()
        rec = s.spawn("plain", f"run{n}")
        last = s.elapsed() - t
        n += 1
        if rec is None:
            continue
        art = Path(rec["artifacts"])
        wall = rec["t_done"] - rec["t_spawn"]
        setup = rec["t_setup"] - rec["t_spawn"]
        walls.append(wall)
        setups.append(setup)
        rounds += _round_latencies_ms(rec)
        rates.append(_samples_trained(art) / (wall - setup))
        rss.append(rec["maxrss_kb"] / 1024.0)
        if auroc is None:
            auroc = _test_mean_auroc(s.workload, art)
        env = rec["env"]
        shutil.rmtree(art)
    if not walls:
        return {}, {"error": "no run finished"}
    p50, p90 = _percentiles(rounds)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "round_ms_p50": p50,
        "round_ms_p90": p90,
        "samples_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(rss),
        "test_mean_auroc": auroc,
    }
    detail = {
        "env": env,
        "walls_s": walls,
        "setups_s": setups,
        "round_samples": len(rounds),
        "samples_per_s": rates,
        "peak_rss_mb": rss,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, detail


class Trace:
    """Per-layer numbers out of one traced record."""

    def __init__(self, rec: dict):
        self.rec = rec
        self.stats = rec["trace"]["stats"]
        self.phase = rec["trace"]["phase_self_s"]
        self.counts = rec["trace"]["counts"]

    def total(self, name: str, parent: str | None = None) -> tuple[int, float, float]:
        n, inc, own = 0, 0.0, 0.0
        for nm, par, c, i, o in self.stats:
            if nm == name and (parent is None or par == parent):
                n, inc, own = n + c, inc + i, own + o
        return n, inc, own

    def per_call_ms(self, name: str, parent: str | None = None) -> float:
        n, inc, _ = self.total(name, parent)
        return inc / n * 1e3 if n else 0.0

    def n_rounds(self) -> int:
        return sum(len(exp["rounds"]) for exp in self.rec["experiments"])

    def exact_counts(self) -> dict:
        agg_rounds = self.counts.get("aggregation.rounds", 0)
        per_round = (lambda v: v / agg_rounds) if agg_rounds else (lambda v: 0.0)
        return {
            "model.sgd_steps": self.total("nn.sgd_step", "model.train_epoch")[0],
            "aggregation.mean_arrays_calls": per_round(self.total("aggregation.mean_arrays")[0]),
            "aggregation.upload_bytes": per_round(self.counts.get("aggregation.upload_bytes", 0)),
            "aggregation.download_bytes": per_round(self.counts.get("aggregation.download_bytes", 0)),
            "registry.clients_with_class_calls": self.total("registry.clients_with_class")[0] / self.n_rounds(),
            "data.generate_calls": self.total("data.generate_synthetic")[0],
            "metrics.auroc_calls": self.total("metrics.auroc")[0],
        }

    def wall(self) -> float:
        return self.rec["t_done"] - self.rec["t_spawn"]

    def layer_metrics(self) -> dict:
        rec = self.rec
        in_run = "simulator.run_experiment"
        startup = rec["t_start"] - rec["t_spawn"]
        import_s = rec["t_import"][1] - rec["t_import"][0]
        m = {
            "simulator.warmup_s": self.total("simulator.warmup")[1],
            "simulator.train_s": self.total("simulator.train")[1],
            "simulator.aggregate_s": sum(self.total(n)[1] for n in AGGREGATE_SPANS),
            "simulator.val_s": self.total("simulator.val")[1],
            "simulator.test_eval_s": self.total("simulator.evaluate", in_run)[1],
            "simulator.datagen_s": self.total("data.generate_synthetic", in_run)[1],
            **{f"simulator.{p}_self_s": self.phase.get(p, 0.0) for p in SIM_PHASES},
            "process.startup_s": startup,
            "cli.import_s": import_s,
            "cli.parse_ms": self.per_call_ms("cli.parse"),
            "cli.manifest_s": self.total("cli.manifest")[1],
            "cli.write_s": self.total("cli.write")[1],
            **{f"cli.{p}_self_s": self.phase.get(p, 0.0) for p in CLI_PHASES if p != "cli"},
            "cli.main_self_s": self.phase.get("cli", 0.0),
            "model.local_train_s": self.total("model.local_train")[1],
            "model.checkpoint_write_s": self.total("model.save_checkpoint")[1],
            "aggregation.server_update_ms": self.per_call_ms("aggregation.server_update"),
            "aggregation.surgical_head_update_ms": self.per_call_ms("aggregation.surgical_head_update"),
            "metrics.evaluate_ms": self.per_call_ms("simulator.evaluate", in_run),
            "data.generate_s": self.total("data.generate_synthetic")[1],
            "trace.wall_s": self.wall(),
            "trace.unaccounted_s": self.wall() - startup - import_s - sum(self.phase.values()),
        }
        for k, span in KERNELS.items():
            n, _, own = self.total(span, "model.train_epoch")
            m[f"nn.{k}_calls"] = n
            m[f"nn.{k}_self_s"] = own
        m.update(self.exact_counts())
        return m


def trace(s: Session) -> tuple[dict, dict]:
    plain = s.spawn("plain", "untraced")
    traced = s.spawn("traced", "traced")
    blas1 = s.spawn("traced", "traced_blas1", {"OPENBLAS_NUM_THREADS": "1"})
    micro = s.spawn("micro", "micro")
    if None in (plain, traced, blas1, micro):
        return {}, {"error": "a child failed"}
    t, t1 = Trace(traced), Trace(blas1)
    m = t.layer_metrics()
    art = Path(traced["artifacts"])
    m["model.checkpoint_bytes"] = _bytes(art, "checkpoint")
    m["cli.bytes_written"] = _bytes(art)
    untraced_wall = plain["t_done"] - plain["t_spawn"]
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = t.wall() - untraced_wall
    m["simulator.train_s.blas1"] = t1.total("simulator.train")[1]
    for name, row in micro["micro"].items():
        m[name] = row["value"]
    counts, counts1 = t.exact_counts(), t1.exact_counts()
    if counts != counts1:
        s.fail("counts", f"exact counts differ between the traced runs: {counts} vs {counts1}")
    phases = {p: traced["trace"]["phase_self_s"].get(p, 0.0) for p in SIM_PHASES + CLI_PHASES}
    detail = {
        "env": traced["env"],
        "env_blas1": blas1["env"],
        "exact_counts": [counts, counts1],
        "phase_self_s": phases,
        "micro_vs_roadmap": micro["micro"],
        "trace": traced["trace"],
    }
    for rec in (plain, traced, blas1):
        shutil.rmtree(rec["artifacts"])
    return {k: {"value": m[k], "unit": PER_LAYER[k]} for k in PER_LAYER}, detail


# --- reporting ----------------------------------------------------------------------------


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # never let git search above the checkout
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _print_table(metrics: dict, detail: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    micro = detail.get("micro_vs_roadmap")
    if micro:
        print("  microbenchmark vs ROADMAP figure (ratio; off = outside 2/3..3/2):", file=sys.stderr)
        for name, row in micro.items():
            fig = row["roadmap"]
            if fig is None:
                print(f"    {name:40s} {row['value']:10.4g} {row['unit']}  (no single figure)", file=sys.stderr)
                continue
            ratio = row["value"] / fig
            flag = "" if 2 / 3 <= ratio <= 1.5 else "  off"
            print(f"    {name:40s} {row['value']:10.4g} vs {fig:g} {row['unit']}  x{ratio:.2f}{flag}",
                  file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="surgfed benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=workloads.SCALES,
                    help="tiny shrinks every workload, for the harness self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "surgfed" / "__init__.py").is_file():
        print(f"error: no surgfed package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    stamp = {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS_set": "OPENBLAS_NUM_THREADS" in os.environ,
        "loadavg_1m_start": os.getloadavg()[0],
    }
    s = Session(args.workload, args.seed, args.scale, args.trace)
    metrics, detail = trace(s) if args.trace else measure(s, args.seconds)
    stamp["loadavg_1m_end"] = os.getloadavg()[0]
    stamp.update(detail.pop("env", {}))

    correct = not s.failures and bool(metrics)
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": s.elapsed(), "env": stamp,
        "digests_pinned": s.pinned is not None, "digests": s.reference_digests,
        "failures": s.failures, "metrics": metrics, **detail,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(s.dir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed} ({'traced' if args.trace else 'end to end'}, "
          f"{s.elapsed():.1f} s, digests {'pinned' if s.pinned else 'not pinned for this seed'}):",
          file=sys.stderr)
    _print_table(metrics, record)
    print(f"  record: {path.relative_to(ROOT)}", file=sys.stderr)
    failed = min(len(s.failures), s.attempted)
    summary = {"correct": correct, "attempted": s.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
