"""Microbenchmarks of single layers at fixed, seeded shapes.

Each case is warmed up, then timed as ``REPEATS`` loops of enough calls
to last about ``LOOP_S``; the reported figure is the median per-call
time over the loops.  Shapes follow the reference workload: d=20,
hidden (32, 16) with batch-norm, a 4-column head, batch 32.

``ROADMAP_FIGURES`` are the per-call figures ROADMAP.md quotes for the
seed code; the harness reports each measurement next to them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 7
LOOP_S = 0.03

# metric name -> (unit, figure quoted in ROADMAP.md)
ROADMAP_FIGURES = {
    "nn.forward_b32_us": ("us", 87.0),
    "nn.backward_b32_us": ("us", 134.0),
    "nn.loss_b32_us": ("us", 34.0),
    "nn.sgd_step_b32_us": ("us", 20.0),
    "nn.bare_forward_b32_us": ("us", 13.0),
    "nn.forward_eval_n2000_ms": ("ms", None),  # ROADMAP: "1-6 ms, noisy across processes"
    "metrics.auroc_n2000_us": ("us", 260.0),
    "aggregation.head_merge_M8K4_ms": ("ms", 0.07),
    "aggregation.head_merge_M100K20_ms": ("ms", 2.3),
    "aggregation.head_merge_M500K50_ms": ("ms", 52.0),
}
_SCALE = {"us": 1e6, "ms": 1e3}


def _per_call(fn) -> float:
    """Median seconds per call of ``fn()``."""
    for _ in range(3):
        fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    n = max(1, int(LOOP_S / once))
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def _kernel_cases() -> dict:
    from surgfed.model import init_model
    from surgfed.nn import backward, build_architecture, forward, masked_bce_loss, sgd_step

    rng = np.random.default_rng(20230116)
    arch = build_architecture(20, (32, 16), True)
    params = init_model(arch, 4, seed=7, class_ids=[0, 1, 2, 4])
    x = rng.standard_normal((32, 20))
    y = (rng.random((32, 4)) < 0.5).astype(np.float64)
    x_eval = rng.standard_normal((2000, 20))
    cols = (0, 1, 2, 3)
    acts, p = forward(params, arch, x, "train")
    grads = backward(params, arch, acts, p, y, cols)

    f = params.feature

    def bare_forward():
        # the three matmuls of forward() with their bias adds, nothing else
        h = x @ f["0.W"] + f["0.b"]
        h = h @ f["3.W"] + f["3.b"]
        return h @ params.head_W + params.head_b

    return {
        "nn.forward_b32_us": lambda: forward(params, arch, x, "train"),
        "nn.backward_b32_us": lambda: backward(params, arch, acts, p, y, cols),
        "nn.loss_b32_us": lambda: masked_bce_loss(p, y, cols),
        "nn.sgd_step_b32_us": lambda: sgd_step(params, grads, 0.05),
        "nn.bare_forward_b32_us": bare_forward,
        "nn.forward_eval_n2000_ms": lambda: forward(params, arch, x_eval, "eval"),
    }


def _auroc_case() -> dict:
    from surgfed.metrics import auroc

    rng = np.random.default_rng(20230117)
    scores = rng.random(2000)
    labels = (rng.random(2000) < 0.3).astype(np.float64)
    return {"metrics.auroc_n2000_us": lambda: auroc(scores, labels)}


def _merge_case(M: int, K: int, assignment=None):
    from surgfed.aggregation import surgical_head_update
    from surgfed.data import ScenarioSpec, resolve_assignment
    from surgfed.registry import ClassRegistry

    if assignment is None:
        spec = ScenarioSpec(n_per_client=100, d=20, M=M, K=K, seed=0,
                            shared_count=M // 10, unique_count=M - M // 10)
        assignment = resolve_assignment(spec)
    registry = ClassRegistry([f"c{i:03d}" for i in range(M)], assignment)
    rng = np.random.default_rng([20230118, M, K])
    heads = [
        (rng.standard_normal((16, len(cs))), rng.standard_normal(len(cs)), tuple(cs))
        for cs in registry.client_classes
    ]
    return lambda: surgical_head_update(heads, registry)


def run_all() -> dict:
    """Every microbenchmark, as {name: {"value", "unit", "roadmap"}}."""
    cases = _kernel_cases()
    cases.update(_auroc_case())
    cases["aggregation.head_merge_M8K4_ms"] = _merge_case(
        8, 4, [[0, 1, 2, 4], [0, 1, 2, 5], [0, 1, 3, 6], [0, 1, 3, 7]])
    cases["aggregation.head_merge_M100K20_ms"] = _merge_case(100, 20)
    cases["aggregation.head_merge_M500K50_ms"] = _merge_case(500, 50)
    out = {}
    for name, fn in cases.items():
        unit, figure = ROADMAP_FIGURES[name]
        out[name] = {"value": _per_call(fn) * _SCALE[unit], "unit": unit, "roadmap": figure}
    return out
