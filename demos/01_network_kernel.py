"""Tour of the float64 network kernel.

Builds the default two-hidden-layer stack, runs a forward pass in both
modes, checks one analytic gradient against finite differences, and
takes a few SGD steps on a fixed batch to watch the masked loss fall.
"""
from __future__ import annotations

import numpy as np

from surgfed import (
    build_architecture,
    forward,
    init_model,
    masked_bce_loss,
    sgd_step,
)
from surgfed.nn import backward


def main() -> None:
    arch = build_architecture(5)
    print("layer stack:")
    for i, spec in enumerate(arch.feature_specs):
        print(f"  {i}: {spec.kind:10s} {spec.in_dim or ''} -> {spec.out_dim or ''}")
    print(f"feature output width: {arch.feature_out_dim}")

    params = init_model(arch, head_classes=3, seed=7)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 5))
    y = (rng.random((16, 3)) < 0.5).astype(float)

    acts, p = forward(params, arch, x, mode="train")
    print(f"\ntrain-mode probabilities: shape {p.shape}, range [{p.min():.3f}, {p.max():.3f}]")
    _, p_eval = forward(params, arch, x, mode="eval")
    print(f"eval mode uses running stats, so outputs differ: max gap {np.abs(p - p_eval).max():.4f}")

    loss = masked_bce_loss(p, y, mask=[0, 1, 2])
    print(f"\nmasked loss over all three columns: {loss:.6f}")
    print(f"a coin-flip predictor would score ln 2 = {np.log(2):.6f}")

    # one entry of the head weight, checked numerically
    grads = backward(params, arch, acts, p, y, [0, 1, 2])
    h = 1e-6
    up, down = params.copy(), params.copy()
    up.head_W[0, 0] += h
    down.head_W[0, 0] -= h
    numeric = (
        masked_bce_loss(forward(up, arch, x, "train")[1], y, [0, 1, 2])
        - masked_bce_loss(forward(down, arch, x, "train")[1], y, [0, 1, 2])
    ) / (2 * h)
    print(f"\nhead_W[0,0] gradient: analytic {grads.head_W[0, 0]:+.8f}, numeric {numeric:+.8f}")

    print("\nten SGD steps on the same batch:")
    for step in range(10):
        acts, p = forward(params, arch, x, "train")
        loss = masked_bce_loss(p, y, [0, 1, 2])
        grads = backward(params, arch, acts, p, y, [0, 1, 2])
        params = sgd_step(params, grads, lr=0.5)
        if step % 3 == 0 or step == 9:
            print(f"  step {step}: loss {loss:.6f}")

    print("\na heads-only step (the warmup's) hands back the feature arrays, untouched:")
    acts, p = forward(params, arch, x, "train")
    grads = backward(params, arch, acts, p, y, [0, 1, 2])
    stepped = sgd_step(params, grads, lr=0.5, heads_only=True)
    print(f"  feature array reused: {stepped.feature['0.W'] is params.feature['0.W']}")
    print(f"  head moved: {bool((stepped.head_W != params.head_W).any())}")


if __name__ == "__main__":
    main()
