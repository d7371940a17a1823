"""Synthetic multi-label scenarios with controlled heterogeneity.

Each class is a random linear rule over the features.  Clients can
differ in which classes they label (the assignment), in their feature
distribution (a per-client mean shift), and labels can carry symmetric
noise.  The shared test pool always comes from the unshifted base
distribution.
"""
from __future__ import annotations

import numpy as np

from surgfed import (
    ScenarioSpec,
    generate_synthetic,
    scatter_restricted,
)


def main() -> None:
    spec = ScenarioSpec(
        n_per_client=500,
        d=12,
        M=8,
        K=3,
        seed=2024,
        shared_count=2,
        unique_count=6,
        skew="feature_shift",
        shift_sigma=1.0,
        label_noise=0.05,
    )
    data = generate_synthetic(spec)

    print("derived assignment: shared classes first, then per-client unique ones:")
    for k, client in enumerate(data.clients):
        print(f"  client {k}: {client.classes}")

    print("\nsplit sizes and label balance on client 0:")
    c0 = data.clients[0]
    print(f"  train {c0.train.n} samples, val {c0.val.n} samples")
    for j, c in enumerate(c0.classes):
        rate = c0.train.y[:, j].mean()
        print(f"  class {c}: positive rate {rate:.2f} in train")

    print("\nfeature shift moves client means off the origin:")
    for k, client in enumerate(data.clients):
        norm = np.linalg.norm(client.train.x.mean(axis=0))
        print(f"  client {k}: mean norm {norm:.2f} (target {spec.shift_sigma:.2f})")
    print(f"  test pool: mean norm {np.linalg.norm(data.test.x.mean(axis=0)):.2f} (centred)")

    print("\nwidth helpers translate between restricted and full label matrices:")
    y_full = data.test.y[:5]
    restricted = y_full[:, list(c0.classes)]
    widened = scatter_restricted(restricted, c0.classes, spec.M)
    print(f"  scatter_restricted fills missing classes with 0: row 0 -> {widened[0].astype(int)}")

    again = generate_synthetic(spec)
    same = all(
        np.array_equal(a.train.x, b.train.x) for a, b in zip(data.clients, again.clients)
    )
    print(f"\nsame spec, same bytes: {same}")


if __name__ == "__main__":
    main()
