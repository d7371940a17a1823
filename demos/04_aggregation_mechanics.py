"""The head merge, worked by hand.

Three clients with mismatched label spaces contribute head columns.
Columns for a class are averaged over exactly the clients that hold it,
the bias rides along with its column, and a class owned by one client
passes through untouched.  With identical label spaces the whole scheme
collapses to plain federated averaging.
"""
from __future__ import annotations

import numpy as np

from surgfed import (
    ClassRegistry,
    build_architecture,
    init_model,
    mean_arrays,
    surgical_head_update,
)


def main() -> None:
    registry = ClassRegistry(
        ["shared", "pair", "solo"],
        [(0, 1, 2), (0, 1), (0,)],
    )
    print("owners: class 0 -> all, class 1 -> clients 0+1, class 2 -> client 0 only")

    # two-dimensional features keep the columns readable
    heads = [
        (np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]), np.array([0.1, 0.2, 0.3]), (0, 1, 2)),
        (np.array([[7.0, 9.0], [8.0, 10.0]]), np.array([0.4, 0.5]), (0, 1)),
        (np.array([[11.0], [12.0]]), np.array([0.6]), (0,)),
    ]
    global_W, global_b = surgical_head_update(heads, registry)
    print("\nmerged head columns:")
    print(f"  class 0: {global_W[:, 0]} bias {global_b[0]:.4f}   (mean of three)")
    print(f"  class 1: {global_W[:, 1]} bias {global_b[1]:.4f}   (mean of two)")
    print(f"  class 2: {global_W[:, 2]} bias {global_b[2]:.4f}   (client 0 verbatim)")

    cols = list(registry.client_classes[2])
    w, b = global_W[:, cols], global_b[cols]
    print(f"\nsent back to client 2 (one class): W {w.ravel()}, b {b}")

    print("\nwith every class shared, the merge is classical averaging:")
    arch = build_architecture(4, hidden=(5,))
    full = ClassRegistry(["a", "b"], [(0, 1)] * 3)
    models = [init_model(arch, 2, seed=s) for s in (1, 2, 3)]
    merged_W, merged_b = surgical_head_update(
        [(m.head_W, m.head_b, (0, 1)) for m in models], full
    )
    plain_W = mean_arrays([m.head_W for m in models])
    plain_b = mean_arrays([m.head_b for m in models])
    print(f"  head gap vs plain FedAvg: {np.abs(merged_W - plain_W).max():.1f}")
    print(f"  bias gap:                 {np.abs(merged_b - plain_b).max():.1f}")

    print("\nmean_arrays accumulates left to right, so reruns are bit-identical:")
    cols = [np.array([0.1, 0.2]), np.array([0.3, 0.4]), np.array([0.5, 0.6])]
    a = mean_arrays(cols)
    b2 = mean_arrays([c.copy() for c in cols])
    print(f"  identical bytes: {bool(np.array_equal(a, b2))}")


if __name__ == "__main__":
    main()
