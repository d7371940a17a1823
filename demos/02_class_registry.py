"""Who holds which class: registries and the sharing profile.

A registry records, for every global class, the set of clients whose
label space contains it.  Everything the aggregator needs to merge
mismatched heads is derived from this one structure.
"""
from __future__ import annotations

from surgfed import (
    ClassRegistry,
    clients_with_class,
    sharing_profile,
)


def main() -> None:
    # two sites with overlapping label spaces: the first annotates
    # classes 0..13, the second 7..19, so 7..13 are shared
    names = [f"finding_{i:02d}" for i in range(20)]
    registry = ClassRegistry(names, [range(14), range(7, 20)])

    print(f"{registry.n_clients} clients over {registry.n_classes} classes")
    profile = sharing_profile(registry)
    print(f"held by every client:   {profile.shared_by_all}")
    print(f"held by some, not all:  {profile.partially_shared}")
    print(f"held by exactly one:    {profile.unique}")

    print("\nper-class owner sets drive the head merge:")
    for c in (0, 7, 13, 19):
        owners = clients_with_class(registry, c)
        kind = "averaged" if len(owners) > 1 else "passed through"
        print(f"  class {c:2d} ({names[c]}): owners {owners} -> column {kind}")

    print("\ncolumn bookkeeping for client 1 (classes sorted ascending):")
    own = registry.client_classes[1]
    for c in (7, 12, 19):
        print(f"  global class {c:2d} lives in local column {own.index(c)}")
    print(f"  class 0 is absent there: {0 not in own}")

    lonely = ClassRegistry(["a", "b"], [(0, 1)])
    print(f"\na single client shares everything: {sharing_profile(lonely).shared_by_all}")


if __name__ == "__main__":
    main()
