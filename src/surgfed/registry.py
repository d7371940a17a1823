"""Class registry: which client annotates which global class.

Classes are identified by name once, at construction; every other function
in the package works with integer indices into ``global_classes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError, need_int


def need_class_ids(values, what: str, n_classes: int | None = None,
                   error: type[Exception] = ConfigError) -> list[int]:
    """``values`` as global class ids.  Each must pass :func:`need_int`
    and lie in [0, n_classes), or be at least 0 when ``n_classes`` is
    None; anything else raises ``error``, never coerced."""
    ids = []
    for v in values:
        try:
            c = need_int(v, what)
        except ConfigError:
            raise error(f"{what} entries must be integers, got {v!r}") from None
        if c < 0:
            raise error(f"{what} entry {c} is negative")
        if n_classes is not None and c >= n_classes:
            raise error(f"{what} entry {c} is outside [0, {n_classes})")
        ids.append(c)
    return ids


@dataclass(frozen=True)
class ClassRegistry:
    """Global class list plus the per-client subsets of it.

    ``client_classes[k]`` holds the sorted global indices of the classes
    client ``k`` has labels for.  Every client must hold at least one class
    and the union over clients must cover every global class.
    ``holders[c]`` is the derived inverse table: the ascending ids of the
    clients holding class ``c``, built once here.
    """

    global_classes: tuple[str, ...]
    client_classes: tuple[tuple[int, ...], ...]
    holders: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __init__(self, global_classes, client_classes):
        names = tuple(str(n) for n in global_classes)
        if len(names) == 0:
            raise ConfigError("registry needs at least one global class")
        if len(set(names)) != len(names):
            raise ConfigError("duplicate global class names")
        clients = []
        for k, cs in enumerate(client_classes):
            cs = need_class_ids(cs, f"client {k} classes", len(names))
            if len(cs) == 0:
                raise ConfigError(f"client {k} has an empty class list")
            if len(set(cs)) != len(cs):
                raise ConfigError(f"client {k} lists a class twice")
            clients.append(tuple(sorted(cs)))
        if len(clients) == 0:
            raise ConfigError("registry needs at least one client")
        holders = [[] for _ in names]
        for k, cs in enumerate(clients):
            for c in cs:
                holders[c].append(k)
        missing = [c for c, ks in enumerate(holders) if not ks]
        if missing:
            raise ConfigError(f"classes {missing} are held by no client")
        object.__setattr__(self, "global_classes", names)
        object.__setattr__(self, "client_classes", tuple(clients))
        object.__setattr__(self, "holders", tuple(tuple(ks) for ks in holders))

    @property
    def n_classes(self) -> int:
        return len(self.global_classes)

    @property
    def n_clients(self) -> int:
        return len(self.client_classes)


@dataclass(frozen=True)
class SharingProfile:
    """Partition of the global classes by how widely they are annotated.

    ``shared_by_all`` are classes every client holds, ``unique`` classes
    exactly one client holds (when there is more than one client), and
    ``partially_shared`` everything in between.
    """

    shared_by_all: tuple[int, ...]
    partially_shared: tuple[int, ...]
    unique: tuple[int, ...]


# the sharing groups in table order: every per-group CSV column follows it
GROUP_NAMES = tuple(f.name for f in fields(SharingProfile))


def clients_with_class(registry: ClassRegistry, c: int) -> tuple[int, ...]:
    """Ascending ids of the clients that hold global class ``c``."""
    if not 0 <= c < registry.n_classes:
        raise ConfigError(f"class index {c} out of range")
    return registry.holders[c]


def sharing_profile(registry: ClassRegistry) -> SharingProfile:
    """Split the global classes into shared-by-all / partial / unique."""
    K = registry.n_clients
    shared, partial, unique = [], [], []
    for c, ks in enumerate(registry.holders):
        if len(ks) == K:
            shared.append(c)
        elif len(ks) == 1:
            unique.append(c)
        else:
            partial.append(c)
    return SharingProfile(tuple(shared), tuple(partial), tuple(unique))

