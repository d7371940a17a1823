"""Synthetic multi-label scenarios with a linear ground truth.

Each class c has a unit direction u_c and threshold tau_c; a sample x is
positive for c iff x . u_c > tau_c, after which each label flips with an
independent noise probability.  Clients draw from a standard normal,
optionally offset by a per-client mean of fixed magnitude (institutional
feature shift).  The global test set is drawn before any client data.

A client annotates only its own classes, so its labels are kept only
for those: each client's labels are drawn over all M classes and cut to
its columns, in its rows of one stack per split and class count, before
the next client's are drawn.  Generation holds at most one client's
full-width label matrix at a time, besides the test set's.  Features
lie in one (K, n, d) stack per split, and each :class:`ClientData`
split is a view of its rows.  Labels are ``int8`` 0/1 from the draw on,
one byte each: for 0/1 values every product and difference the
training and scoring code forms with them gives the bits float64
labels would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, need_binary, need_int, need_number
from .registry import ClassRegistry, need_class_ids

_THRESHOLD_BAND = 0.8  # keeps per-class prevalence in roughly [0.2, 0.8]
_MAX_THRESHOLD_ATTEMPTS = 100
_LABEL_BLOCK = 256  # rows of labels drawn at a time
_STATS_ROWS = 1024  # rows of the batch-norm stats split

# sub-stream tags so draws never depend on the class assignment
_TAG_TRUTH, _TAG_TEST, _TAG_CLIENT, _TAG_SHIFT, _TAG_STATS = 11, 12, 13, 14, 15


@dataclass(frozen=True)
class LabeledSet:
    """Feature matrix plus binary label matrix for one split.  The
    labels must be exactly 0 or 1, whatever their dtype, and are kept
    as ``int8``."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y)
        if x.ndim != 2 or y.ndim != 2:
            raise ConfigError("x and y must be 2-D")
        if x.shape[0] != y.shape[0]:
            raise ConfigError("x and y disagree on the number of samples")
        if not np.isfinite(x).all():
            raise ConfigError("x contains non-finite values")
        need_binary(y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y.astype(np.int8, copy=False))

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for one synthetic scenario.

    The class assignment is either explicit (``assignment``) or generated
    from ``shared_count`` classes held by everyone plus ``unique_count``
    classes distributed one-per-client; in that case
    ``M == shared_count + unique_count`` must hold.

    Construction checks every field and coerces none: integers must be
    ints or numpy integers that fit in 64 bits (stored as int), numbers
    finite (stored as float), and an assignment a list of integer lists
    (stored as tuples of int).  Each client keeps ``n_val`` validation and
    ``n_train`` training rows; a split of fewer than 2 rows is rejected.
    """

    n_per_client: int
    d: int
    M: int
    K: int
    seed: int
    assignment: tuple[tuple[int, ...], ...] | None = None
    shared_count: int | None = None
    unique_count: int | None = None
    skew: str = "iid"
    shift_sigma: float = 0.0
    label_noise: float = 0.05
    n_test: int = 2000
    val_fraction: float = 0.2

    def __post_init__(self):
        for name, low in (("n_per_client", 2), ("d", 1), ("M", 1), ("K", 1), ("seed", 0), ("n_test", 2)):
            object.__setattr__(self, name, need_int(getattr(self, name), name, low))
        for name in ("shared_count", "unique_count"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, need_int(getattr(self, name), name, 0))
        for name in ("shift_sigma", "label_noise", "val_fraction"):
            object.__setattr__(self, name, need_number(getattr(self, name), name))
        if not isinstance(self.skew, str) or self.skew not in ("iid", "feature_shift"):
            raise ConfigError(f"must be 'iid' or 'feature_shift', got {self.skew!r}", "skew")
        if self.skew == "iid" and self.shift_sigma != 0.0:
            raise ConfigError("must be 0 in iid scenarios", "shift_sigma")
        if self.shift_sigma < 0.0:
            raise ConfigError("must be non-negative", "shift_sigma")
        if not 0.0 <= self.label_noise < 0.5:
            raise ConfigError("must lie in [0, 0.5)", "label_noise")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("must lie in (0, 1)", "val_fraction")
        if self.n_val < 2 or self.n_train < 2:  # a split of one row never holds both labels
            raise ConfigError(f"splits n_per_client={self.n_per_client} into {self.n_val} validation and "
                              f"{self.n_train} training rows; each needs at least 2", "val_fraction")
        if self.assignment is not None:
            if self.shared_count is not None or self.unique_count is not None:
                raise ConfigError("give either an explicit assignment or generator counts, not both")
            if not isinstance(self.assignment, (list, tuple)) or not all(
                isinstance(cs, (list, tuple)) for cs in self.assignment
            ):
                raise ConfigError("must be a list of class-index lists", "assignment")
            object.__setattr__(self, "assignment", tuple(
                tuple(need_int(c, f"assignment[{k}]") for c in cs) for k, cs in enumerate(self.assignment)
            ))
            if len(self.assignment) != self.K:
                raise ConfigError("must list classes for every client", "assignment")
            # indices in range, no client without classes, no class without a client
            ClassRegistry(range(self.M), self.assignment)
        else:
            if self.shared_count is None or self.unique_count is None:
                raise ConfigError("need an assignment or both shared_count and unique_count")
            if self.shared_count + self.unique_count != self.M:
                raise ConfigError("shared_count + unique_count must equal M")

    # properties, not fields: they stay out of the serialised config and its hash
    @property
    def n_val(self) -> int:
        return round(self.n_per_client * self.val_fraction)

    @property
    def n_train(self) -> int:
        return self.n_per_client - self.n_val


@dataclass(frozen=True)
class ClientData:
    """One client's train/val splits, labels restricted to its classes;
    generated splits are row views of the scenario's stacks."""

    classes: tuple[int, ...]
    train: LabeledSet
    val: LabeledSet


@dataclass(frozen=True)
class ScenarioData:
    registry: ClassRegistry
    test: LabeledSet
    clients: tuple[ClientData, ...]

    def realized(self) -> dict:
        """What was drawn, as a run manifest records it: class lists,
        split sizes and each client's training prevalence per class."""
        names = self.registry.global_classes
        return {
            "client_classes": [list(cd.classes) for cd in self.clients],
            "n_train_per_client": [cd.train.n for cd in self.clients],
            "n_val_per_client": [cd.val.n for cd in self.clients],
            "n_test": self.test.n,
            "train_prevalence": [dict(zip([names[c] for c in cd.classes], cd.train.y.mean(axis=0).tolist()))
                                 for cd in self.clients],
        }


def resolve_assignment(spec: ScenarioSpec) -> tuple[tuple[int, ...], ...]:
    """Per-client global class lists for a spec.

    Generated layout: client 0's unique classes first, then the shared
    block, then the remaining clients' unique classes in client order.
    Every client receives the whole shared block.
    """
    if spec.assignment is not None:
        return spec.assignment
    s, u, K = spec.shared_count, spec.unique_count, spec.K
    per_client = [u // K + (1 if k < u % K else 0) for k in range(K)]
    if s == 0 and min(per_client) == 0:
        raise ConfigError("some client would end up with no classes")
    shared_block = tuple(range(per_client[0], per_client[0] + s))
    lists = []
    cursor = 0
    for k in range(K):
        own = tuple(range(cursor, cursor + per_client[k]))
        cursor += per_client[k]
        if k == 0:
            cursor += s  # the shared block sits right after client 0's classes
        lists.append(tuple(sorted(own + shared_block)))
    return tuple(lists)


def _labels_for(x: np.ndarray, u: np.ndarray, tau: np.ndarray, noise: float, rng) -> np.ndarray:
    # in blocks of rows, so no (n, M) float64 array is made; the noise is
    # drawn at every level, 0 included, in the stream order of one draw
    y = np.empty((len(x), len(u)), bool)
    for lo in range(0, len(x), _LABEL_BLOCK):
        rows = y[lo:lo + _LABEL_BLOCK]
        np.greater(x[lo:lo + _LABEL_BLOCK] @ u.T, tau, out=rows)
        rows ^= rng.random(rows.shape) < noise
    return y.view(np.int8)


def _both_labels_present(y: np.ndarray) -> bool:  # in every column of a split or of a stack of them
    return bool(np.all(y.max(axis=-2) == 1) and np.all(y.min(axis=-2) == 0))


def generate_synthetic(spec: ScenarioSpec) -> ScenarioData:
    """Build registry, global test set and per-client splits for a spec.

    Identical specs produce bit-identical data.  The feature draws never
    depend on the class assignment, so two specs differing only in their
    assignment share the same x matrices.  Thresholds (and the noise
    flips) are redrawn up to 100 times until every class has both labels
    in every split it appears in; each attempt draws tau, the test
    labels, then clients 0..K-1 in order into their label rows, all
    before any check.
    """
    registry = ClassRegistry(
        [f"c{i:02d}" for i in range(spec.M)], resolve_assignment(spec)
    )
    assignment = registry.client_classes  # ascending, the column order of every client's head and labels

    truth_rng = np.random.default_rng([spec.seed, _TAG_TRUTH])
    u = truth_rng.standard_normal((spec.M, spec.d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)

    x_test = np.random.default_rng([spec.seed, _TAG_TEST]).standard_normal((spec.n_test, spec.d))
    shift_rng = np.random.default_rng([spec.seed, _TAG_SHIFT])
    n_train, n_val = spec.n_train, spec.n_val
    x_train, x_val = np.empty((spec.K, n_train, spec.d)), np.empty((spec.K, n_val, spec.d))
    for k in range(spec.K):
        rng = np.random.default_rng([spec.seed, _TAG_CLIENT, k])
        direction = shift_rng.standard_normal(spec.d)
        direction /= np.linalg.norm(direction)
        for x in (x_train[k], x_val[k]):  # one draw of the client's rows, training rows first
            rng.standard_normal(out=x)
            x += spec.shift_sigma * direction

    widths = [len(cs) for cs in assignment]
    stacks = {w: [np.empty((widths.count(w), n, w), np.int8) for n in (n_train, n_val)] for w in set(widths)}
    rows = {w: zip(*splits) for w, splits in stacks.items()}
    ys = [next(rows[w]) for w in widths]  # client k's training and validation label rows
    for attempt in range(_MAX_THRESHOLD_ATTEMPTS):
        tau = truth_rng.uniform(-_THRESHOLD_BAND, _THRESHOLD_BAND, spec.M)
        y_test = _labels_for(x_test, u, tau, spec.label_noise, truth_rng)
        for k, (y_train, y_val) in enumerate(ys):
            # its rows end to end, so the label blocks start where one draw's did
            yk = _labels_for(np.concatenate((x_train[k], x_val[k])), u, tau, spec.label_noise, truth_rng)
            # "clip" spares the copy of out that "raise" makes; the columns are in range
            np.take(yk[:n_train], assignment[k], axis=1, out=y_train, mode="clip")
            np.take(yk[n_train:], assignment[k], axis=1, out=y_val, mode="clip")
            del yk
        if _both_labels_present(y_test) and all(_both_labels_present(y) for s in stacks.values() for y in s):
            clients = tuple(
                ClientData(classes=cs, train=LabeledSet(x_train[k], y_train), val=LabeledSet(x_val[k], y_val))
                for k, (cs, (y_train, y_val)) in enumerate(zip(assignment, ys))
            )
            return ScenarioData(registry=registry, test=LabeledSet(x_test, y_test), clients=clients)
    raise ConfigError(
        f"could not satisfy the one-positive-one-negative invariant in "
        f"{_MAX_THRESHOLD_ATTEMPTS} threshold draws; splits are too small or too shifted "
        f"(n_per_client={spec.n_per_client}, val={spec.n_val})"
    )


def stats_split(spec: ScenarioSpec) -> np.ndarray:
    """Held-out feature sample (``_STATS_ROWS`` rows) from the base distribution,
    used to seed batch-norm statistics before any communication round."""
    return np.random.default_rng([spec.seed, _TAG_STATS]).standard_normal((_STATS_ROWS, spec.d))


def scatter_restricted(y_restricted: np.ndarray, classes, M: int) -> np.ndarray:
    """Inverse of restricting columns: place the restricted labels at
    their global positions, zeros elsewhere, in their dtype.  Applied to
    the restricted columns of a full label matrix, it zeroes every column
    outside ``classes`` (missing labels read as negatives)."""
    y_restricted = np.asarray(y_restricted)
    cols = sorted(need_class_ids(classes, "classes", M))
    if len(set(cols)) != len(cols):
        raise ConfigError("classes must not name a class twice")
    if len(cols) != y_restricted.shape[1]:
        raise ConfigError("classes must match the restricted width")
    out = np.zeros((y_restricted.shape[0], M), dtype=y_restricted.dtype)
    out[:, cols] = y_restricted
    return out


# --- scenario ladders -------------------------------------------------------

CLIENT_LADDER = (2, 3, 4, 5, 6, 8, 10)
SHARED_LADDER = (0, 1, 2, 4, 8, 12, 14)
_LADDER_TOTAL_SAMPLES = 2400
_LADDER_CLASSES = 14
_LADDER_D = 20


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _ladder_spec(K: int, seed: int, lists) -> ScenarioSpec:
    """A ladder rung: K clients splitting the ladder's samples, client k
    annotating the classes in ``lists[k]``."""
    return ScenarioSpec(n_per_client=_LADDER_TOTAL_SAMPLES // K, d=_LADDER_D, M=_LADDER_CLASSES, K=K, seed=seed,
                        assignment=tuple(tuple(sorted(s)) for s in lists))


def effect_of_clients_scenarios(base_seed: int) -> tuple[ScenarioSpec, ...]:
    """Ladder over the number of clients with the total sample count held
    constant.  Every class is annotated by at least one client; class
    subsets are drawn per rung from ``base_seed``."""
    specs = []
    for K in CLIENT_LADDER:
        rng = np.random.default_rng([base_seed, 21, K])
        lists: list[set[int]] = [set() for _ in range(K)]
        for c in range(_LADDER_CLASSES):
            size = int(rng.integers(1, K + 1))
            for k in rng.choice(K, size=size, replace=False):
                lists[int(k)].add(c)
        for k in range(K):
            if not lists[k]:
                lists[k].add(int(rng.integers(_LADDER_CLASSES)))
        specs.append(_ladder_spec(K, _derive_seed(base_seed, 22, K), lists))
    return tuple(specs)


def effect_of_shared_classes_scenarios(base_seed: int) -> tuple[ScenarioSpec, ...]:
    """Ladder over the number of classes shared by all of K=4 clients.

    All seven specs share the same data seed and sample counts, so the
    underlying feature matrices are bit-identical; only the label masking
    changes from rung to rung.  Non-shared classes go to exactly one
    client each, round-robin in a per-rung random order."""
    K = 4
    data_seed = _derive_seed(base_seed, 32)
    specs = []
    for s in SHARED_LADDER:
        rng = np.random.default_rng([base_seed, 31, s])
        shared = set(int(c) for c in rng.choice(_LADDER_CLASSES, size=s, replace=False))
        rest = [c for c in range(_LADDER_CLASSES) if c not in shared]
        order = rng.permutation(len(rest))
        lists = [set(shared) for _ in range(K)]
        for pos, idx in enumerate(order):
            lists[pos % K].add(rest[int(idx)])
        specs.append(_ladder_spec(K, data_seed, lists))
    return tuple(specs)

