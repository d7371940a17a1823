"""Evaluation: Mann-Whitney AUROC, per-group summaries, paired t-tests.

AUROC is the normalised Mann-Whitney U statistic: the share of
(positive, negative) pairs the positive wins, tied scores credited one
half.  AUROC is undefined (None, never a made-up number) when the labels
contain a single class or when a model cannot predict a class at all.

U is counted exactly, in integers, by one sort per row of scores.  For
a float64 score with +0.0 <= x < 2.0 the bit pattern read as an int64 is
below 2**62 and orders exactly as the float does; equal floats have
equal patterns.  So ``key = bits << 1 | label`` sorts by score, with a
tied negative before a tied positive, and the i-th positive in sorted
order sits after i positives and after every negative scored at or
below it: the positives' positions sum to n_pos(n_pos-1)/2 plus
Σ #{negatives <= p}, which is U plus half the tied (positive, negative)
pairs.  Those pairs are counted from the sorted keys alone, on the
adjacent keys of equal score (:func:`_tied_pairs`), and taken back.
Ties are common: a sample whose last ReLU layer is all zero scores the
bias of every class, and late rounds of some runs produce such samples.
:func:`_auroc_rows`, the one AUROC kernel, scores up to ``_CHUNK`` rows
per sort.  A model's scores lie in [+0.0, 1.0]; a chunk holding a score
outside [+0.0, 2.0) (-0.0, a negative, a value >= 2.0, an infinity) has
its scores replaced by their dense ranks first, which order and tie as
the floats do, -0.0 and +0.0 alike.  A row holding a NaN scores NaN.

The test labels never change within a run, so a :class:`TestPlan` works
out once what every evaluation needs from them: label checks, an
``int8`` label row per class (M x n: 1 MB at M=500, n=2000), the
positive counts, the degenerate classes and the sharing-profile groups.
:func:`evaluate` then costs one forward pass, into buffers the caller
may own, and, per chunk of 32 scored classes, one gather of their score
columns into a bounded (32 x n) ``int64`` buffer (0.5 MB at n=2000), one
in-place row sort and a few whole-array passes.  It scores every class;
:meth:`EvalResult.restrict` cuts a subset from the result, scoring nothing.

The p-values of :func:`paired_ttest` come from :func:`ibeta`: the C
function ``scipy.special.betainc`` runs on doubles, so bitwise the same,
loaded from scipy's ``_ufuncs_cxx`` without importing ``scipy.special``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .data import LabeledSet
from .errors import ConfigError, ContractViolation, need_binary
from .nn import Architecture, ParamSet, forward, from_scipy_special
from .registry import GROUP_NAMES, ClassRegistry, need_class_ids, sharing_profile

# rows of scores sorted together: bounds each (rows x n) buffer
_CHUNK = 32
# read as uint64, the bit patterns of +0.0 <= x < 2.0 lie below 2**62, the
# pattern of 2.0; those of -0.0, negatives, x >= 2.0, inf and NaN do not
_KEY_LIMIT = 1 << 62
# scipy.special.betainc's double loop, exported by scipy's _ufuncs_cxx
_IBETA_CAPSULE = "_export_ibeta_double"


def auroc(scores, labels) -> float | None:
    """Probability that a random positive outranks a random negative,
    ties counted one half.  None when only one label value is present."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ConfigError("scores and labels must have the same length")
    if scores.size == 0:
        raise ConfigError("cannot compute AUROC of an empty set")
    need_binary(labels)
    is_pos = labels == 1
    n_pos = int(np.count_nonzero(is_pos))
    if n_pos == 0 or n_pos == labels.size:
        return None
    keys = scores.view(np.int64)[None].copy()
    return float(_auroc_rows(keys, is_pos.view(np.int8)[None], np.array([n_pos]))[0])


def _dense_ranks(scores: np.ndarray) -> np.ndarray:
    """Dense ranks of ``scores``, in their shape: equal floats (-0.0 and
    +0.0 too) share a rank, and ranks order as the floats do."""
    return np.unique(scores, return_inverse=True)[1].reshape(scores.shape)


def _auroc_rows(keys: np.ndarray, labels: np.ndarray, n_pos: np.ndarray) -> np.ndarray:
    """AUROC of each row of scores against its 0/1 labels, as float64.

    ``keys`` (m x n, ``int64``, C-contiguous) holds the float64 bit
    patterns of the scores and is overwritten; ``labels`` (m x n,
    ``int8``) and ``n_pos`` (m) give every row both label values.  A
    row holding a NaN scores NaN.
    """
    n = keys.shape[1]
    has_nan = False
    if keys.view(np.uint64).max() >= _KEY_LIMIT:
        scores = keys.view(np.float64)
        has_nan = np.isnan(scores).any(axis=1)
        keys[...] = _dense_ranks(scores)
    keys <<= 1
    keys |= labels
    keys.sort(axis=1)
    # Σ over positives of #{negatives <= p}: their positions less the
    # positives ahead of each
    at_or_below = np.einsum("ij,j->i", keys & 1, np.arange(n)) - n_pos * (n_pos - 1) // 2
    twice_u = 2 * at_or_below - _tied_pairs(keys)
    return np.where(has_nan, np.nan, (twice_u / 2.0) / (n_pos * (n - n_pos)))


def _tied_pairs(keys: np.ndarray) -> np.ndarray:
    """Per row of sorted keys ``bits << 1 | label``, the number of
    (positive, negative) pairs with equal scores, as ``int64``.

    The keys of one score form a run, negatives (2b) before positives
    (2b + 1), so adjacent keys of a run differ by 0, or by 1 where the
    negatives end; a step of 1 from a positive leads to the next score.
    Only these steps are visited.  Over its steps, a run's negatives are
    the negative lower keys and its positives the positive upper keys
    (a mixed run starts with a negative and ends with a positive), and
    it holds their product of tied pairs.
    """
    tied = np.zeros(keys.shape[0], np.int64)
    step = np.diff(keys, axis=1)
    close = step <= 1
    if not close.any():
        return tied
    r, j = np.divmod(np.flatnonzero(close), close.shape[1])
    lower = keys[r, j] & 1
    same = (step[r, j] == 0) | (lower == 0)
    r, j, lower = r[same], j[same], lower[same]
    if r.size:
        starts = np.flatnonzero(np.r_[True, (r[1:] != r[:-1]) | (j[1:] != j[:-1] + 1)])
        negatives = np.add.reduceat(1 - lower, starts)
        positives = np.add.reduceat(keys[r, j + 1] & 1, starts)
        np.add.at(tied, r[starts], negatives * positives)
    return tied


@dataclass(frozen=True)
class TestPlan:
    """What scoring needs from one test set, worked out once.

    Built from the test set and the registry: the labels are checked
    against the registry width and for values other than 0 and 1 here,
    not on every evaluation.  The plan keeps the test features ``x``
    (``n`` rows) and, in place of the test set's ``int8`` label matrix,
    ``labels``: class ``c``'s label column as a contiguous ``int8`` row
    (an M x n array, 1 MB at M=500, n=2000), ready to be or-ed into the
    sort keys of :func:`_auroc_rows`.  ``n_pos[c]`` counts its
    positives, ``degenerate[c]`` marks the classes whose labels take one
    value, and ``groups`` holds the sharing-profile classes by group
    name.
    """

    __test__ = False  # a library class, not a pytest test case

    x: np.ndarray = field(repr=False)
    n: int
    registry: ClassRegistry
    labels: np.ndarray = field(repr=False)
    n_pos: np.ndarray = field(repr=False)
    degenerate: np.ndarray = field(repr=False)
    groups: dict[str, tuple[int, ...]]

    def __init__(self, test: LabeledSet, registry: ClassRegistry):
        y = test.y
        if y.shape[1] != registry.n_classes:
            raise ContractViolation("test labels must cover every global class")
        need_binary(y)
        labels = np.ascontiguousarray(y.T, dtype=np.int8)
        n_pos = np.count_nonzero(labels, axis=1)
        profile = sharing_profile(registry)
        object.__setattr__(self, "x", test.x)
        object.__setattr__(self, "n", test.n)
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_pos", n_pos)
        object.__setattr__(self, "degenerate", (n_pos == 0) | (n_pos == test.n))
        object.__setattr__(self, "groups", {g: getattr(profile, g) for g in GROUP_NAMES})


@dataclass(frozen=True)
class EvalResult:
    """Per-class AUROC plus aggregate views.

    ``per_class`` maps global class id to a value or None.  A class can
    be undefined for two reasons, reported separately: the model has no
    column for it (``uncovered``) or the test labels are single-valued
    (``degenerate``).  Any uncovered class makes the corresponding mean
    undefined; degenerate classes are merely excluded from means.
    """

    per_class: dict[int, float | None]
    mean_auroc: float | None
    group_means: dict[str, float | None]
    uncovered: tuple[int, ...]
    degenerate: tuple[int, ...]

    def restrict(self, classes, groups) -> "EvalResult":
        """This full result over ``classes`` only, a repeated id once, with
        ``custom`` their mean; ``groups`` are those it was scored with."""
        subset = sorted(set(need_class_ids(classes, "class_subset", len(self.per_class))))
        if not subset:
            raise ConfigError("class_subset must not be empty")
        per_class = {c: self.per_class[c] for c in subset}
        return _summarise(per_class, groups, self.uncovered, self.degenerate, custom=True)


def _subset_mean(per_class, subset, uncovered) -> float | None:
    vals = [per_class[c] for c in subset if per_class[c] is not None]
    if not vals or any(c in uncovered for c in subset):
        return None
    return float(np.mean(vals))


def _summarise(per_class, groups, uncovered, degenerate, custom=False) -> EvalResult:
    """A result over the classes of ``per_class``: ``uncovered`` and
    ``degenerate`` cut to them, their mean (also as ``custom``) and that
    of each group's members among them."""
    uncovered = [c for c in uncovered if c in per_class]
    group_means = {
        name: _subset_mean(per_class, [c for c in members if c in per_class], uncovered)
        for name, members in groups.items()
    }
    mean = _subset_mean(per_class, list(per_class), uncovered)
    if custom:
        group_means["custom"] = mean
    degenerate = tuple(c for c in degenerate if c in per_class)
    return EvalResult(per_class, mean, group_means, tuple(uncovered), degenerate)


def evaluate(params: ParamSet, arch: Architecture, model_classes, plan: TestPlan, bufs=None) -> EvalResult:
    """Score a model on the test set of ``plan``, over every class.

    ``model_classes`` are the distinct global ids behind the model's
    head columns, checked before the forward pass.  Each per-class value
    is bitwise what :func:`auroc` gives on that class's score column and
    labels; :meth:`EvalResult.restrict` reports a subset of them.  The
    forward pass runs in ``bufs`` (:func:`surgfed.nn.buffer_shapes`), or
    in a fresh arena.
    """
    M = plan.registry.n_classes
    model_classes = need_class_ids(model_classes, "model_classes", M, ContractViolation)
    if len(set(model_classes)) != len(model_classes):
        raise ContractViolation("model_classes must not name a class twice")
    if params.head_cols != len(model_classes):
        raise ContractViolation("model_classes must name every head column")

    _, scores = forward(params, arch, plan.x, "eval", bufs=bufs)
    col_of = np.full(M, -1)
    col_of[model_classes] = np.arange(len(model_classes))
    covered = col_of >= 0
    classes = np.flatnonzero(covered & ~plan.degenerate)
    values = np.empty(classes.size)
    bits = scores.view(np.int64)
    keys = np.empty((min(_CHUNK, classes.size), plan.n), np.int64)
    for lo in range(0, classes.size, _CHUNK):
        chunk = classes[lo:lo + _CHUNK]
        rows = keys[:chunk.size]
        rows[...] = bits[:, col_of[chunk]].T
        values[lo:lo + _CHUNK] = _auroc_rows(rows, plan.labels[chunk], plan.n_pos[chunk])
    per_class: dict[int, float | None] = dict.fromkeys(range(M))
    per_class.update(zip(classes.tolist(), values.tolist()))
    degenerate = np.flatnonzero(covered & plan.degenerate).tolist()
    return _summarise(per_class, plan.groups, np.flatnonzero(~covered).tolist(), degenerate)


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    df: int
    degenerate: bool = False


@cache
def ibeta():
    """``I_x(a, b)``, resolved once: the ``_IBETA_CAPSULE`` capsule's ``void *`` holds its address."""
    import ctypes  # only suites pay for it
    api, obj, c, ptr = ctypes.pythonapi, ctypes.py_object, ctypes.c_double, ctypes.c_void_p
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, obj)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ptr, obj, ctypes.c_char_p)(("PyCapsule_GetPointer", api))

    def resolve(module):
        if (capsule := getattr(module, "__pyx_capi__", {}).get(_IBETA_CAPSULE)) is None:
            return None
        f = ctypes.CFUNCTYPE(c, c, c, c)(ptr.from_address(get_pointer(capsule, get_name(capsule))).value)
        exact = ((1, 1, 0.25, 0.25), (1, 0.5, 0.75, 0.5), (3, 1, 0.5, 0.125))
        return f if all(f(a, b, x) == want for a, b, x, want in exact) else None

    return from_scipy_special("_ufuncs_cxx", "ibeta", resolve)


def paired_ttest(a, b) -> TTestResult:
    """Two-sided paired t-test on matched score vectors.

    The p-value is the Student-t tail ``I_x(df/2, 1/2)`` at ``x = df/(df + t²)``
    (:func:`ibeta`).  All-zero differences are degenerate: p = 1 by convention, flagged.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ConfigError("paired vectors must have the same length")
    if a.size < 2:
        raise ConfigError("need at least two pairs")
    d = a - b
    df = d.size - 1
    if np.all(d == 0.0):
        return TTestResult(t=0.0, p=1.0, df=df, degenerate=True)
    sd = d.std(ddof=1)
    if sd == 0.0:
        # constant non-zero difference: infinitely significant
        t = float(np.inf if d[0] > 0 else -np.inf)
        return TTestResult(t=t, p=0.0, df=df)
    t = float(d.mean() / (sd / np.sqrt(d.size)))
    p = ibeta()(df / 2.0, 0.5, df / (df + t * t))
    return TTestResult(t=t, p=p, df=df)


def significance_stars(p: float) -> str:
    """Conventional star coding: ns above 0.05, then * / ** / *** at
    0.05, 0.01 and 0.001."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError("p must lie in [0, 1]")
    if p > 0.05:
        return "ns"
    if p > 0.01:
        return "*"
    if p > 0.001:
        return "**"
    return "***"
