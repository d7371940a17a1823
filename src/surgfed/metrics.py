"""Evaluation: Mann-Whitney AUROC, per-group summaries, paired t-tests.

AUROC is the normalised Mann-Whitney U statistic: the share of
(positive, negative) pairs the positive wins, tied scores credited one
half.  U is counted exactly, without ranks, by binary search of each
positive score in the sorted negatives; a second search counts ties,
and runs only when there are any.  AUROC is undefined (None, never a
made-up number) when the labels contain a single class or when a model
cannot predict a class at all.

The test labels never change within a run, so a :class:`TestPlan` works
out once what every evaluation needs from them: label checks, each
class's rows split into positives then negatives (``int32``, M x n: 4 MB
at M=500, n=2000), its positive count, the degenerate classes and the
sharing-profile groups.  :func:`evaluate` then costs one forward pass,
one transpose of the scores and, per class, one gather in plan order,
two in-place sorts and the U count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from .data import LabeledSet
from .errors import ConfigError, ContractViolation
from .nn import Architecture, ParamSet, forward
from .registry import ClassRegistry, sharing_profile

GROUP_NAMES = ("shared_by_all", "partially_shared", "unique")


def auroc(scores, labels) -> float | None:
    """Probability that a random positive outranks a random negative,
    ties counted one half.  None when only one label value is present."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if scores.shape != labels.shape:
        raise ConfigError("scores and labels must have the same length")
    if scores.size == 0:
        raise ConfigError("cannot compute AUROC of an empty set")
    is_pos = labels == 1.0
    if not np.all(is_pos | (labels == 0.0)):
        raise ConfigError("labels must be exactly 0 or 1")
    n_pos = int(np.count_nonzero(is_pos))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    return _sorted_auroc(np.sort(scores[is_pos]), np.sort(scores[~is_pos]))


def _sorted_auroc(pos: np.ndarray, neg: np.ndarray) -> float:
    """AUROC of non-empty, sorted positive and negative scores; NaN when
    either holds a NaN (sorting puts NaN last), since NaN has no order."""
    if math.isnan(pos[-1]) or math.isnan(neg[-1]):
        return float("nan")
    # per positive: 2 * (negatives below) + (negatives tied), an exact integer
    below = neg.searchsorted(pos, "left")
    # a positive ties a negative iff the first negative not below it equals
    # it; "clip" reads the largest negative, which is below, past the end
    if (neg.take(below, mode="clip") == pos).any():
        twice_u = below.sum() + neg.searchsorted(pos, "right").sum()
    else:
        twice_u = 2 * below.sum()
    return float((twice_u / 2.0) / (pos.size * neg.size))


@dataclass(frozen=True)
class TestPlan:
    """What scoring needs from one test set, worked out once.

    Built from the test set and the registry: the labels are checked
    against the registry width and for values other than 0 and 1 here,
    not on every evaluation.  ``order[c]`` lists the rows positive for
    class ``c`` and then its negatives, each in ascending row order, as
    ``int32`` (an M x n array); ``n_pos[c]`` counts the positives.
    ``degenerate`` holds the classes whose labels take one value, and
    ``groups`` the sharing-profile classes by group name.
    """

    __test__ = False  # a library class, not a pytest test case

    test: LabeledSet
    registry: ClassRegistry
    order: np.ndarray = field(repr=False)
    n_pos: tuple[int, ...] = field(repr=False)
    degenerate: frozenset[int]
    groups: dict[str, tuple[int, ...]]

    def __init__(self, test: LabeledSet, registry: ClassRegistry):
        y = test.y
        if y.shape[1] != registry.n_classes:
            raise ContractViolation("test labels must cover every global class")
        is_pos = y == 1.0
        if not np.all(is_pos | (y == 0.0)):
            raise ConfigError("labels must be exactly 0 or 1")
        # a stable sort of "is negative" puts each class's positives first
        is_neg = np.ascontiguousarray(~is_pos.T)
        order = np.argsort(is_neg, axis=1, kind="stable").astype(np.int32)
        n_pos = np.count_nonzero(is_pos, axis=0)
        one_valued = np.flatnonzero((n_pos == 0) | (n_pos == test.n))
        profile = sharing_profile(registry)
        object.__setattr__(self, "test", test)
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "n_pos", tuple(n_pos.tolist()))
        object.__setattr__(self, "degenerate", frozenset(one_valued.tolist()))
        object.__setattr__(self, "groups", {
            "shared_by_all": profile.shared_by_all,
            "partially_shared": profile.partially_shared,
            "unique": profile.unique,
        })


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


def _subset_mean(per_class, subset, uncovered) -> float | None:
    subset = list(subset)
    if not subset:
        return None
    if any(c in uncovered for c in subset):
        return None
    vals = [per_class[c] for c in subset if per_class[c] is not None]
    if not vals:
        return None
    return float(np.mean(vals))


def evaluate(params: ParamSet, arch: Architecture, model_classes, plan: TestPlan,
             class_subset=None) -> EvalResult:
    """Score a model on the test set of ``plan``.

    ``model_classes`` are the global ids behind the model's head columns;
    ``class_subset`` restricts which classes are reported (default all).
    Each per-class value is bitwise what :func:`auroc` gives on that
    class's score column and labels.
    """
    model_classes = [int(c) for c in model_classes]
    if params.head_cols != len(model_classes):
        raise ContractViolation("model_classes must name every head column")
    registry = plan.registry
    if class_subset is None:
        subset = list(range(registry.n_classes))
        custom = False
    else:
        subset = sorted({int(c) for c in class_subset})
        if not subset:
            raise ConfigError("class_subset must not be empty")
        if subset[0] < 0 or subset[-1] >= registry.n_classes:
            raise ConfigError("class_subset index out of range")
        custom = True

    _, scores = forward(params, arch, plan.test.x, "eval")
    # one contiguous row per head column: strided column gathers read slower
    scores = np.ascontiguousarray(scores.T)
    col_of = {c: j for j, c in enumerate(model_classes)}
    per_class: dict[int, float | None] = {}
    uncovered, degenerate = [], []
    for c in subset:
        if c not in col_of:
            per_class[c] = None
            uncovered.append(c)
        elif c in plan.degenerate:
            per_class[c] = None
            degenerate.append(c)
        else:
            # positives then negatives, in the order auroc's masks pick them
            row = scores[col_of[c]].take(plan.order[c])
            pos, neg = row[:plan.n_pos[c]], row[plan.n_pos[c]:]
            pos.sort()
            neg.sort()
            per_class[c] = _sorted_auroc(pos, neg)

    group_means = {
        name: _subset_mean(per_class, [c for c in members if c in per_class], uncovered)
        for name, members in plan.groups.items()
    }
    if custom:
        group_means["custom"] = _subset_mean(per_class, subset, uncovered)
    return EvalResult(
        per_class=per_class,
        mean_auroc=_subset_mean(per_class, subset, uncovered),
        group_means=group_means,
        uncovered=tuple(uncovered),
        degenerate=tuple(degenerate),
    )


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    df: int
    degenerate: bool = False


def paired_ttest(a, b) -> TTestResult:
    """Two-sided paired t-test on matched score vectors.

    The p-value comes from the Student-t CDF via the regularised
    incomplete beta.  All-zero differences are degenerate: p = 1 by
    convention, flagged.
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
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
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
