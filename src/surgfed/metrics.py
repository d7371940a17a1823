"""Evaluation: Mann-Whitney AUROC, per-group summaries, paired t-tests.

AUROC is the normalised Mann-Whitney U statistic: the share of
(positive, negative) pairs the positive wins, tied scores credited one
half.  U is counted exactly, without ranks, by binary search of each
positive score in the sorted negatives; a second search counts ties,
and runs only when there are any.  AUROC is undefined (None, never a
made-up number) when the labels contain a single class or when a model
cannot predict a class at all.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    if np.isnan(scores).any():
        return float("nan")  # NaN scores have no order, so U is undefined
    pos = np.sort(scores[is_pos])
    neg = np.sort(scores[~is_pos])
    # per positive: 2 * (negatives below) + (negatives tied), an exact integer
    below = np.searchsorted(neg, pos, "left")
    # a positive ties a negative iff the first negative not below it equals it
    if np.any(neg[np.minimum(below, neg.size - 1)] == pos):
        twice_u = below.sum() + np.searchsorted(neg, pos, "right").sum()
    else:
        twice_u = 2 * below.sum()
    return float((twice_u / 2.0) / (n_pos * n_neg))


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


def evaluate(params: ParamSet, arch: Architecture, model_classes, test: LabeledSet,
             registry: ClassRegistry, class_subset=None) -> EvalResult:
    """Score a model on the global test set.

    ``model_classes`` are the global ids behind the model's head columns;
    ``class_subset`` restricts which classes are reported (default all).
    """
    model_classes = [int(c) for c in model_classes]
    if params.head_cols != len(model_classes):
        raise ContractViolation("model_classes must name every head column")
    if test.y.shape[1] != registry.n_classes:
        raise ContractViolation("test labels must cover every global class")
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

    _, scores = forward(params, arch, test.x, "eval")
    # one contiguous row per class: strided column slices read slower
    scores = np.ascontiguousarray(scores.T)
    labels = np.ascontiguousarray(test.y.T)
    col_of = {c: j for j, c in enumerate(model_classes)}
    per_class: dict[int, float | None] = {}
    uncovered, degenerate = [], []
    for c in subset:
        if c not in col_of:
            per_class[c] = None
            uncovered.append(c)
            continue
        value = auroc(scores[col_of[c]], labels[c])
        per_class[c] = value
        if value is None:
            degenerate.append(c)

    profile = sharing_profile(registry)
    groups = {
        "shared_by_all": profile.shared_by_all,
        "partially_shared": profile.partially_shared,
        "unique": profile.unique,
    }
    group_means = {
        name: _subset_mean(per_class, [c for c in members if c in per_class], uncovered)
        for name, members in groups.items()
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
