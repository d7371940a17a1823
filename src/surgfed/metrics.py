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
in-place row sort and a few whole-array passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from .data import LabeledSet
from .errors import ConfigError, ContractViolation, need_binary
from .nn import Architecture, ParamSet, forward
from .registry import GROUP_NAMES, ClassRegistry, need_class_ids, sharing_profile

# rows of scores sorted together: bounds each (rows x n) buffer
_CHUNK = 32
# read as uint64, the bit patterns of +0.0 <= x < 2.0 lie below 2**62, the
# pattern of 2.0; those of -0.0, negatives, x >= 2.0, inf and NaN do not
_KEY_LIMIT = 1 << 62


def auroc(scores, labels) -> float | None:
    """Probability that a random positive outranks a random negative,
    ties counted one half.  None when only one label value is present."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ConfigError("scores and labels must have the same length")
    if scores.size == 0:
        raise ConfigError("cannot compute AUROC of an empty set")
    is_pos = need_binary(labels)
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
    r, j = np.nonzero(close)
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


def _subset_mean(per_class, subset, uncovered) -> float | None:
    vals = [per_class[c] for c in subset if per_class[c] is not None]
    if not vals or any(c in uncovered for c in subset):
        return None
    return float(np.mean(vals))


def evaluate(params: ParamSet, arch: Architecture, model_classes, plan: TestPlan,
             class_subset=None, bufs=None) -> EvalResult:
    """Score a model on the test set of ``plan``.

    ``model_classes`` are the distinct global ids behind the model's
    head columns; ``class_subset`` restricts which classes are reported
    (default all).  Both are checked before the forward pass.  Each
    per-class value is bitwise what :func:`auroc` gives on that class's
    score column and labels.  The forward pass runs in ``bufs``, if given
    (:func:`surgfed.nn.eval_buffers` at the test size and head width).
    """
    M = plan.registry.n_classes
    model_classes = need_class_ids(model_classes, "model_classes", M, ContractViolation)
    if len(set(model_classes)) != len(model_classes):
        raise ContractViolation("model_classes must not name a class twice")
    if params.head_cols != len(model_classes):
        raise ContractViolation("model_classes must name every head column")
    if class_subset is None:
        subset = list(range(M))
        custom = False
    else:
        subset = sorted(set(need_class_ids(class_subset, "class_subset", M)))
        if not subset:
            raise ConfigError("class_subset must not be empty")
        custom = True

    _, scores = forward(params, arch, plan.x, "eval", bufs=bufs)
    col_of = np.full(M, -1)
    col_of[model_classes] = np.arange(len(model_classes))
    ids = np.array(subset)
    cols = col_of[ids]
    is_uncovered = cols < 0
    is_degenerate = ~is_uncovered & plan.degenerate[ids]
    scored = ~(is_uncovered | is_degenerate)
    classes, cols = ids[scored], cols[scored]
    values = np.empty(classes.size)
    bits = scores.view(np.int64)
    keys = np.empty((min(_CHUNK, classes.size), plan.n), np.int64)
    for lo in range(0, classes.size, _CHUNK):
        chunk = classes[lo:lo + _CHUNK]
        rows = keys[:chunk.size]
        rows[...] = bits[:, cols[lo:lo + _CHUNK]].T
        values[lo:lo + _CHUNK] = _auroc_rows(rows, plan.labels[chunk], plan.n_pos[chunk])
    per_class: dict[int, float | None] = dict.fromkeys(subset)
    per_class.update(zip(classes.tolist(), values.tolist()))
    uncovered = ids[is_uncovered].tolist()

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
        degenerate=tuple(ids[is_degenerate].tolist()),
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
