"""Minimal dense-network kernel: forward, masked BCE, backprop, SGD.

Parameters, activations and losses are float64.  Labels may be of any
numeric dtype holding exactly 0 and 1 (runs keep them as ``int8``) and
are never widened: for 0/1 labels the loss and its gradient are bitwise
what float64 labels give.  One model works on 2-D arrays (samples in
rows); K same-shape models train in lock-step when every tensor,
parameters included, carries a leading model axis.  The kernel is
written once for both: matmuls run over the leading axes and every
reduction is over ``axis=-2``, so each model's slice of a stacked call
is bitwise what a call with that model alone gives.

A model is the backbone a config describes (:class:`Architecture`: a
dense layer per hidden width, batch norm after the first, a ReLU after
each) followed by a classification head: one dense layer plus a
sigmoid.  Batch norm uses a fixed momentum and epsilon
(``BN_MOMENTUM``, ``BN_EPS``).  The head's parameters live in their own
fields of :class:`ParamSet` so they can be aggregated per class; the
one freeze, ``heads_only``, trains them alone.

Each public function (:func:`forward`, :func:`masked_bce_loss`,
:func:`backward`, :func:`sgd_step`) validates its arguments on every
call and then runs a private core that holds the layer math.  Training
calls the cores directly: :func:`check_training` checks a whole
training set's inputs and labels once, and :func:`train_step` runs one
step on a batch of it.  Only the finiteness checks, which depend on the
values, stay in every step.

There is one path through the cores: each writes into the buffers it is
given (views of an :class:`Arena`) and uses up what it may.  A run
passes views of its arena; a public function takes a fresh arena for its
call and copies what a core would use up, so it writes into no array its
caller passed but the batch-norm running statistics.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from importlib import machinery, util
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractViolation, NumericError, need_binary, need_flag, need_int, need_number


def from_scipy_special(stem: str, what: str, resolve):
    """``resolve(module)`` for the C module ``scipy/special/<stem>``, loaded alone under its real
    name so that ``import scipy.special`` (0.3 s, 17 MB) reuses it; no module or no value: ImportError.
    That import leaves the attribute ``scipy.special.<stem>`` unbound, as the import system binds no
    submodule it finds in ``sys.modules``; ``from scipy.special import <stem>`` and public names work."""
    found = util.find_spec("scipy")  # locates the package without importing it
    if found is None:
        raise ModuleNotFoundError("surgfed needs scipy", name="scipy")
    name, base = f"scipy.special.{stem}", Path(found.origin).with_name("special") / stem
    path = next((p for s in machinery.EXTENSION_SUFFIXES if (p := Path(f"{base}{s}")).is_file()), None)
    if name not in sys.modules and path:
        spec = util.spec_from_file_location(name, path)
        spec.loader.exec_module(module := util.module_from_spec(spec))
        sys.modules[name] = module
    if (value := resolve(sys.modules[name]) if name in sys.modules else None) is None:
        import scipy
        raise ImportError(f"no working {what} in {path or f'{base}.*'} (scipy {scipy.__version__})")
    return value


expit = from_scipy_special("_special_ufuncs", "expit", lambda module: getattr(module, "expit", None))

BCE_CLAMP = 1e-7
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


@dataclass(frozen=True)
class LayerSpec:
    """One of :attr:`Architecture.feature_specs`: ``dense``, ``batchnorm`` or ``relu``."""

    kind: str
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class Architecture:
    """The backbone a config describes, for inputs of width ``in_dim``: a
    dense layer per ``hidden`` width, batch norm after the first if
    ``use_batchnorm``, and a ReLU after each, listed in ``feature_specs``
    (whose indices name the checkpoint rows: ``0.W``, ``1.gamma``).
    ``hidden=()`` is a plain logistic model: the head acts on the inputs."""

    in_dim: int
    hidden: tuple[int, ...] = ()
    use_batchnorm: bool = True
    feature_specs: tuple[LayerSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "in_dim", need_int(self.in_dim, "in_dim", 1))
        if not isinstance(self.hidden, (list, tuple)):
            raise ConfigError("must be a list of layer widths", "hidden")
        hidden = tuple(need_int(h, f"hidden[{i}]", 1) for i, h in enumerate(self.hidden))
        need_flag(self.use_batchnorm, "use_batchnorm")
        specs = []
        for pos, (w, h) in enumerate(zip((self.in_dim, *hidden), hidden)):
            specs.append(LayerSpec("dense", w, h))
            if pos == 0 and self.use_batchnorm:
                specs.append(LayerSpec("batchnorm", h, h))
            specs.append(LayerSpec("relu", h, h))
        object.__setattr__(self, "hidden", hidden)
        object.__setattr__(self, "feature_specs", tuple(specs))

    @property
    def feature_out_dim(self) -> int:
        return self.hidden[-1] if self.hidden else self.in_dim

    def bn_layers(self) -> tuple[int, ...]:
        return tuple(
            i for i, s in enumerate(self.feature_specs) if s.kind == "batchnorm"
        )


def build_architecture(d: int, hidden: tuple[int, ...] = (32, 16), use_batchnorm: bool = True) -> Architecture:
    """The default backbone, two hidden layers of 32 and 16 (:class:`Architecture`)."""
    return Architecture(d, hidden, use_batchnorm)


@dataclass
class ParamSet:
    """Trainable parameters plus batch-norm running statistics.

    ``feature`` maps ``"{layer}.W" / "{layer}.b" / "{layer}.gamma" /
    "{layer}.beta"`` to arrays; ``bn_mean`` / ``bn_var`` hold the running
    statistics keyed by feature-layer index.  ``head_W`` is
    (feature_out_dim, n_head_classes) and ``head_b`` its bias row.

    :meth:`tensors` is the one walk over the five fields and
    :meth:`from_tensors` its inverse; copying, comparing, stacking
    and checkpointing all go through them.  Gradients are a
    set with empty statistics dicts (:func:`backward`, :func:`grad_views`).
    A set laid out by :func:`grad_views` keeps the ``tables`` its tensors
    are views of, over which SGD is one multiply and one subtract.
    """

    feature: dict[str, np.ndarray]
    bn_mean: dict[int, np.ndarray]
    bn_var: dict[int, np.ndarray]
    head_W: np.ndarray
    head_b: np.ndarray
    tables: tuple = field(default=(), repr=False, compare=False)

    @property
    def head_cols(self) -> int:
        return self.head_W.shape[-1]

    @property
    def feature_width(self) -> int:
        """Where ``tables[0]`` splits: each model's feature tensors fill its
        first this many columns, the head (``head_W``, ``head_b``) the rest."""
        return self.tables[0].shape[-1] - (self.head_W.shape[-2] + 1) * self.head_cols

    def tensors(self):
        """Every tensor once, as ``(group, key, array)`` in checkpoint row
        order: feature tensors by name, each batch-norm layer's mean and
        variance by layer index, then ``head_W`` and ``head_b`` (key None)."""
        for key in sorted(self.feature):
            yield "feature", key, self.feature[key]
        for i in sorted(self.bn_mean):
            yield "bn_mean", i, self.bn_mean[i]
            yield "bn_var", i, self.bn_var[i]
        yield "head_W", None, self.head_W
        yield "head_b", None, self.head_b

    @classmethod
    def from_tensors(cls, rows, tables=()) -> "ParamSet":
        """The set whose :meth:`tensors` are ``rows``."""
        fields = {"feature": {}, "bn_mean": {}, "bn_var": {}}
        for group, key, a in rows:
            if key is None:
                fields[group] = a
            else:
                fields[group][key] = a
        return cls(**fields, tables=tables)

    def map(self, fn, *others) -> "ParamSet":
        """A new set holding ``fn(t, *ts)`` for every tensor ``t`` of this
        set, ``ts`` being the same-named tensors of ``others``; a set that
        names other tensors is a :class:`ContractViolation`."""
        rows = []
        for walk in zip(self.tensors(), *(o.tensors() for o in others)):
            group, key, _ = walk[0]
            for other_group, other_key, _ in walk[1:]:
                if other_group != group or other_key != key:
                    raise ContractViolation("parameter sets name different tensors")
            rows.append((group, key, fn(*[a for _, _, a in walk])))
        return ParamSet.from_tensors(rows)

    def copy(self, head_cols=None) -> "ParamSet":
        """A deep copy laid out in tables (:func:`grad_views`), so every
        tensor is C-ordered; ``head_cols`` keeps only those head columns,
        in that order."""
        cols = slice(None) if head_cols is None else list(head_cols)
        src = [(g, k, a[..., cols] if k is None else a) for g, k, a in self.tensors()]
        out = grad_views(ParamSet.from_tensors(src), *(
            np.empty(sum(a.size for g, _, a in src if g.startswith("bn_") == bn)) for bn in (False, True)))
        for (_, _, a), (_, _, b) in zip(out.tensors(), src):
            a[...] = b
        return out


def params_equal(a: ParamSet, b: ParamSet) -> bool:
    """Bitwise equality of two parameter sets (stats included)."""
    wa, wb = list(a.tensors()), list(b.tensors())
    return [w[:2] for w in wa] == [w[:2] for w in wb] and all(
        np.array_equal(x, y) for (_, _, x), (_, _, y) in zip(wa, wb)
    )


def stack_params(param_sets) -> ParamSet:
    """Same-shape parameter sets as one set whose tensors carry a leading
    model axis: copies, in the given order, laid out in tables
    (:func:`grad_views`)."""
    return param_sets[0].map(lambda *ts: np.stack(ts), *param_sets[1:]).copy()


def _as_batch(x, name: str, dtype=np.float64) -> np.ndarray:
    a = np.asarray(x, dtype=dtype)
    if a.ndim not in (2, 3):
        raise ConfigError(f"{name} must be a 2-D array or a stack of them, got shape {a.shape}")
    return a


def _batch_stats(h: np.ndarray, centered=None, square=None):
    """Batch mean, centred input and biased variance over ``axis=-2``
    (statistics keep that axis at length 1); bitwise what ``h.mean`` and
    ``h.var`` give, without computing the mean twice, and written into
    ``centered`` and ``square`` if given."""
    n = h.shape[-2]
    mu = np.add.reduce(h, axis=-2, keepdims=True) / n
    centered = np.subtract(h, mu, out=centered)
    square = np.multiply(centered, centered, out=square)
    return mu, centered, np.add.reduce(square, axis=-2, keepdims=True) / n


def _non_finite(what: str, layer: int | None, h: np.ndarray, client_ids) -> NumericError:
    """The error for a non-finite ``h``, naming the first model (lowest
    stack index) that holds such a value."""
    client = None
    if client_ids is not None:
        first = 0 if h.ndim == 2 else int(np.argmin(np.isfinite(h).all(axis=(-2, -1))))
        client = client_ids[first]
    at = "" if client is None else f" at client {client}"
    return NumericError(f"non-finite {what}{at}", layer=layer, client=client)


def _check_inputs(params: ParamSet, arch: Architecture, h: np.ndarray) -> None:
    """The shape checks of :func:`forward`: the input against the
    architecture, the parameters against both."""
    if h.shape[-1] != arch.in_dim:
        raise ConfigError(f"x has width {h.shape[-1]}, architecture expects {arch.in_dim}")
    if h.shape[-2] < 1:
        raise ConfigError("x must contain at least one sample")
    if h.shape[:-2] != params.head_W.shape[:-2]:
        raise ContractViolation("x and params disagree on the number of stacked models")
    for i, spec in enumerate(arch.feature_specs):
        if spec.kind == "dense":
            W = params.feature[f"{i}.W"]
            if W.shape[-2:] != (spec.in_dim, spec.out_dim):
                raise ConfigError(f"layer {i} weight shape {W.shape} does not match spec")
    if params.head_W.shape[-2] != arch.feature_out_dim:
        raise ContractViolation(
            f"head expects {params.head_W.shape[-2]} features, extractor emits {arch.feature_out_dim}"
        )


def _forward(params: ParamSet, arch: Architecture, h: np.ndarray, train: bool, client_ids, bufs):
    """The layer math of :func:`forward` on checked inputs, in ``bufs``
    (:func:`buffer_shapes`).  Also returns, per batch-norm layer, the
    ``(centered, sqrt(var + eps))`` pair it normalised with, which
    :func:`_backward` reuses after a train-mode pass.  Dense layers,
    train-mode batch norm (and its centred input) and the head write into
    the next buffer; the other layers follow a dense layer and work in
    place, as does the sigmoid."""
    acts, norms = [h], {}
    bufs = iter(bufs)
    for i, spec in enumerate(arch.feature_specs):
        # where the layer writes: the next buffer or in place
        own = spec.kind == "dense" or (train and spec.kind == "batchnorm")
        out = next(bufs) if own else h
        if spec.kind == "dense":
            h = np.matmul(h, params.feature[f"{i}.W"], out=out)
            h += params.feature[f"{i}.b"][..., None, :]
        elif spec.kind == "batchnorm":
            if train:  # the square goes where the output will
                mu, centered, var = _batch_stats(h, next(bufs), out)
                m = BN_MOMENTUM
                for stat, new in ((params.bn_mean[i], mu), (params.bn_var[i], var)):
                    # bitwise (1 - m) * stat + m * new, in place
                    stat *= 1.0 - m
                    stat += m * new[..., 0, :]
                    if not np.isfinite(stat).all():
                        raise _non_finite(f"batch-norm running statistic of layer {i}", i,
                                          stat[..., None, :], client_ids)
            else:
                centered = np.subtract(h, params.bn_mean[i][..., None, :], out=out)
                var = params.bn_var[i][..., None, :]
            norms[i] = (centered, np.sqrt(var + BN_EPS))
            # gamma * (centered / std) + beta, one term at a time
            h = np.divide(centered, norms[i][1], out=out)
            h *= params.feature[f"{i}.gamma"][..., None, :]
            h += params.feature[f"{i}.beta"][..., None, :]
        else:  # relu
            h = np.maximum(h, 0.0, out=out)
        # a relu's input was checked, and max(x, 0) of a finite x is finite
        if spec.kind != "relu" and not np.isfinite(h).all():
            raise _non_finite(f"activation after layer {i} ({spec.kind})", i, h, client_ids)
        acts.append(h)
    logits = np.matmul(h, params.head_W, out=next(bufs))
    logits += params.head_b[..., None, :]
    if not np.isfinite(logits).all():
        raise _non_finite("head pre-activation", len(arch.feature_specs), logits, client_ids)
    out = expit(logits, out=logits)
    acts += [logits, out]
    return acts, out, norms


def buffer_shapes(arch: Architecture, lead: tuple, head_cols: int, train=False, loss=False) -> list:
    """The buffers a :func:`forward` in train or eval mode on inputs of
    leading shape ``lead`` (rows, or models and rows) with ``head_cols``
    head columns writes, in the order it takes them; with ``loss``, then
    a loss's work array."""
    widths = []
    for s in arch.feature_specs:
        norm = train and s.kind == "batchnorm"
        widths += [s.out_dim] * ((s.kind == "dense" or norm) + norm)
    return [(*lead, w) for w in widths + [head_cols] * (1 + loss)]


def grad_shapes(arch: Architecture, lead: tuple, head_cols: int) -> list:
    """The buffers a backward pass writes after a :func:`buffer_shapes`
    train pass: the output gradient, the input gradients from the top
    down (none without feature layers), then one block for the trainable
    tensors' gradients (:func:`grad_views`), which :func:`train_step`
    first uses as its loss's work array."""
    back = [arch.feature_out_dim] if arch.feature_specs else []
    for i, s in enumerate(arch.feature_specs):
        if s.kind == "batchnorm" or i > 0 and s.kind == "dense":  # an input gradient, top down
            back.insert(1, s.in_dim)
    grads = (arch.feature_out_dim + 1) * head_cols + sum(
        (s.in_dim + 1) * s.out_dim if s.kind == "dense" else 2 * s.out_dim * (s.kind == "batchnorm")
        for s in arch.feature_specs)
    block = max(math.prod(lead) * head_cols, math.prod(lead[:-1]) * grads)
    return [(*lead, w) for w in [head_cols] + back] + [(block,)]


def grad_views(params: ParamSet, block: np.ndarray, stats=None) -> ParamSet:
    """Trainable tensors of ``params`` as views of ``block``, with ``stats``
    its statistics as views of that: from the array's start, one row per
    model, its tensors end to end in :meth:`ParamSet.tensors` order."""
    lead, rows, tables = params.head_W.shape[:-2], [], []
    for bn, flat in enumerate([block] if stats is None else [block, stats]):
        walk = [(g, k, a.shape[len(lead):]) for g, k, a in params.tensors() if g.startswith("bn_") == bn]
        ends = list(accumulate((math.prod(s) for *_, s in walk), initial=0))
        tables.append(table := flat.reshape(-1)[:math.prod(lead) * ends[-1]].reshape(*lead, ends[-1]))
        rows += [(g, k, table[..., lo:hi].reshape(*lead, *s)) for (g, k, s), lo, hi in zip(walk, ends, ends[1:])]
    return ParamSet.from_tensors(rows, tuple(tables))


class Int8Block(tuple):
    """An arena entry for an ``int8`` array of ``shape``: (float64 elements it takes,)."""
    def __new__(cls, shape):
        block = super().__new__(cls, (-(-math.prod(shape) // 8),))
        block.shape = tuple(shape)
        return block


def train_layout(arch: Architecture, models: int, n: int, head_cols: int, batch_size: int) -> dict[int, list]:
    """A lock-step epoch's arena layout at each batch length, full first:
    the gathered rows and ``int8`` labels, then a :func:`train_step`'s
    buffers, a train pass's (:func:`buffer_shapes`) and then the
    backward pass's (:func:`grad_shapes`)."""
    ahead = [(models, n, arch.in_dim), Int8Block((models, n, head_cols))]
    return {b: ahead + buffer_shapes(arch, (models, b), head_cols, True)
            + grad_shapes(arch, (models, b), head_cols)
            for b in sorted({min(batch_size, n), n % batch_size or batch_size}, reverse=True)}


class Arena:
    """One flat float64 array for passes that never run at the same time,
    sized for the largest of ``layouts`` (lists of shapes).  A pass takes
    C-contiguous views of it, laid end to end from its start (an
    :class:`Int8Block` as ``int8``); one that needs more replaces it."""

    def __init__(self, *layouts):
        self.flat = np.empty(max(map(Arena.size, layouts), default=0))

    @staticmethod
    def size(shapes) -> int:
        """The float64 elements a pass on ``shapes`` takes."""
        return sum(map(math.prod, shapes))

    def views(self, shapes) -> list[np.ndarray]:
        sizes = [math.prod(s) for s in shapes]
        if sum(sizes) > self.flat.size:
            self.flat = np.empty(sum(sizes))
        views = [self.flat[o:o + n] for o, n in zip(accumulate(sizes, initial=0), sizes)]
        return [v.view(np.int8)[:math.prod(s.shape)].reshape(s.shape) if isinstance(s, Int8Block)
                else v.reshape(s) for v, s in zip(views, shapes)]


def forward(params: ParamSet, arch: Architecture, x, mode: str = "train", client_ids=None,
            bufs=None):
    """Run the network.  Returns ``(activations, output)``.

    ``activations[0]`` is the input, then one entry per feature layer,
    then the head pre-activations (logits), then the sigmoid output;
    :func:`backward` takes the list.  A layer that works in place leaves
    its input's entry holding its output: a ReLU, eval-mode batch norm
    and the sigmoid over the logits.  In train mode batch-norm
    normalises with batch statistics and updates the running statistics
    in place; in eval mode it reads the running statistics and touches
    nothing.

    ``x`` is ``(b, d)`` for one model, or ``(K, b, d)`` for K models
    stacked along a leading axis of every tensor in ``params``.  Each
    model's slice is bitwise what a call with that model alone gives.
    ``client_ids`` (one per model) name the failing client in a
    :class:`NumericError`.  The pass writes into ``bufs``
    (:func:`buffer_shapes`), which the next call into them overwrites,
    or into a fresh arena of its own.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    h = _as_batch(x, "x")
    _check_inputs(params, arch, h)
    train = mode == "train"
    bufs = bufs or Arena().views(buffer_shapes(arch, h.shape[:-1], params.head_cols, train))
    acts, out, _ = _forward(params, arch, h, train, client_ids, bufs)
    return acts, out


def _mask_cols(mask, p: np.ndarray) -> np.ndarray | None:
    """The masked columns as an integer index array: ``(lc,)`` when one
    mask serves every model, ``(K, lc)`` with one row per stacked model;
    None when they are every column of ``p``, in order.  A shared mask is
    sorted and de-duplicated; per-model rows must already be strictly
    increasing.  Entries must be of an integer dtype (bool is not one):
    a float, bool or string is never read as a column."""
    cols = np.asarray(mask)
    if cols.ndim not in (1, 2) or cols.size == 0:
        raise ConfigError("mask must name at least one class column, in a row or one row per model")
    if not np.issubdtype(cols.dtype, np.integer):
        raise ConfigError(f"mask entries must be integers, got dtype {cols.dtype}")
    if cols.min() < 0 or cols.max() >= p.shape[-1]:
        raise ConfigError(f"mask column out of range for width {p.shape[-1]}")
    if cols.ndim == 1:
        cols = np.unique(cols)
    elif p.ndim != 3 or cols.shape[0] != p.shape[0]:
        raise ConfigError("a per-model mask needs one row per stacked model")
    elif np.any(cols[:, 1:] <= cols[:, :-1]):
        raise ConfigError("per-model mask rows must be strictly increasing")
    # sorted, unique and in range: as wide as p means every column, in order
    return None if cols.shape[-1] == p.shape[-1] else cols


def _take_cols(a: np.ndarray, cols) -> np.ndarray:
    if cols is None:
        return a
    if cols.ndim == 1:
        return a[..., cols]
    return np.take_along_axis(a, cols[:, None, :], axis=-1)


def _check_pair(p, y) -> tuple[np.ndarray, np.ndarray]:
    p = _as_batch(p, "p")
    y = _as_batch(y, "y", None)
    if p.shape != y.shape:
        raise ConfigError(f"p {p.shape} and y {y.shape} differ in shape")
    return p, y


def _bce(p: np.ndarray, y: np.ndarray, work: np.ndarray):
    """Clamped BCE averaged over every sample and column of ``p``, one
    value per stacked model, for 0/1 labels ``y`` of any dtype.  It
    overwrites ``p`` and makes its temporaries in ``work`` (contiguous,
    at least ``p.size`` float64 elements).

    Bitwise ``mean(-(y * log p + (1 - y) * log1p(-p)))``: for y in {0, 1}
    the term it drops is a signed zero, and the mean of the negated
    terms is the negated mean."""
    q = np.maximum(p, BCE_CLAMP, out=p)  # the clamp
    work = work.reshape(-1)[:p.size]
    np.minimum(q, 1.0 - BCE_CLAMP, out=q)
    log_p = np.log(q, out=work.reshape(q.shape))
    np.log1p(np.negative(q, out=q), out=q)
    # where(y == 1, log p, log1p(-p)) with no branch: the dropped term is a signed zero
    log_p *= y
    q *= 1 - y
    q += log_p
    # reduce over a contiguous (..., columns, samples) layout: column-major
    # per model, the order a 2-D call's column selection leaves it in
    t = work.reshape(q.swapaxes(-1, -2).shape)
    np.copyto(t, q.swapaxes(-1, -2))
    total = np.add.reduce(t, axis=(-2, -1))
    return -(total / (q.shape[-2] * q.shape[-1]))


def masked_bce_loss(p, y, mask):
    """Binary cross-entropy averaged over samples and the masked columns.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs so a
    saturated prediction yields a large finite loss instead of an inf.
    A 2-D ``p`` gives a float; a stack ``(K, b, c)`` gives one loss per
    model, each summed column by column exactly as a 2-D call sums it.
    """
    p, y = _check_pair(p, y)
    need_binary(y)
    cols = _mask_cols(mask, p)
    q = _take_cols(p, cols).copy()  # the core uses up the columns it reads
    loss = _bce(q, _take_cols(y, cols), np.empty(q.size))
    return float(loss) if p.ndim == 2 else loss


def _output_grad(p: np.ndarray, y: np.ndarray, cols, out: np.ndarray) -> np.ndarray:
    """Gradient of :func:`_bce` of the loss columns ``p``, ``y`` wrt the
    head pre-activations, written into ``out``, the whole head: the
    joint derivative through the output sigmoid, the clamp treated as
    the identity (exact away from saturation).  ``cols`` places the
    columns in the head; None means they are the whole head."""
    g = np.subtract(p, y, out=out if cols is None else None)
    g /= p.shape[-2] * p.shape[-1]
    if cols is None:
        return g
    out.fill(0.0)
    if cols.ndim == 1:
        out[..., cols] = g
    else:
        np.put_along_axis(out, cols[:, None, :], g, axis=-1)
    return out


def _backward(params: ParamSet, arch: Architecture, activations, g: np.ndarray, norms,
              heads_only: bool, bufs, grads: ParamSet) -> ParamSet:
    """Backpropagate the logit gradient ``g``, its input gradients into
    ``bufs`` (:func:`grad_shapes`, past the output gradient) and the
    parameter gradients into ``grads`` (:func:`grad_views`), which it
    returns.  ``norms`` holds the ``(centered, sqrt(var + eps))`` pair of
    each batch-norm layer, and overwrites it.  With ``heads_only`` it
    stops after the head and the feature gradients are not written;
    without feature layers it stops there too."""
    nspecs = len(arch.feature_specs)
    np.matmul(activations[nspecs].swapaxes(-1, -2), g, out=grads.head_W)
    np.add.reduce(g, axis=-2, out=grads.head_b)
    if heads_only or not nspecs:
        return grads
    bufs = iter(bufs)
    g = np.matmul(g, params.head_W.swapaxes(-1, -2), out=next(bufs))
    for i in range(nspecs - 1, -1, -1):
        spec = arch.feature_specs[i]
        x_in = activations[i]
        if spec.kind == "dense":
            np.matmul(x_in.swapaxes(-1, -2), g, out=grads.feature[f"{i}.W"])
            np.add.reduce(g, axis=-2, out=grads.feature[f"{i}.b"])
            if i > 0:  # the input gradient of the first layer has no use
                g = np.matmul(g, params.feature[f"{i}.W"].swapaxes(-1, -2), out=next(bufs))
        elif spec.kind == "batchnorm":
            gamma = params.feature[f"{i}.gamma"][..., None, :]
            nb = x_in.shape[-2]
            centered, std = norms[i]
            inv = 1.0 / std
            xhat = np.multiply(centered, inv, out=centered)
            t = np.multiply(g, xhat, out=next(bufs))
            np.add.reduce(t, axis=-2, out=grads.feature[f"{i}.gamma"])
            np.add.reduce(g, axis=-2, out=grads.feature[f"{i}.beta"])
            dxhat = np.multiply(g, gamma, out=g)
            # (inv / nb) * (nb * dxhat - Σ dxhat - xhat * Σ (dxhat * xhat)), term by term
            s = np.add.reduce(np.multiply(dxhat, xhat, out=t), axis=-2, keepdims=True)
            np.multiply(nb, dxhat, out=t)
            t -= np.add.reduce(dxhat, axis=-2, keepdims=True)
            t -= np.multiply(xhat, s, out=xhat)
            g = np.multiply(inv / nb, t, out=t)
        else:  # relu
            g = np.multiply(g, x_in > 0.0, out=g)
    return grads


def backward(params: ParamSet, arch: Architecture, activations, p, y, mask) -> ParamSet:
    """Analytic gradients of :func:`masked_bce_loss` wrt every trainable
    parameter.  ``activations`` must come from a matching train-mode
    forward call on the same parameters.  Head columns outside the mask
    receive exactly zero gradient.  Stacked inputs give stacked
    gradients, as a :class:`ParamSet` with empty statistics dicts.
    """
    p, y = _check_pair(p, y)
    if len(activations) != len(arch.feature_specs) + 3:
        raise ContractViolation("activation list does not match the architecture")
    if activations[0].shape[:-1] != p.shape[:-1]:
        raise ContractViolation("activations are stale: batch size mismatch")
    if p.shape[-1] != params.head_cols:
        raise ContractViolation("p width does not match the head")
    cols = _mask_cols(mask, p)
    bufs = Arena().views(grad_shapes(arch, p.shape[:-1], p.shape[-1]))
    g = _output_grad(_take_cols(p, cols), _take_cols(y, cols), cols, bufs[0])
    norms = {}
    for i in arch.bn_layers():
        _, centered, var = _batch_stats(activations[i])
        norms[i] = (centered, np.sqrt(var + BN_EPS))
    return _backward(params, arch, activations, g, norms, False, bufs[1:-1], grad_views(params, bufs[-1]))


def _check_sgd(lr: float) -> None:
    if need_number(lr, "lr") < 0.0:
        raise ConfigError("must be non-negative", "lr")


def _step(v: np.ndarray, g: np.ndarray, lr: float) -> None:
    """``v -= lr * g`` in place, ``lr * g`` formed in ``g`` (used up): bitwise ``v - lr * g``."""
    v -= np.multiply(lr, g, out=g)


def _sgd(params: ParamSet, grads: np.ndarray, lr: float, heads_only: bool) -> None:
    """The SGD update of a set laid out in tables, in place, over its
    first table (the head's columns last, and only they with
    ``heads_only``), using up the gradient table ``grads`` laid out like
    it."""
    cut = params.feature_width if heads_only else 0
    _step(params.tables[0][..., cut:], grads[..., cut:], lr)


def sgd_step(params: ParamSet, grads: ParamSet, lr: float, heads_only: bool = False) -> ParamSet:
    """One SGD step; with ``heads_only`` the feature extractor is left
    alone.  Running statistics are never touched.  Returns a new
    ParamSet; tensors it does not train keep their arrays."""
    _check_sgd(lr)
    trained = {"feature": not heads_only, "head_W": True, "head_b": True}
    given = {(g, k): a for g, k, a in grads.tensors()}
    for g, k, a in params.tensors():
        if trained.get(g) and getattr(given.get((g, k)), "shape", None) != a.shape:
            raise ContractViolation(f"gradient missing or mis-shaped for {k or g}")
    out = ParamSet.from_tensors((g, k, a.copy() if trained.get(g) else a) for g, k, a in params.tensors())
    for g, k, v in out.tensors():
        if trained.get(g):
            _step(v, given[g, k].copy(), lr)  # the core uses up its copy of the gradient
    return out


# --- lock-step training -------------------------------------------------------


def check_training(params: ParamSet, arch: Architecture, x, y) -> None:
    """The input and label checks of the four functions above, made once
    for a training set that :func:`train_step` then walks batch by batch:
    ``x`` and ``y`` hold all of it, stacked like ``params``.  The loss
    columns (:func:`_mask_cols`) and ``lr`` (:func:`_check_sgd`) are the
    caller's to check once."""
    x, y = _as_batch(x, "x"), _as_batch(y, "y", None)
    _check_inputs(params, arch, x)
    if y.shape != x.shape[:-1] + (params.head_cols,):
        raise ContractViolation(f"labels {y.shape} do not match inputs {x.shape} and the head")
    need_binary(y)


def train_step(params: ParamSet, arch: Architecture, x, y, cols, lr: float, heads_only: bool, client_ids, bufs,
               grads):
    """One SGD step on a batch cut from inputs :func:`check_training`
    passed, ``cols`` from :func:`_mask_cols` or None for every column:
    bitwise :func:`forward`, :func:`masked_bce_loss`, :func:`backward`
    and :func:`sgd_step` in a row, but ``params`` is updated in place,
    batch-norm statistics are computed once and a mask over every column
    is not applied.  With ``heads_only``, backpropagation stops after the
    head and only the head steps.  It
    writes into ``bufs`` (C-contiguous, a :func:`buffer_shapes` train
    pass then :func:`grad_shapes`) and every gradient into ``grads``
    (:func:`grad_views` of the last buffer), and allocates no float64
    array with a sample axis but a mask's column cuts.  Returns one loss
    per model."""
    work, bufs = bufs[-1], iter(bufs[:-1])
    acts, p, norms = _forward(params, arch, x, True, client_ids, bufs)
    if cols is not None:
        p, y = _take_cols(p, cols), _take_cols(y, cols)
    g = _output_grad(p, y, cols, next(bufs))
    loss = _bce(p, y, work)  # uses up p
    if not np.isfinite(loss).all():
        raise _non_finite("loss", None, loss[..., None, None], client_ids)
    _sgd(params, _backward(params, arch, acts, g, norms, heads_only, bufs, grads).tables[0], lr, heads_only)
    return loss
