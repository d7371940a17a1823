"""In-memory spans and counts around the surgfed layers, for traced runs.

Nothing in ``src/`` knows about tracing: :func:`install` replaces
module-level functions with wrappers that open a span, call the
original and close the span.  A function is replaced under every module
name the program calls it through (``from .x import f`` binds a second
name), so all call sites are seen.

Spans are aggregated as they close, keyed by ``(name, parent name)``:
call count, inclusive time and self time (inclusive minus the time of
direct child spans).  Each span also carries a *phase*; a span that
does not declare one inherits its parent's, and self time is summed
per phase.  Phases partition the process's wall time, so together with
the interpreter start-up they account for all of it; the remainder is
reported as ``trace.unaccounted_s``.
"""

from __future__ import annotations

import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        # stack entries: [name, phase, start, child_time]
        self.stack: list[list] = []
        self.stats: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.phase_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def enter(self, name: str, phase: str | None) -> None:
        parent = self.stack[-1] if self.stack else None
        if phase is None:
            phase = parent[1] if parent else "harness"
        self.stack.append([name, phase, _now(), 0.0])

    def exit(self) -> None:
        t1 = _now()
        name, phase, t0, child = self.stack.pop()
        dur = t1 - t0
        parent = self.stack[-1] if self.stack else None
        st = self.stats[(name, parent[0] if parent else "")]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        self.phase_self[phase] += dur - child
        if parent is not None:
            parent[3] += dur

    def parent_name(self) -> str:
        return self.stack[-1][0] if self.stack else ""

    def wrap(self, fn, name: str, phase=None, before=None, after=None):
        """``phase`` is a phase name, None to inherit, or a callable of the
        parent span name returning either.  ``before(args)`` runs ahead of
        the span and ``after(result)`` once the call has returned."""
        tracer = self

        def wrapper(*args, **kwargs):
            ph = phase(tracer.parent_name()) if callable(phase) else phase
            if before is not None:
                before(args)
            tracer.enter(name, ph)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> dict:
        return {
            "stats": [[n, p, c, i, s] for (n, p), (c, i, s) in sorted(self.stats.items())],
            "phase_self_s": dict(self.phase_self),
            "counts": dict(self.counts),
        }


def params_nbytes(ps) -> int:
    return (
        sum(v.nbytes for v in ps.feature.values())
        + sum(v.nbytes for v in ps.bn_mean.values())
        + sum(v.nbytes for v in ps.bn_var.values())
        + ps.head_W.nbytes
        + ps.head_b.nbytes
    )


def install(tracer: Tracer) -> None:
    """Wrap the module-level functions each surgfed layer exposes."""
    from surgfed import aggregation, cli, data, metrics, model, registry, simulator

    def patch(modules, attr, name, phase=None, before=None, after=None):
        original = getattr(modules[0], attr)
        wrapped = tracer.wrap(original, name, phase, before, after)
        for mod in modules:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} is not the function it should be")
            setattr(mod, attr, wrapped)

    def upload(args):
        clients = args[0]
        tracer.counts["aggregation.rounds"] += 1
        tracer.counts["aggregation.upload_bytes"] += sum(params_nbytes(c.params) for c in clients)

    def download(sendbacks):
        tracer.counts["aggregation.download_bytes"] += sum(params_nbytes(ps) for ps in sendbacks)

    def under_run(phase):
        return lambda parent: phase if parent == "simulator.run_experiment" else None

    # cli
    patch([cli], "main", "cli.main", "cli")
    patch([cli], "parse_config", "cli.parse", "parse")
    patch([cli], "build_manifest", "cli.manifest", "manifest")
    patch([cli], "_write_run_outputs", "cli.write", "write")
    patch([cli, model], "save_checkpoint", "model.save_checkpoint")
    # data: in-run generation is its own phase, the manifest's stays in "manifest"
    patch([data, cli, simulator], "generate_synthetic", "data.generate_synthetic", under_run("datagen"))
    # simulator
    patch([simulator, cli], "run_suite", "simulator.run_suite", "suite")
    patch([simulator], "head_warmup", "simulator.warmup", "warmup")
    patch([simulator], "_train_all", "simulator.train", "train")
    patch([simulator], "local_train", "model.local_train")
    patch([simulator], "validation_loss", "simulator.val", "val")
    patch([simulator], "evaluate", "simulator.evaluate", under_run("test_eval"))
    patch([simulator], "server_update", "aggregation.server_update", "aggregate",
          upload, lambda res: download(res[1]))
    patch([simulator], "_full_fedavg_update", "simulator.full_fedavg_update", "aggregate",
          upload, lambda res: download(res[1]))
    patch([simulator], "_pfl_update", "simulator.pfl_update", "aggregate",
          upload, download)
    # model and the nn kernel as the training loop calls it
    patch([model], "_train_epoch", "model.train_epoch")
    patch([model], "forward", "nn.forward")
    patch([model], "backward", "nn.backward")
    patch([model], "masked_bce_loss", "nn.loss")
    patch([model], "sgd_step", "nn.sgd_step")
    # aggregation, metrics, registry
    patch([aggregation], "surgical_head_update", "aggregation.surgical_head_update")
    patch([aggregation, simulator], "mean_arrays", "aggregation.mean_arrays")
    patch([metrics], "auroc", "metrics.auroc")
    patch([registry, aggregation], "clients_with_class", "registry.clients_with_class")
