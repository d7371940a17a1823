"""One fresh process of the benchmark.

    python3 perfbench/child.py <request.json>

The request names a mode and where to write the record:

``plain``   run the CLI with only the probes the end-to-end metrics need:
            the time of the first ``head_warmup`` call (end of set-up) and
            one timestamp per communication round, taken through
            ``run_experiment``'s ``round_hook``.
``traced``  ``plain`` plus the span wrappers of ``tracer.py``.
``micro``   the fixed-shape microbenchmarks of ``micro.py``.

All times are ``time.perf_counter()`` readings, which on Linux come from
CLOCK_MONOTONIC and so compare across processes.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def env_stamp() -> dict:
    """Library versions and the BLAS the process actually runs with."""
    import ctypes
    import glob
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _install_probes(rec: dict, tracer) -> None:
    from surgfed import cli, simulator

    warmup = simulator.head_warmup  # already a span wrapper in traced runs

    def head_warmup(*args, **kwargs):
        now = time.perf_counter()
        if rec["t_setup"] is None:
            rec["t_setup"] = now
        out = warmup(*args, **kwargs)
        rec["experiments"][-1]["t_warmup_end"] = time.perf_counter()
        return out

    simulator.head_warmup = head_warmup

    original = run = simulator.run_experiment
    if tracer is not None:
        run = tracer.wrap(run, "simulator.run_experiment", "loop")

    def run_experiment(config, parallel=1, round_hook=None):
        exp = {"method": config.method, "t_warmup_end": None, "rounds": []}
        rec["experiments"].append(exp)

        def hook(r, global_params, clients):
            exp["rounds"].append(time.perf_counter())
            if round_hook is not None:
                round_hook(r, global_params, clients)

        return run(config, parallel, hook)

    for mod in (simulator, cli):
        if mod.run_experiment is not original:
            raise RuntimeError(f"{mod.__name__}.run_experiment is not the function it should be")
        mod.run_experiment = run_experiment


def _write(rec: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(rec, f)


def main() -> int:
    with open(sys.argv[1]) as f:
        req = json.load(f)
    rec = {"t_start": T_START, "t_setup": None, "experiments": [], "exit_code": None}
    sys.path.insert(0, req["src"])

    t0 = time.perf_counter()
    import surgfed.cli as cli

    rec["t_import"] = [t0, time.perf_counter()]
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(req["src"]) + os.sep):
        raise SystemExit(f"surgfed was imported from {cli.__file__}, not from {req['src']}")

    if req["mode"] == "micro":
        import micro

        rec["micro"] = micro.run_all()
        rec["env"] = env_stamp()
        _write(rec, req["record"])
        return 0

    tracer = None
    if req["mode"] == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    _install_probes(rec, tracer)

    rec["exit_code"] = cli.main(req["argv"])
    rec["t_done"] = time.perf_counter()
    rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rec["env"] = env_stamp()
    if tracer is not None:
        rec["trace"] = tracer.dump()
    _write(rec, req["record"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
