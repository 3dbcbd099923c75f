"""Measured child process: one workload, single-threaded BLAS, permbo from ``src/``.

Run by ``run.py`` with one JSON argument (see ``run.child_spec``). Modes:

* ``setup``: import permbo, resolve the benchmark URI, evaluate the
  objective once, print ``ready`` and exit. The parent times this from
  process start to the ``ready`` line.
* ``run``: run replications 0 .. ``reps`` - 1 through
  ``permbo.cli.run_one_rep`` (the path ``permbo run`` takes) and print
  their raw rows and wall times.
* ``trace``: the same with spans around permbo's public functions
  (``tracing.install``); also prints the per-layer split and writes the
  spans to ``spans_path``.

A replication that raises is recorded as failed and the run goes on.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _environment(np, accel) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "accel_backend": accel.BACKEND,
    }


def main(spec: dict) -> int:
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    import permbo.cli as cli
    from permbo import accel
    from permbo.perm import random_permutation

    src = (root / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"permbo was imported from {cli.__file__}, not from {src}")

    uri, seed = spec["uri"], spec["seed"]
    bench = cli.parse_benchmark(uri, seed)
    if spec["mode"] == "setup":
        objective = cli.make_objective(bench, np.random.default_rng(seed))
        objective(random_permutation(bench.d, np.random.default_rng(seed)))
        print("ready", flush=True)
        return 0

    env = _environment(np, accel)
    tracer = None
    if spec["mode"] == "trace":
        import tracing

        tracer = tracing.Tracer(spec["workload"])
        tracing.install(tracer)

    reps: list[list | None] = []
    rep_seconds: list[float] = []
    failures: list[str] = []
    for rep in range(spec["reps"]):
        if tracer is not None:
            tracer.begin_rep(rep)
        start = time.perf_counter()
        try:
            rows = cli.run_one_rep(
                uri, spec["algo"], bench.d, spec["n_iters"], spec["n_init"],
                spec["restarts"], seed, rep,
            )
        except Exception:
            failures.append(f"rep {rep}: {traceback.format_exc()}")
            rows = None
        rep_seconds.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end_rep()
        reps.append(rows)

    out = {
        "d": bench.d,
        "target": bench.synth.target.values.tolist() if bench.synth is not None else None,
        "reps": reps,
        "rep_seconds": rep_seconds,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans, spec["n_init"], bench.d)
        layers["engine.deflected_frac"] = tracer.deflected / tracer.picks if tracer.picks else 0.0
        layers["trace.spans"] = len(tracer.spans)
        out["layers"] = layers
        tracer.dump(spec["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
