"""permbo benchmark: closed-loop BO workloads, end-to-end metrics and a traced per-layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bopst-qap15 --seed 0 --seconds 45 --trace 0

Each workload is sequential BO with one client: every iteration waits for
the previous evaluation. A fixed set of replications runs in a
single-threaded child process (``child.py``) through
``permbo.cli.run_one_rep``, with the workload seed passed as its
``seed``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer split from a traced run of the same replications. Both check
every replication's records (``check.py``) and exit with code 1 on a
mismatch. The last line of standard output is one JSON object; the full
record, with the environment and the trace fingerprint, goes to
``perfbench/out/``. The metric names and units are those of
``BENCHMARK.json``. See ``perfbench/README.md`` for the workloads and the
metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"
QAP15 = ROOT / "src" / "permbo" / "data" / "qap15.dat"

#: Child processes timed for ``setup_s``; the median is reported.
SETUP_STARTS = 9
#: One BLAS thread: with two, the p95 of bops-t on qap15 on a 2-core
#: machine was four times the one-thread figure (see README.md).
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150
#: Restarts of the acquisition search, the CLI default.
RESTARTS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str
    uri: str
    n_init: int
    n_iters: int
    #: Every run times replications 0 .. reps - 1, whatever its speed, so
    #: two commits time the same work. Sized to take 20-47 s with one BLAS
    #: thread on a 2-core x86-64 machine, and to give at least 200 iterations.
    reps: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bopst-qap15", "bops-t", f"qaplib:{QAP15}", 20, 80, reps=14),
        Workload("bopsh-d6", "bops-h", "synthetic:d=6", 20, 140, reps=9),
        Workload("bopsh-d15", "bops-h", "synthetic:d=15", 20, 40, reps=5),
    )
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
#: Printed and recorded, but not part of the result line (see README.md):
#: both read 0 on a healthy run of the synthetic workloads.
REPORTED_ONLY = {"best_final_mean": "objective", "failed_frac": "fraction"}


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, a child that crashed)."""


def child_spec(w: Workload, seed: int, mode: str, **extra) -> dict:
    spec = {"root": str(ROOT), "mode": mode, "seed": seed, "workload": w.name, "restarts": RESTARTS}
    spec.update(asdict(w))
    spec.update(extra)
    return spec


def _child_cmd(spec: dict) -> tuple[list[str], dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS)
    return [sys.executable, str(CHILD), json.dumps(spec)], env


def run_child(spec: dict) -> dict:
    """Run a child to completion; its last output line is its JSON result."""
    cmd, env = _child_cmd(spec)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"{spec['mode']} child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def time_setup(spec: dict) -> float:
    """Seconds from starting a child to its ``ready`` line (first evaluation done)."""
    cmd, env = _child_cmd(spec)
    start = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup child exited with {proc.returncode}:\n{err[-4000:]}")
    return elapsed


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile by linear interpolation between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def objective_for(w: Workload, result: dict) -> check.Objective:
    if w.uri.startswith("qaplib:"):
        return check.qap_objective_from_file(Path(w.uri.partition(":")[2]))
    return check.discordance_objective(result["target"])


def check_result(w: Workload, result: dict) -> list[str]:
    objective = objective_for(w, result)
    errors = []
    for rows in result["reps"]:
        if rows is not None:
            errors += check.check_rep(rows, w.n_init, w.n_iters, result["d"], objective)
    return errors


def quality(result: dict) -> dict[str, float]:
    ok = [rows for rows in result["reps"] if rows is not None]
    if not ok:
        raise BenchError(f"every replication failed:\n{result['failures'][0]}")
    curves = [[float(row[5]) for row in rows] for rows in ok]
    return {
        "best_final_mean": statistics.fmean(c[-1] for c in curves),
        "best_curve_mean": statistics.fmean(v for c in curves for v in c),
        "fingerprint": check.fingerprint(ok),
    }


def iteration_ms(result: dict) -> list[float]:
    return [
        1e3 * float(row[6])
        for rows in result["reps"]
        if rows is not None
        for row in rows
        if row[1] == "bo"
    ]


def end_to_end(w: Workload, seed: int) -> tuple[dict, dict]:
    """(metrics, record): setup starts, then the workload's replications."""
    setups = [time_setup(child_spec(w, seed, "setup")) for _ in range(SETUP_STARTS)]
    result = run_child(child_spec(w, seed, "run"))
    q = quality(result)
    times = iteration_ms(result)
    ok_seconds = sum(t for rows, t in zip(result["reps"], result["rep_seconds"]) if rows is not None)
    metrics = {
        "setup_s": statistics.median(setups),
        "iter_ms_p50": statistics.median(times),
        "iter_ms_p95": percentile(times, 95),
        "bo_iters_per_s": len(times) / ok_seconds,
        "peak_rss_mb": result["peak_rss_mb"],
        "best_final_mean": q["best_final_mean"],
        "best_curve_mean": q["best_curve_mean"],
        "failed_frac": len(result["failures"]) / len(result["reps"]),
    }
    record = {
        "setup_samples_s": setups,
        "iter_samples": len(times),
        "wall_s": sum(result["rep_seconds"]),
        "fingerprint": q["fingerprint"],
    }
    return metrics, {**record, **_common(w, result)}


def per_layer(w: Workload, seed: int) -> tuple[dict, dict]:
    """(metrics, record): a traced and an untraced child over the same replications."""
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{w.name}-seed{seed}.spans.jsonl.gz"
    plain = run_child(child_spec(w, seed, "run"))
    traced = run_child(child_spec(w, seed, "trace", spans_path=str(spans_path)))
    metrics = dict(traced["layers"])
    plain_p50 = statistics.median(iteration_ms(plain))
    metrics["trace.overhead_frac"] = statistics.median(iteration_ms(traced)) / plain_p50 - 1.0
    record = {
        "spans_file": str(spans_path.relative_to(ROOT)),
        "trace.spans": metrics.pop("trace.spans"),
        "untraced_iter_ms_p50": plain_p50,
        "fingerprint": quality(plain)["fingerprint"],
        "traced_fingerprint": quality(traced)["fingerprint"],
        **_common(w, traced),
    }
    if record["fingerprint"] != record["traced_fingerprint"]:
        record["errors"].append("tracing changed the seeded trace (fingerprints differ)")
    record["errors"] += check_result(w, plain)
    return metrics, record


def _common(w: Workload, result: dict) -> dict:
    return {
        "workload": asdict(w),
        "env": result["env"],
        "failures": result["failures"],
        "attempted": len(result["reps"]),
        "errors": check_result(w, result),
    }


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(w: Workload, seed: int, trace: bool) -> dict:
    """Measure one workload; returns the result line's object plus the full record."""
    if not (ROOT / "src" / "permbo" / "__init__.py").is_file():
        raise BenchError(f"permbo sources not found under {ROOT / 'src'}")
    if trace:
        metrics, record = per_layer(w, seed)
        units = PER_LAYER
    else:
        metrics, record = end_to_end(w, seed)
        units = END_TO_END
    record["env"]["git_sha"] = git_sha()
    record["metrics"] = {k: {"value": v, "unit": {**units, **REPORTED_ONLY}[k]} for k, v in metrics.items()}
    return {
        "correct": not record["errors"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "record": record,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    # The replication set is fixed per workload (``Workload.reps``) so that
    # every commit times the same work; the budget is only recorded.
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that the child
    # running at the time is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    w = WORKLOADS[args.workload]
    try:
        out = run_workload(w, args.seed, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = out.pop("record")
    record["seconds_budget"] = args.seconds
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {w.name}: {w.algo} on {w.uri.rpartition('/')[2]}, init {w.n_init} + "
          f"{w.n_iters} iterations, seed {args.seed}, {record['attempted']} replications")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:>18.10g} {m['unit']}")
    if "iter_samples" in record:
        print(f"  iterations timed {record['iter_samples']}")
    print(f"  fingerprint {record['fingerprint']}")
    print(f"  record {path.relative_to(ROOT)}")
    for err in record["failures"] + record["errors"]:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
