"""Command-line experiment runner.

Subcommands:

* ``run``: seeded replications of one algorithm on one benchmark, raw and
  aggregate CSV output plus a JSON config echo. The config echo is written
  first and each replication's raw rows as it completes, so an interrupted
  run keeps its finished replications.
* ``nll``: held-out negative-log-likelihood comparison of the Kendall and
  Mallows surrogates across training sizes.
* ``solve-qap``: standalone multi-restart (or exact) solve of a QAPLIB file.

Benchmarks are addressed by URI: ``synthetic:d=6[,noise=0.1]``,
``qaplib:PATH``, ``tsplib:PATH[,subset=K]`` and, for ``nll`` only,
``gpdraw:d=10[,l=0.1][,noise=0.1]`` (data drawn jointly from a Mallows-GP
prior). Replications run in parallel under ``--jobs``; rows are always
emitted in replication order so outputs are reproducible byte-for-byte
apart from the timing column.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import multiprocessing
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .benchmarks import (
    QapInstance,
    SyntheticObjective,
    TspInstance,
    parse_qaplib,
    parse_tsplib,
    qap_objective,
    synthetic_objective,
    tsp_tour_length,
)
from .engine import ALGORITHMS, BoConfig, run_algorithm
from .gp import fit, sample_gp_prior, test_nll
from .kernels import KENDALL, MALLOWS, KernelSpec
from .optimizers import BRUTE_FORCE_MAX_D, brute_force_argmin, multi_restart_candidates
from .perm import Permutation, random_permutation

RAW_HEADER = ["rep", "phase", "iter", "permutation", "value", "best_so_far", "seconds"]
AGG_HEADER = ["iter", "mean_best", "stderr_best", "median_best"]
NLL_HEADER = ["kernel", "train_size", "replication", "nll"]


class BenchmarkError(ValueError):
    """Malformed or unknown benchmark URI (a usage error)."""


@dataclass(frozen=True)
class Benchmark:
    uri: str
    kind: str
    d: int
    synth: SyntheticObjective | None = None
    qap: QapInstance | None = None
    tsp: TspInstance | None = None
    gp_lengthscale: float = 0.1
    gp_noise_sd: float = 0.1


def _parse_options(scheme: str, rest: str, allowed: tuple[str, ...]) -> dict[str, str]:
    opts: dict[str, str] = {}
    for part in rest.split(","):
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise BenchmarkError(f"malformed benchmark option {part!r}")
        key = key.strip()
        if key not in allowed:
            raise BenchmarkError(f"unknown {scheme} option {key!r}")
        opts[key] = value.strip()
    return opts


def _int_option(scheme: str, opts: dict[str, str], key: str, low: int) -> int:
    if key not in opts:
        raise BenchmarkError(f"{scheme} benchmark needs {key}=<int>")
    try:
        value = int(opts[key])
    except ValueError:
        value = None
    if value is None or value < low:
        raise BenchmarkError(
            f"{scheme} option {key} must be an integer >= {low}, got {opts[key]!r}"
        )
    return value


def _scale_option(scheme: str, opts: dict[str, str], key: str, default: float) -> float:
    text = opts.get(key)
    if text is None:
        return default
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise BenchmarkError(
            f"{scheme} option {key} must be a finite number >= 0, got {text!r}"
        )
    return value


def parse_benchmark(uri: str, seed: int) -> Benchmark:
    """Resolve a benchmark URI; the synthetic target is derived from the seed.

    Malformed, unknown or out-of-range options raise ``BenchmarkError``
    naming the option.
    """
    kind, sep, rest = uri.partition(":")
    if not sep:
        raise BenchmarkError(f"benchmark URI needs a scheme, got {uri!r}")
    if kind == "synthetic":
        opts = _parse_options(kind, rest, ("d", "noise"))
        d = _int_option(kind, opts, "d", 2)
        noise = _scale_option(kind, opts, "noise", 0.0)
        target = random_permutation(d, np.random.default_rng(np.random.SeedSequence([seed, 0x7A26])))
        synth = SyntheticObjective(target=target, weights=1.0, noise_sd=noise)
        return Benchmark(uri=uri, kind=kind, d=d, synth=synth)
    if kind == "qaplib":
        path, _, tail = rest.partition(",")
        if tail:
            raise BenchmarkError(f"unexpected qaplib options {tail!r}")
        inst = parse_qaplib(Path(path).read_text())
        return Benchmark(uri=uri, kind=kind, d=inst.n, qap=inst)
    if kind == "tsplib":
        path, _, tail = rest.partition(",")
        opts = _parse_options(kind, tail, ("subset",))
        subset = _int_option(kind, opts, "subset", 3) if "subset" in opts else None
        inst = parse_tsplib(Path(path).read_text(), subset=subset)
        return Benchmark(uri=uri, kind=kind, d=inst.n, tsp=inst)
    if kind == "gpdraw":
        opts = _parse_options(kind, rest, ("d", "l", "noise"))
        return Benchmark(
            uri=uri,
            kind=kind,
            d=_int_option(kind, opts, "d", 2),
            gp_lengthscale=_scale_option(kind, opts, "l", 0.1),
            gp_noise_sd=_scale_option(kind, opts, "noise", 0.1),
        )
    raise BenchmarkError(f"unknown benchmark scheme {kind!r}")


def make_objective(bench: Benchmark, rng: np.random.Generator):
    """Pointwise objective for a benchmark; rng feeds synthetic observation noise."""
    if bench.kind == "synthetic":
        return lambda p: synthetic_objective(bench.synth, p, rng)
    if bench.kind == "qaplib":
        return lambda p: qap_objective(bench.qap, p)
    if bench.kind == "tsplib":
        return lambda p: tsp_tour_length(bench.tsp, p)
    raise BenchmarkError(f"benchmark {bench.uri!r} has no pointwise objective")


# --- run ----------------------------------------------------------------------


def _rep_seeds(seed: int, rep: int) -> tuple[np.random.Generator, np.random.Generator]:
    algo_ss, obj_ss = np.random.SeedSequence([seed, rep]).spawn(2)
    return np.random.default_rng(algo_ss), np.random.default_rng(obj_ss)


def run_one_rep(
    uri: str,
    algo: str,
    d_check: int,
    n_iters: int,
    n_init: int,
    restarts: int,
    seed: int,
    rep: int,
) -> list[list]:
    """One replication -> raw CSV rows. Standalone so worker processes can call it."""
    bench = parse_benchmark(uri, seed)
    if bench.d != d_check:
        raise BenchmarkError(f"benchmark dimension changed between processes: {bench.d} vs {d_check}")
    algo_rng, obj_rng = _rep_seeds(seed, rep)
    cfg = BoConfig(
        algorithm=algo,
        d=bench.d,
        n_iters=n_iters,
        n_init=n_init,
        restarts=restarts,
        seed=seed,
    )
    trace = run_algorithm(cfg, make_objective(bench, obj_rng), algo_rng)
    return [
        [rep, r.phase, r.index, r.perm.serialize(), repr(r.value), repr(r.best), repr(r.seconds)]
        for r in trace.records
    ]


def _run_rep_args(args: tuple) -> list[list]:
    return run_one_rep(*args)


def _pool_map(jobs: int, args: list[tuple]) -> Iterator[list[list]]:
    # Workers ignore SIGINT, so Ctrl-C interrupts only this process; leaving
    # the block terminates the workers instead of waiting for queued reps.
    with multiprocessing.Pool(jobs, signal.signal, (signal.SIGINT, signal.SIG_IGN)) as pool:
        yield from pool.imap(_run_rep_args, args)


def replications(
    uri: str,
    algo: str,
    n_iters: int,
    n_init: int,
    reps: int,
    restarts: int,
    seed: int,
    jobs: int = 1,
) -> Iterator[list[list]]:
    """Check the run, then yield each replication's raw rows in replication order."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    bench = parse_benchmark(uri, seed)
    make_objective(bench, np.random.default_rng(0))  # fail fast on non-runnable URIs
    args = [
        (uri, algo, bench.d, n_iters, n_init, restarts, seed, rep) for rep in range(reps)
    ]
    return _pool_map(jobs, args) if jobs > 1 else map(run_one_rep, *zip(*args))


def aggregate(per_rep: list[list[list]]) -> list[list]:
    """Mean, standard error and median of best-so-far across replications, per iteration."""
    best = np.array(
        [[float(row[5]) for row in rows] for rows in per_rep]
    )  # (reps, n_records)
    reps = best.shape[0]
    agg = []
    for it in range(best.shape[1]):
        col = best[:, it]
        stderr = float(np.std(col, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
        agg.append([it, repr(float(np.mean(col))), repr(stderr), repr(float(np.median(col)))])
    return agg


# --- nll ------------------------------------------------------------------------


def _nll_dataset(
    bench: Benchmark,
    train_size: int,
    n_test_sets: int,
    test_size: int,
    rng: np.random.Generator,
):
    total = train_size + n_test_sets * test_size
    perms = [random_permutation(bench.d, rng) for _ in range(total)]
    if bench.kind == "gpdraw":
        prior = KernelSpec(MALLOWS, lengthscale=bench.gp_lengthscale)
        latent = sample_gp_prior(prior, perms, rng)
        with np.errstate(over="ignore"):
            ys = latent + bench.gp_noise_sd * rng.standard_normal(total)
    else:
        objective = make_objective(bench, rng)
        ys = np.array([objective(p) for p in perms])
    if not np.all(np.isfinite(ys)):
        option = " (lower its noise option)" if bench.kind in ("gpdraw", "synthetic") else ""
        raise ValueError(f"benchmark {bench.uri!r} drew a non-finite value{option}")
    train = perms[:train_size], ys[:train_size]
    tests = []
    for k in range(n_test_sets):
        lo = train_size + k * test_size
        tests.append((perms[lo : lo + test_size], ys[lo : lo + test_size]))
    return train, tests


def nll_experiment(
    uri: str,
    train_sizes: list[int],
    reps: int,
    seed: int,
    n_test_sets: int = 10,
    test_size: int = 50,
) -> list[list]:
    """Median held-out NLL rows: one per (train size, replication, kernel family)."""
    bench = parse_benchmark(uri, seed)
    rows = []
    for size in train_sizes:
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([seed, size, rep]))
            (train_x, train_y), tests = _nll_dataset(
                bench, size, n_test_sets, test_size, rng
            )
            for family in (KENDALL, MALLOWS):
                model = fit(KernelSpec(family), train_x, train_y)
                nlls = [test_nll(model, tx, ty) for tx, ty in tests]
                rows.append([family, size, rep, repr(float(np.median(nlls)))])
    return rows


# --- output helpers ---------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_config(path: Path, args: argparse.Namespace) -> None:
    """Echo the parsed command line, all of it but ``--out``, as JSON."""
    payload = {k: v for k, v in vars(args).items() if k not in ("out", "func")}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- commands ----------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    per_rep = replications(
        args.benchmark,
        args.algo,
        args.iters,
        args.init,
        args.reps,
        args.restarts,
        args.seed,
        args.jobs,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_config(out / "config.json", args)
    done: list[list[list]] = []
    with open(out / "raw.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_HEADER)
        try:
            for rows in per_rep:
                writer.writerows(rows)
                fh.flush()
                done.append(rows)
        except KeyboardInterrupt:
            kept = (
                f"replications 0 to {len(done) - 1} of {args.reps} are in {out / 'raw.csv'}"
                if done
                else f"no replication of {args.reps} finished"
            )
            raise KeyboardInterrupt(f"interrupted: {kept}") from None
    _write_csv(out / "aggregate.csv", AGG_HEADER, aggregate(done))
    n_rows = sum(len(rows) for rows in done)
    print(f"wrote {out / 'raw.csv'} ({n_rows} rows) and {out / 'aggregate.csv'}")
    return 0


def cmd_nll(args: argparse.Namespace) -> int:
    rows = nll_experiment(
        args.benchmark,
        args.train_sizes,
        args.reps,
        args.seed,
        n_test_sets=args.test_sets,
        test_size=args.test_size,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "nll.csv", NLL_HEADER, rows)
    _write_config(out / "config.json", args)
    print(f"wrote {out / 'nll.csv'} ({len(rows)} rows)")
    return 0


def cmd_solve_qap(args: argparse.Namespace) -> int:
    inst = parse_qaplib(Path(args.path).read_text())

    def objective(p: Permutation) -> float:
        return qap_objective(inst, p)

    if args.exact:
        if inst.n > BRUTE_FORCE_MAX_D:
            raise BenchmarkError(f"--exact requires n <= {BRUTE_FORCE_MAX_D}, instance has n={inst.n}")
        best, value = brute_force_argmin(objective, inst.n)
    else:
        rng = np.random.default_rng(args.seed)
        best, value = multi_restart_candidates(objective, inst.n, args.restarts, rng)[0]
    if not math.isfinite(value):
        raise ValueError(f"objective returned {value!r} for permutation {best.serialize()}")
    print(f"{best.serialize()} {value!r}")
    return 0


def _int_at_least(low: int):
    """argparse type for integers that must be at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_count = _int_at_least(1)


def _counts(text: str) -> list[int]:
    """argparse type for a comma-separated list of counts, each at least 1."""
    values = [_count(tok) for tok in text.split(",") if tok]
    if not values:
        raise argparse.ArgumentTypeError("need at least one value")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permbo", description="Bayesian optimization over permutation spaces"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run seeded replications of one algorithm")
    p_run.add_argument("--benchmark", required=True, help="synthetic:d=N[,noise=S] | qaplib:PATH | tsplib:PATH[,subset=K]")
    p_run.add_argument("--algo", required=True, choices=ALGORITHMS)
    p_run.add_argument("--iters", type=_count, required=True)
    p_run.add_argument("--init", type=_count, default=20)
    p_run.add_argument("--reps", type=_count, default=20)
    p_run.add_argument("--restarts", type=_count, default=10)
    p_run.add_argument("--seed", type=_int_at_least(0), default=0)
    p_run.add_argument("--jobs", type=_count, default=1)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_nll = sub.add_parser("nll", help="surrogate NLL comparison on held-out sets")
    p_nll.add_argument("--benchmark", required=True)
    p_nll.add_argument("--train-sizes", type=_counts, default="20,40,60")
    p_nll.add_argument("--reps", type=_count, default=10)
    p_nll.add_argument("--test-sets", type=_count, default=10)
    p_nll.add_argument("--test-size", type=_count, default=50)
    p_nll.add_argument("--seed", type=_int_at_least(0), default=0)
    p_nll.add_argument("--out", required=True)
    p_nll.set_defaults(func=cmd_nll)

    p_solve = sub.add_parser("solve-qap", help="solve one QAPLIB instance")
    p_solve.add_argument("path")
    p_solve.add_argument("--restarts", type=_count, default=10)
    p_solve.add_argument("--seed", type=_int_at_least(0), default=0)
    p_solve.add_argument("--exact", action="store_true")
    p_solve.set_defaults(func=cmd_solve_qap)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        print(exc.args[0] if exc.args else "interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
