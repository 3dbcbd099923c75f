import contextlib
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import permbo
from permbo import cli
from permbo.benchmarks import bundled_instance_text
from permbo.cli import (
    BenchmarkError,
    main,
    nll_experiment,
    aggregate,
    parse_benchmark,
    replications,
    run_one_rep,
)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _permbo_env():
    """The environment for a fresh interpreter that imports the permbo under test."""
    src = str(Path(permbo.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _python_m_permbo(*argv):
    """``python -m permbo ARGV`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "permbo", *argv], env=_permbo_env(), capture_output=True, text=True
    )


@pytest.fixture
def qap_file(tmp_path):
    path = tmp_path / "hand.dat"
    path.write_text("2\n0 1\n1 0\n0 3\n3 0")
    return path


@pytest.fixture
def qap5_file(tmp_path):
    rng = np.random.default_rng(0)
    n = 5
    A = rng.integers(0, 9, (n, n))
    A = np.triu(A, 1) + np.triu(A, 1).T
    B = rng.integers(1, 9, (n, n))
    B = np.triu(B, 1) + np.triu(B, 1).T
    lines = [str(n)]
    for mat in (A, B):
        lines.extend(" ".join(str(int(v)) for v in row) for row in mat)
    path = tmp_path / "rand5.dat"
    path.write_text("\n".join(lines))
    return path


class TestBenchmarkUris:
    def test_synthetic(self):
        bench = parse_benchmark("synthetic:d=6,noise=0.5", seed=3)
        assert bench.d == 6
        assert bench.synth.noise_sd == 0.5
        # target derives from the seed, not the replication
        again = parse_benchmark("synthetic:d=6,noise=0.5", seed=3)
        assert bench.synth.target == again.synth.target

    def test_qaplib_and_tsplib(self, tmp_path, qap_file):
        assert parse_benchmark(f"qaplib:{qap_file}", seed=0).d == 2
        tsp = tmp_path / "x.tsp"
        tsp.write_text(bundled_instance_text("pcb10.tsp"))
        assert parse_benchmark(f"tsplib:{tsp}", seed=0).d == 10
        assert parse_benchmark(f"tsplib:{tsp},subset=5", seed=0).d == 5

    def test_unknown_scheme(self):
        from permbo.cli import BenchmarkError

        with pytest.raises(BenchmarkError):
            parse_benchmark("simulated:d=3", seed=0)
        with pytest.raises(BenchmarkError):
            parse_benchmark("no-scheme", seed=0)


# Benchmark URIs built from option fragments, valid and not. No generated
# text holds a digit or a line break: only the bounded integers below can
# make a d large, and every error message stays on one line.
_JUNK = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Nd", "Zl", "Zp")), max_size=5)
_DATA = Path(permbo.__file__).resolve().parent / "data"
_PATHS = st.sampled_from([str(_DATA / "qap15.dat"), str(_DATA / "pcb10.tsp"), "/no/such/file", ""])
_VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "inf", "-inf", "-1", "1e400", "2.5", "0x10", " 7 ", "-0.0"]),
    _JUNK,
)
_OPTIONS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["d", "noise", "l", "subset", " d ", "D"]) | _JUNK, _VALUES).map(
            "=".join
        ),
        _JUNK,
    ),
    max_size=4,
).map(",".join)


@st.composite
def benchmark_uris(draw):
    scheme = draw(st.sampled_from(["synthetic", "gpdraw", "qaplib", "tsplib"]) | _JUNK)
    if scheme in ("qaplib", "tsplib"):
        rest = draw(_PATHS)
        options = draw(_OPTIONS)
        rest += "," + options if options else ""
    else:
        rest = draw(_OPTIONS)
    return f"{scheme}{draw(st.sampled_from([':', ':', '']))}{rest}"


@pytest.mark.parametrize("uri, option", [
    ("synthetic:d=5,noise=nan", "noise"),
    ("synthetic:d=5,noise=inf", "noise"),
    ("synthetic:d=5,noise=-0.5", "noise"),
    ("synthetic:d=abc", "d"),
    ("synthetic:d=1", "d"),
    ("synthetic:d=5,nosie=0.1", "'nosie'"),
    ("gpdraw:d=4,noise=-1", "noise"),
    ("gpdraw:d=4,noise=nan", "noise"),
    ("gpdraw:d=4,l=nan", "l"),
    ("gpdraw:d=2.5", "d"),
    ("tsplib:x.tsp,subset=abc", "subset"),
])
def test_bad_benchmark_option_is_named(uri, option):
    with pytest.raises(BenchmarkError, match=f"option {option}"):
        parse_benchmark(uri, seed=0)


def test_bad_noise_is_one_usage_error_line_without_warnings():
    out = _python_m_permbo("nll", "--benchmark", "synthetic:d=5,noise=inf", "--out", "/nonexistent")
    assert out.returncode == 2
    assert out.stderr.startswith("error: synthetic option noise must be a finite number")
    assert "Warning" not in out.stderr and out.stdout == ""


@pytest.mark.parametrize("command", [
    ["run", "--benchmark", "qaplib:{qap}", "--algo", "random", "--iters", "1", "--out", "{out}"],
    ["nll", "--benchmark", "synthetic:d=4", "--out", "{out}"],
    ["solve-qap", "{qap}"],
])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, qap_file, command):
    argv = [a.format(qap=qap_file, out=tmp_path / "r") for a in command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [qap_file]


def test_dimension_too_large_for_memory_is_one_error_line(tmp_path):
    # d = 2897 is the smallest d whose C(d,2) x C(d,2) float64 weight
    # covariance (bops-t) exceeds 2**47 bytes, the x86-64 user address
    # space, so the allocation fails at once whatever the machine's memory.
    out = _python_m_permbo(
        "run", "--benchmark", "synthetic:d=2897", "--algo", "bops-t", "--iters", "1",
        "--init", "1", "--reps", "1", "--out", str(tmp_path / "r"),
    )
    assert out.returncode == 1
    assert out.stderr.startswith("error: Unable to allocate"), out.stderr
    assert out.stderr.count("\n") == 1, out.stderr
    assert out.stdout == ""


def test_huge_mallows_lengthscale_prints_nothing_on_stderr(tmp_path):
    out = _python_m_permbo(
        "nll", "--benchmark", "gpdraw:d=3,l=1e308", "--train-sizes", "5", "--reps", "1",
        "--test-sets", "1", "--test-size", "5", "--out", str(tmp_path / "r"),
    )
    assert out.returncode == 0
    assert out.stderr == ""


class TestBenchmarkUriFuzz:
    @given(benchmark_uris())
    @settings(max_examples=300, deadline=None)
    def test_resolves_or_raises_a_usage_error(self, uri):
        try:
            bench = parse_benchmark(uri, seed=0)
        except (BenchmarkError, ValueError, OSError):
            return
        assert bench.d >= 2
        if bench.synth is not None:
            assert 0.0 <= bench.synth.noise_sd < math.inf
        assert 0.0 <= bench.gp_lengthscale < math.inf
        assert 0.0 <= bench.gp_noise_sd < math.inf

    @given(benchmark_uris())
    @settings(max_examples=6, deadline=None)
    def test_bad_uri_gives_one_error_line(self, uri):
        try:
            parse_benchmark(uri, seed=0)
        except (BenchmarkError, ValueError, OSError):
            pass
        else:
            assume(False)
        out = _python_m_permbo(
            "run", f"--benchmark={uri}", "--algo", "random", "--iters", "1",
            "--out", "/nonexistent/permbo-out",
        )
        assert out.returncode in (1, 2), out.stderr
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert sum(line.startswith("error: ") for line in lines) == 1, out.stderr
        assert "Traceback" not in out.stderr and "Warning" not in out.stderr, out.stderr


class TestCmdRun:
    def test_row_count_contract(self, tmp_path):
        out = tmp_path / "res"
        rc = main([
            "run", "--benchmark", "synthetic:d=6", "--algo", "bops-h",
            "--iters", "30", "--init", "20", "--reps", "3", "--seed", "7",
            "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out / "raw.csv")
        assert header == ["rep", "phase", "iter", "permutation", "value", "best_so_far", "seconds"]
        assert len(rows) == 3 * 50
        agg_header, agg_rows = read_csv(out / "aggregate.csv")
        assert agg_header == ["iter", "mean_best", "stderr_best", "median_best"]
        assert len(agg_rows) == 50
        assert json.loads((out / "config.json").read_text())["seed"] == 7

    def test_qaplib_run_uses_full_dimension(self, tmp_path):
        qap = tmp_path / "q15.dat"
        qap.write_text(bundled_instance_text("qap15.dat"))
        out = tmp_path / "res"
        rc = main([
            "run", "--benchmark", f"qaplib:{qap}", "--algo", "bops-t",
            "--iters", "3", "--init", "5", "--reps", "1", "--seed", "1",
            "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out / "raw.csv")
        assert len(rows) == 8
        for row in rows:
            assert len(row[3].split(",")) == 15

    def test_unknown_algorithm_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--benchmark", "synthetic:d=4", "--algo", "nonsense",
                "--iters", "1", "--out", str(tmp_path / "r"),
            ])
        assert exc.value.code == 2

    def test_unknown_benchmark_exits_2(self, tmp_path):
        rc = main([
            "run", "--benchmark", "bogus:d=4", "--algo", "random",
            "--iters", "1", "--out", str(tmp_path / "r"),
        ])
        assert rc == 2

    def test_missing_instance_file_exits_1(self, tmp_path):
        rc = main([
            "run", "--benchmark", "qaplib:/no/such/file.dat", "--algo", "random",
            "--iters", "1", "--out", str(tmp_path / "r"),
        ])
        assert rc == 1

    @pytest.mark.parametrize("command", [
        ["run", "--benchmark", "synthetic:d=4", "--algo", "random", "--iters", "1"],
        ["nll", "--benchmark", "synthetic:d=4"],
    ])
    def test_zero_reps_is_a_usage_error(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--reps", "0", "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "--reps: must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("option, value", [
        ("--iters", "0"), ("--init", "0"), ("--restarts", "0"), ("--jobs", "0"), ("--jobs", "-3"),
    ])
    def test_bad_count_is_a_usage_error(self, tmp_path, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--benchmark", "synthetic:d=4", "--algo", "random", "--iters", "1",
                f"{option}={value}", "--out", str(tmp_path / "r"),
            ])
        assert exc.value.code == 2
        assert f"{option}: must be >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_interrupt_keeps_finished_replications(self, tmp_path, monkeypatch, capsys):
        # 4 + 4 evaluations per replication: the 11th is inside replication 1.
        calls = 0
        objective = cli.synthetic_objective

        def interrupting(*args):
            nonlocal calls
            calls += 1
            if calls == 11:
                raise KeyboardInterrupt
            return objective(*args)

        monkeypatch.setattr(cli, "synthetic_objective", interrupting)
        out = tmp_path / "res"
        rc = main([
            "run", "--benchmark", "synthetic:d=4", "--algo", "bops-t", "--iters", "4",
            "--init", "4", "--reps", "3", "--jobs", "1", "--out", str(out),
        ])
        assert rc == 130
        err = capsys.readouterr().err.splitlines()
        assert err == [f"interrupted: replications 0 to 0 of 3 are in {out / 'raw.csv'}"]
        assert json.loads((out / "config.json").read_text())["reps"] == 3
        header, rows = read_csv(out / "raw.csv")
        assert header[0] == "rep" and len(rows) == 8
        assert {row[0] for row in rows} == {"0"}
        assert not (out / "aggregate.csv").exists()

    def test_unusable_out_fails_before_any_evaluation(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "synthetic_objective", lambda *args: calls.append(args) or 0.0)
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main([
            "run", "--benchmark", "synthetic:d=4", "--algo", "random", "--iters", "3",
            "--out", str(blocker / "res"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []

    def test_replications_rejects_zero_reps(self):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            replications("synthetic:d=4", "random", 1, 2, 0, 10, 0)

    def test_non_finite_objective_exits_1(self, tmp_path, capsys):
        # Finite entries whose products overflow: the instance loads, and
        # every evaluation returns inf.
        qap = tmp_path / "overflow.dat"
        qap.write_text("3\n" + "1e200 " * 9 + "\n" + "1e200 " * 9)
        with np.errstate(over="ignore"):
            rc = main([
                "run", "--benchmark", f"qaplib:{qap}", "--algo", "bops-t",
                "--iters", "2", "--init", "2", "--reps", "1", "--out", str(tmp_path / "r"),
            ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: objective returned inf at init iteration 0 for permutation ")
        assert err.count("\n") == 1

    def test_replication_survives_nonconvergent_eigh(self):
        # This replication fits a 40x40 Mallows matrix on which numpy's
        # eigh does not converge (OpenBLAS, x86-64). The fit's grid search
        # reduces it to tridiagonal form instead of decomposing it, and
        # the replication must run to the end.
        rows = run_one_rep("synthetic:d=15", "bops-h", 15, 40, 20, 10, 5, 3)
        assert len(rows) == 60

    def test_aggregate_recomputable_from_raw(self, tmp_path):
        out = tmp_path / "res"
        main([
            "run", "--benchmark", "synthetic:d=5", "--algo", "random",
            "--iters", "10", "--init", "5", "--reps", "4", "--seed", "2",
            "--out", str(out),
        ])
        _, raw = read_csv(out / "raw.csv")
        _, agg = read_csv(out / "aggregate.csv")
        best = {}
        for row in raw:
            best.setdefault(int(row[2]), []).append(float(row[5]))
        for row in agg:
            it = int(row[0])
            col = np.array(best[it])
            assert float(row[1]) == pytest.approx(col.mean(), abs=1e-9)
            assert float(row[2]) == pytest.approx(col.std(ddof=1) / math.sqrt(len(col)), abs=1e-9)
            assert float(row[3]) == pytest.approx(np.median(col), abs=1e-9)

    def test_seed_determinism_excluding_seconds(self, tmp_path):
        args = [
            "run", "--benchmark", "synthetic:d=5,noise=0.2", "--algo", "bops-t",
            "--iters", "5", "--init", "5", "--reps", "2", "--seed", "11",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("raw.csv", "aggregate.csv", "config.json"):
            if name == "raw.csv":
                _, rows_a = read_csv(tmp_path / "a" / name)
                _, rows_b = read_csv(tmp_path / "b" / name)
                assert [r[:6] for r in rows_a] == [r[:6] for r in rows_b]
            else:
                assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial, parallel = (
            list(replications("synthetic:d=5", "random", 6, 4, 3, 5, 9, jobs))
            for jobs in (1, 2)
        )
        assert [[r[:6] for r in rows] for rows in serial] == [
            [r[:6] for r in rows] for rows in parallel
        ]
        assert aggregate(serial) == aggregate(parallel)

    def test_pool_has_at_most_one_worker_per_replication(self, monkeypatch):
        # A stand-in pool records the worker count and runs the replications
        # in this process, so no worker is ever started.
        started = []

        class SerialPool:
            def __init__(self, processes, initializer, initargs):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(cli.multiprocessing, "Pool", SerialPool)
        serial = list(replications("synthetic:d=5", "random", 6, 4, 2, 5, 9, 1))
        capped = list(replications("synthetic:d=5", "random", 6, 4, 2, 5, 9, 500))
        assert started == [2]
        assert [[r[:6] for r in rows] for rows in capped] == [[r[:6] for r in rows] for rows in serial]

    def test_ctrl_c_with_jobs_does_not_wait_for_queued_replications(self, tmp_path):
        # Ctrl-C reaches the whole process group. The workers must ignore it
        # and be terminated with the pool, not finish the replications
        # already queued to them. A replication of 2,000 iterations refits
        # its GP on up to 2,020 rows, so however fast the search, the run
        # cannot end before the signal.
        out = tmp_path / "res"
        reps = 4
        proc = subprocess.Popen(
            [sys.executable, "-m", "permbo", "run", "--benchmark", "synthetic:d=8",
             "--algo", "bops-h", "--iters", "2000", "--reps", str(reps), "--jobs", "2",
             "--out", str(out)],
            env=_permbo_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not (out / "config.json").exists():
                assert proc.poll() is None and time.monotonic() < deadline, proc.stderr.read()
                time.sleep(0.05)
            time.sleep(1.0)
            assert proc.poll() is None, proc.stderr.read()
            os.killpg(proc.pid, signal.SIGINT)
            sent = time.monotonic()
            _, err = proc.communicate(timeout=30.0)
            waited = time.monotonic() - sent
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert proc.returncode == 130, err
        assert len(err.splitlines()) == 1 and err.startswith("interrupted: "), err
        assert waited < 2.0
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        _, rows = read_csv(out / "raw.csv")
        assert len({row[0] for row in rows}) < reps

    def test_headers_always_first_line(self, tmp_path):
        out = tmp_path / "res"
        main([
            "run", "--benchmark", "synthetic:d=4", "--algo", "ga",
            "--iters", "4", "--init", "4", "--reps", "1", "--seed", "0",
            "--out", str(out),
        ])
        assert (out / "raw.csv").read_text().splitlines()[0].startswith("rep,")
        assert (out / "aggregate.csv").read_text().splitlines()[0].startswith("iter,")


class TestCmdNll:
    def test_row_count_and_finiteness(self, tmp_path):
        out = tmp_path / "res"
        rc = main([
            "nll", "--benchmark", "gpdraw:d=6,l=0.2,noise=0.1",
            "--train-sizes", "10,15,20", "--reps", "2",
            "--test-sets", "3", "--test-size", "10",
            "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out / "nll.csv")
        assert header == ["kernel", "train_size", "replication", "nll"]
        assert len(rows) == 2 * 3 * 2
        for row in rows:
            assert math.isfinite(float(row[3]))

    @pytest.mark.filterwarnings("error")
    def test_huge_gpdraw_noise_scores_finite(self, tmp_path):
        out = tmp_path / "res"
        rc = main([
            "nll", "--benchmark", "gpdraw:d=4,noise=1e200", "--train-sizes", "20",
            "--reps", "1", "--test-sets", "2", "--test-size", "5", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out / "nll.csv")
        assert len(rows) == 2
        for row in rows:
            assert math.isfinite(float(row[3]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("uri", ["gpdraw:d=4,noise=1e308", "synthetic:d=4,noise=1e308"])
    def test_overflowing_noise_is_one_error_line(self, tmp_path, capsys, uri):
        rc = main([
            "nll", "--benchmark", uri, "--train-sizes", "20", "--reps", "1",
            "--test-sets", "2", "--test-size", "5", "--out", str(tmp_path / "r"),
        ])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err == f"error: benchmark {uri!r} drew a non-finite value (lower its noise option)\n"

    def test_works_on_pointwise_benchmark(self):
        rows = nll_experiment(
            "synthetic:d=5,noise=0.3", train_sizes=[12], reps=2, seed=1,
            n_test_sets=2, test_size=8,
        )
        assert len(rows) == 4
        kernels = {row[0] for row in rows}
        assert kernels == {"kendall", "mallows"}


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("option, value, message", [
        ("--test-sets", "0", "must be >= 1, got 0"),
        ("--test-size", "0", "must be >= 1, got 0"),
        ("--test-size", "-2", "must be >= 1, got -2"),
        ("--train-sizes", "abc", "invalid int value: 'abc'"),
        ("--train-sizes", "20,x", "invalid int value: 'x'"),
        ("--train-sizes", "0", "must be >= 1, got 0"),
        ("--train-sizes", "-3", "must be >= 1, got -3"),
        ("--train-sizes", ",", "need at least one value"),
    ])
    def test_bad_count_is_one_usage_error(self, tmp_path, capsys, option, value, message):
        with pytest.raises(SystemExit) as exc:
            main([
                "nll", "--benchmark", "synthetic:d=4", f"{option}={value}",
                "--out", str(tmp_path / "r"),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "error:" in line] == [
            f"permbo nll: error: argument {option}: {message}"
        ]
        assert not (tmp_path / "r").exists()


_SOUP_NUMBERS = st.integers(-2, 12).map(str) | st.sampled_from(
    ["0", "1", "3", "2.5", "1e200", "-1e308", "inf", "nan"]
)
_SOUP_WORDS = st.sampled_from(["x", ":", "DIMENSION:", "EDGE_WEIGHT_TYPE:", "EUC_2D", "NODE_COORD_SECTION"])


@st.composite
def instance_soup(draw):
    """A QAPLIB or TSPLIB file with n <= 4 and soup values, then up to three
    lines inserted, replaced or deleted. Small n keeps ``--exact`` cheap."""
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        lines = [str(n)] + [
            " ".join(draw(st.lists(_SOUP_NUMBERS, min_size=n, max_size=n))) for _ in range(2 * n)
        ]
    else:
        lines = [f"DIMENSION: {n}", "EDGE_WEIGHT_TYPE: EUC_2D", "NODE_COORD_SECTION"]
        lines += [f"{i + 1} {draw(_SOUP_NUMBERS)} {draw(_SOUP_NUMBERS)}" for i in range(n)] + ["EOF"]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        junk = " ".join(draw(st.lists(_SOUP_NUMBERS | _SOUP_WORDS, max_size=4)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        lines[at:at + (edit != "insert")] = [] if edit == "delete" else [junk]
    return "\n".join(lines)


@given(instance_soup())
@example("DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 -1e308\n2 0 1e308\n3 0 0")
@settings(max_examples=300, deadline=None)
def test_instance_file_fuzz_ends_in_an_exit_code(text):
    # Every instance file, however malformed, must end in exit 0, 1 or 2,
    # with no exception escaping main, at most one error line and no
    # warning. The example's tour length overflows to inf.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.txt"
        path.write_text(text)
        commands = (
            ["solve-qap", str(path)],
            ["solve-qap", str(path), "--exact"],
            ["run", "--benchmark", f"tsplib:{path}", "--algo", "random", "--iters", "1",
             "--init", "1", "--reps", "1", "--out", str(Path(tmp) / "out")],
        )
        for argv in commands:
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
                io.StringIO()
            ), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                rc = main(argv)
            assert rc in (0, 1, 2), (argv, text)
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
            assert len(errors) == (rc != 0), (argv, text, err.getvalue())
            assert not caught, (argv, text, [str(w.message) for w in caught])


class TestCmdSolveQap:
    def test_zero_restarts_is_a_usage_error(self, qap_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve-qap", str(qap_file), "--restarts", "0"])
        assert exc.value.code == 2
        assert "--restarts: must be >= 1, got 0" in capsys.readouterr().err

    def test_hand_instance_value(self, qap_file, capsys):
        rc = main(["solve-qap", str(qap_file), "--seed", "0"])
        assert rc == 0
        perm, value = capsys.readouterr().out.split()
        assert float(value) == 6.0
        assert sorted(perm.split(",")) == ["0", "1"]

    def test_exact_dominates_heuristic(self, qap5_file, capsys):
        main(["solve-qap", str(qap5_file), "--restarts", "2", "--seed", "3"])
        heur = float(capsys.readouterr().out.split()[1])
        main(["solve-qap", str(qap5_file), "--exact"])
        exact = float(capsys.readouterr().out.split()[1])
        assert exact <= heur

    @pytest.mark.parametrize("seed, line", [
        (0, "4,14,8,11,0,2,1,10,13,3,7,6,9,5,12 2228.0"),
        (1, "4,0,2,11,14,9,8,6,1,3,12,7,5,13,10 2222.0"),
    ])
    def test_bundled_qap15_output_is_pinned(self, tmp_path, capsys, seed, line):
        # The best restart, first among equals. Pinned, so that a change to
        # the descent or the restart driver that moves the pick shows here.
        qap = tmp_path / "q15.dat"
        qap.write_text(bundled_instance_text("qap15.dat"))
        assert main(["solve-qap", str(qap), "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_missing_file_exits_1(self):
        assert main(["solve-qap", "/does/not/exist.dat"]) == 1

    def test_exact_rejected_for_large_instances(self, tmp_path):
        qap = tmp_path / "q15.dat"
        qap.write_text(bundled_instance_text("qap15.dat"))
        assert main(["solve-qap", str(qap), "--exact"]) == 2

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("3\n0 1 2 1 0 inf 2 1 0\n0 1 1 1 0 1 1 1 0", "non-finite value while reading matrix A"),
            ("3\n0 1 2 1 0 1 2 1 0\n0 1 1 1 0 nan 1 1 0", "non-finite value while reading matrix B"),
            ("inf\n0 1 1 0\n0 3 3 0", "non-finite value while reading n"),
            ("nan\n0 1 1 0\n0 3 3 0", "non-finite value while reading n"),
        ],
    )
    def test_non_finite_instance_exits_1(self, tmp_path, capsys, text, message, exact):
        qap = tmp_path / "bad.dat"
        qap.write_text(text)
        rc = main(["solve-qap", str(qap)] + (["--exact"] if exact else []))
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_exact_without_finite_value_exits_1(self, tmp_path, capsys):
        qap = tmp_path / "overflow.dat"
        qap.write_text("3\n" + "1e200 " * 9 + "\n" + "1e200 " * 9)
        with np.errstate(over="ignore"):
            rc = main(["solve-qap", str(qap), "--exact"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err == "error: objective is inf or nan on every permutation of size 3\n"

    def test_overflowing_cost_gives_one_error_line(self, tmp_path):
        # Every entry 1e200: the instance loads, and every cost overflows to
        # inf. Each command must report that in one line, with no numpy
        # RuntimeWarning on stderr, and exit 1. A fresh interpreter shows
        # the warnings exactly as a user sees them.
        qap = tmp_path / "overflow.dat"
        qap.write_text("3\n" + "1e200 " * 9 + "\n" + "1e200 " * 9)
        commands = {
            "solve-qap": ["solve-qap", str(qap)],
            "solve-qap --exact": ["solve-qap", str(qap), "--exact"],
            "run": ["run", "--benchmark", f"qaplib:{qap}", "--algo", "bops-t",
                    "--iters", "2", "--init", "2", "--reps", "1",
                    "--out", str(tmp_path / "r")],
        }
        for name, argv in commands.items():
            out = _python_m_permbo(*argv)
            assert out.returncode == 1, (name, out.stdout, out.stderr)
            assert out.stdout == "", name
            assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, (
                name, out.stderr)
            assert "inf" in out.stderr, (name, out.stderr)

    def test_python_dash_m(self, qap_file):
        # The route that works without the install: python -m permbo.
        ok = _python_m_permbo("solve-qap", str(qap_file))
        assert ok.returncode == 0, ok.stderr
        perm, value = ok.stdout.split()
        assert float(value) == 6.0
        assert sorted(perm.split(",")) == ["0", "1"]
        missing = _python_m_permbo("solve-qap", str(qap_file) + ".missing")
        assert missing.returncode == 1
        assert missing.stderr.startswith("error: ") and missing.stderr.count("\n") == 1


def _fresh_python(code, env=None):
    """Output of ``python -c code`` in a fresh interpreter that imports the permbo under test."""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env or _permbo_env(), capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestProcessStart:
    def test_cli_import_leaves_scipy_special_out(self):
        # Only EI needs scipy.special; bops-t, random, GA, nll and solve-qap
        # processes must not pay for importing it.
        code = "import sys, permbo.cli; print('scipy.special' in sys.modules)"
        assert _fresh_python(code) == "False\n"

    @pytest.mark.parametrize("given, want", [(None, "1"), ("2", "2")])
    def test_one_blas_thread_unless_the_user_chose(self, given, want):
        env = _permbo_env()
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(name, None)
            if given is not None:
                env[name] = given
        code = "import os, permbo; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
        assert _fresh_python(code, env).split() == [want, want]
