"""Seeded BO traces pinned in Tier-1.

Five short replications through ``cli.run_one_rep`` (seed 0, replication 0,
10 restarts) cover bops-t, bops-h at a small and a large d, random search
and the GA. The sha256 of each run's (rep, phase, iter, perm, value, best)
rows is pinned in ``RUNS``; the rows themselves are kept in
``data/pinned_traces.txt`` so that a failure names the first row that
differs. A change that moves a pick on purpose updates both, and its
change note lists the old and new digests.

Pinned with numpy 2.4.6 (OpenBLAS 0.3.31) and scipy 1.17.1 (OpenBLAS
0.3.30 for LAPACK) on x86-64 with one BLAS thread, which ``conftest.py``
sets. Another BLAS build may round differently and move a pick.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import pytest

from permbo.benchmarks import bundled_instance_text
from permbo.cli import run_one_rep

PINNED = Path(__file__).parent / "data" / "pinned_traces.txt"
SEED, REP, RESTARTS = 0, 0, 10


@dataclass(frozen=True)
class Run:
    name: str
    algo: str
    uri: str
    d: int
    n_init: int
    n_iters: int
    sha256: str


RUNS = (
    Run("bops-t-qap15", "bops-t", "qap15", 15, 20, 30,
        "6c3ae38aca96aa7c67727dc1c9ae086c3071f603aa7cea78a94aad7b356043bd"),
    Run("bops-h-d6", "bops-h", "synthetic:d=6", 6, 20, 60,
        "28c33716194404170274a4afe4b0b9ca93cfdf2dbbeb6c1670f2f2499df03b6e"),
    Run("bops-h-d15", "bops-h", "synthetic:d=15", 15, 20, 20,
        "85aa6852c050ae123d616f544d3668d2052f9f864a277db79b5d8da0cf34fe45"),
    Run("random-d8", "random", "synthetic:d=8", 8, 20, 30,
        "9c4e4fb440fe2bad9e9560519a3d8872c38fc25d23d0b554c3005833d97d6c1f"),
    Run("ga-d8", "ga", "synthetic:d=8", 8, 20, 30,
        "363acf579e046b191d89aaa55eab7ddb13e753abd262ebbf32f7886ce945a8fa"),
)


def trace_lines(run: Run, tmp_path: Path) -> list[str]:
    """One line per record: rep, phase, iter, perm, value and best, space-separated."""
    uri = run.uri
    if uri == "qap15":
        path = tmp_path / "qap15.dat"
        path.write_text(bundled_instance_text("qap15.dat"))
        uri = f"qaplib:{path}"
    rows = run_one_rep(uri, run.algo, run.d, run.n_iters, run.n_init, RESTARTS, SEED, REP)
    return [" ".join(str(v) for v in row[:6]) for row in rows]


def digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def pinned_lines(name: str) -> list[str]:
    prefix = name + " "
    return [
        line[len(prefix):] for line in PINNED.read_text().splitlines() if line.startswith(prefix)
    ]


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run.name)
def test_seeded_trace_is_pinned(run, tmp_path):
    pinned = pinned_lines(run.name)
    assert digest(pinned) == run.sha256, f"{PINNED.name} does not hold the pinned {run.name} rows"
    got = trace_lines(run, tmp_path)
    if digest(got) == run.sha256:
        return
    for i, (want, have) in enumerate(zip(pinned, got)):
        if want != have:
            pytest.fail(f"{run.name}: row {i} differs\npinned: {want}\n   got: {have}")
    pytest.fail(f"{run.name}: {len(got)} rows where {len(pinned)} are pinned")
