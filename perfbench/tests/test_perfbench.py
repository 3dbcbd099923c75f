"""Tests of the benchmark itself: metric names, the checker and the span arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import dataclasses

import pytest

import check
import run
import tracing


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_with_its_unit(name, trace):
    tiny = dataclasses.replace(run.WORKLOADS[name], n_init=3, n_iters=4, reps=1)
    out = run.run_workload(tiny, seed=5, trace=trace)
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert out["correct"], out["record"]["errors"]
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert {k: m["unit"] for k, m in out["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
    if trace:
        assert out["metrics"]["trace.bo_iters"]["value"] == 4
        assert out["metrics"]["benchmarks.objective.calls"]["value"] == 7
        assert out["record"]["fingerprint"] == out["record"]["traced_fingerprint"]


# --- checker ---------------------------------------------------------------------

TARGET = [2, 0, 3, 1]
PERMS = ["0,1,2,3", "2,0,3,1", "3,2,1,0", "2,0,1,3", "1,0,3,2"]


def _rows(n_init=2):
    objective = check.discordance_objective(TARGET)
    rows, best = [], float("inf")
    for k, text in enumerate(PERMS):
        value = objective([int(t) for t in text.split(",")])
        best = min(best, value)
        phase = "init" if k < n_init else "bo"
        rows.append([0, phase, k, text, repr(value), repr(best), "0.001"])
    return rows


def _check(rows):
    return check.check_rep(rows, 2, 3, 4, check.discordance_objective(TARGET))


def test_checker_accepts_a_correct_trace():
    assert _check(_rows()) == []


def test_checker_rejects_non_monotone_best():
    rows = _rows()
    rows[3][5] = repr(float(rows[3][4]) + 1.0)
    assert any("running minimum" in e for e in _check(rows))


def test_checker_rejects_a_wrong_value():
    rows = _rows()
    rows[4][4] = "5.0"
    assert any("objective gives" in e for e in _check(rows))


def test_checker_rejects_an_invalid_permutation():
    rows = _rows()
    rows[2][3] = "3,2,1,1"
    assert any("not a bijection" in e for e in _check(rows))


def test_checker_rejects_a_missing_record():
    assert any("expected 5" in e for e in _check(_rows()[:-1]))


def test_qap_objective_matches_a_hand_computed_cost(tmp_path):
    path = tmp_path / "tiny.dat"
    path.write_text("2\n\n0 3\n5 0\n\n0 7\n11 0\n")
    objective = check.qap_objective_from_file(path)
    assert objective([0, 1]) == 3 * 7 + 5 * 11
    assert objective([1, 0]) == 3 * 11 + 5 * 7


def test_fingerprint_ignores_timing_only():
    rows = _rows()
    slower = [row[:6] + ["9.5"] for row in rows]
    assert check.fingerprint([rows]) == check.fingerprint([slower])
    rows[1][3] = "0,2,3,1"
    assert check.fingerprint([rows]) != check.fingerprint([slower])


# --- span arithmetic ----------------------------------------------------------------


def _span(name, start, end, parent, it=0, size=0):
    return [name, start, end, parent, 0, it, size]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a: covered time is counted once
        _span("a.child", 2.0, 3.0, 1),
        _span("late", 9.0, 12.0, 0),  # clipped at the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_split_counts_only_bo_iterations():
    # One init evaluation (it 0) and two BO iterations (it 1, 2) of 10 s each.
    fit, obj, scan = "engine.fit", tracing.OBJECTIVE, "perm.swap_neighbor_matrix"
    spans = [
        _span(tracing.ITERATION, 0.0, 1.0, -1, it=0),
        _span(obj, 0.5, 1.0, 0, it=0),
        _span(tracing.ITERATION, 1.0, 11.0, -1, it=1),
        _span(fit, 1.0, 5.0, 2, it=1, size=21),
        _span("gp.base_kernel_from_nd", 1.0, 2.0, 3, it=1),
        _span("engine.multi_restart_candidates", 5.0, 10.0, 2, it=1, size=1),
        _span("optimizers.local_search", 5.0, 10.0, 5, it=1, size=2),  # cap of 2 scans
        _span(scan, 5.0, 6.0, 6, it=1),
        _span(scan, 6.0, 7.0, 6, it=1),
        _span(obj, 10.0, 11.0, 2, it=1),
        _span(tracing.ITERATION, 11.0, 21.0, -1, it=2),
        _span(fit, 11.0, 17.0, 10, it=2, size=22),
        _span(obj, 20.0, 21.0, 10, it=2),
    ]
    m = tracing.layer_metrics(spans, n_init=1, d=4)
    assert m["trace.bo_iters"] == 2
    assert m["gp.fit.ms_per_iter"] == pytest.approx(1e3 * (4.0 + 6.0) / 2)
    assert m["gp.fit.share"] == pytest.approx(10.0 / 20.0)
    assert m["gp.fit.kernel_builds"] == pytest.approx(0.5)
    assert m["gp.fit.n_max"] == 22
    assert m["optimizers.search.share"] == pytest.approx(5.0 / 20.0)
    assert m["optimizers.local_search.restarts"] == 1
    assert m["optimizers.local_search.capped_frac"] == 1.0
    assert m["optimizers.local_search.steps"] == 2
    assert m["optimizers.restart_unique_frac"] == 1.0
    assert m["benchmarks.objective.calls"] == 3
    assert m["benchmarks.objective.share"] == pytest.approx(2.0 / 20.0)
    # Iteration 1: 10 s minus fit, search and objective (4 + 5 + 1); iteration 2: 10 - 7.
    assert m["engine.iter_self_ms"] == pytest.approx(1e3 * (0.0 + 3.0) / 2)
