"""In-memory spans around permbo's public functions, and the per-layer split.

The traced child replaces selected module attributes of permbo with thin
wrappers that open a span before the call and close it after. Nothing in
``src/`` is edited: the engine and the optimizers look these names up as
module globals at call time, so rebinding the attribute is enough.

A span is a list ``[name, start, end, parent, rep, it, size]``. ``parent``
is the index of the enclosing span (-1 for none), ``(rep, it)`` says
which replication and which evaluation the span worked towards, and
``size`` is the amount of work the call did (rows, pair comparisons...).
Every evaluation gets a root span named ``engine.iteration`` that starts
when the previous evaluation returned and ends when its own returns, so
all the work the engine did to choose that point lies inside it.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from math import comb

ITERATION = "engine.iteration"
OBJECTIVE = "benchmarks.objective"

NAME, START, END, PARENT, REP, IT, SIZE = range(7)


class Tracer:
    """Span recorder for one process; one replication at a time."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rep = -1
        self.it = 0
        self.deflected = 0
        self.picks = 0
        self._best_pick: bytes | None = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.rep, self.it, 0])
        self._stack.append(sid)
        self.spans[sid][START] = time.perf_counter()
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        top = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {self.spans[sid][NAME]} closed out of order")

    def begin_rep(self, rep: int) -> None:
        self.rep, self.it = rep, 0
        self._best_pick = None
        self.open(ITERATION)

    def end_rep(self) -> None:
        # Drop the root opened after the last evaluation, which no point
        # follows, with everything opened since (a failed replication
        # leaves its unfinished iteration there).
        del self.spans[self._stack[0]:]
        self._stack.clear()

    def note_candidates(self, candidates) -> int:
        """Remember the acquisition's best pick; returns the distinct candidates."""
        best = min(candidates, key=lambda r: r[1])[0]
        self._best_pick = best.values.tobytes()
        return len({p.values.tobytes() for p, _ in candidates})

    def evaluated(self, perm) -> None:
        """Close this evaluation's root span and open the next one."""
        if self._best_pick is not None:
            self.picks += 1
            self.deflected += perm.values.tobytes() != self._best_pick
            self._best_pick = None
        self.close(self._stack[0])
        self.it += 1
        self.open(ITERATION)

    def dump(self, path) -> None:
        """Write the spans as gzip'd JSON lines, one span per line."""
        keys = ("name", "start", "end", "parent", "rep", "iter", "size")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                row = dict(zip(keys, span))
                row["workload"] = self.workload
                fh.write(json.dumps(row) + "\n")


def _wrap(tracer: Tracer, module, attr: str, name: str, size=None, after=None) -> None:
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if size is not None:
            tracer.spans[sid][SIZE] = size(args, out)
        if after is not None:
            after(args, out)
        return out

    setattr(module, attr, traced)


def _pairs(rows) -> int:
    return comb(rows.shape[1], 2)


def install(tracer: Tracer) -> None:
    """Wrap every name the BO loop reaches its layers through (see module doc)."""
    import permbo.accel as accel
    import permbo.acquisition as acquisition
    import permbo.cli as cli
    import permbo.engine as engine
    import permbo.gp as gp
    import permbo.optimizers as optimizers

    for attr in ("fit", "weight_posterior", "sample_weights", "build_qap"):
        size = (lambda a, out: len(a[1])) if attr == "fit" else None
        _wrap(tracer, engine, attr, f"engine.{attr}", size)
    _wrap(tracer, engine, "expected_improvement_batch", "engine.expected_improvement_batch",
          lambda a, out: len(a[1]))
    for attr in ("solve_ts_qap_candidates", "multi_restart_candidates"):
        _wrap(tracer, engine, attr, f"engine.{attr}",
              lambda a, out: tracer.note_candidates(out))
    _wrap(tracer, acquisition, "predict_batch", "acquisition.predict_batch",
          lambda a, out: len(a[1]))
    _wrap(tracer, accel, "discordance_matrix", "accel.discordance_matrix",
          lambda a, out: a[0].shape[0] ** 2 * _pairs(a[0]))
    _wrap(tracer, accel, "cross_discordance_matrix", "accel.cross_discordance_matrix",
          lambda a, out: a[0].shape[0] * a[1].shape[0] * _pairs(a[0]))
    _wrap(tracer, accel, "ts_trace_batch", "accel.ts_trace_batch",
          lambda a, out: a[1].shape[0])
    _wrap(tracer, optimizers, "local_search", "optimizers.local_search",
          lambda a, out: a[2])  # the step cap
    _wrap(tracer, optimizers, "swap_neighbor_matrix", "perm.swap_neighbor_matrix")
    _wrap(tracer, gp, "base_kernel_from_nd", "gp.base_kernel_from_nd")
    for attr in ("qap_objective", "synthetic_objective"):
        _wrap(tracer, cli, attr, OBJECTIVE, after=lambda a, out: tracer.evaluated(a[1]))


# --- analysis ------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans: list[list], n_init: int, d: int) -> dict[str, float]:
    """Per-layer split of BO iteration time, with the operation counts.

    Only spans inside BO iterations (evaluation index >= ``n_init``)
    count; times are means per BO iteration in ms, shares are of total BO
    iteration time, and counts are totals over the traced replications.
    Nested layers are inclusive: ``acquisition.ei_batch`` contains
    ``gp.predict_batch``, which contains ``accel.cross_discordance``.
    """
    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[NAME] == ITERATION and s[IT] >= n_init]
    in_bo = set(roots)
    root_of: list[int] = []
    for span in spans:
        p = span[PARENT]
        root_of.append(-1 if p < 0 else (p if spans[p][PARENT] < 0 else root_of[p]))
    iters = len(roots)
    total = sum(spans[i][END] - spans[i][START] for i in roots)

    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    for sid, span in enumerate(spans):
        if root_of[sid] not in in_bo:
            continue
        name = span[NAME]
        busy[name] = busy.get(name, 0.0) + span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + span[SIZE]

    # Steps and cap hits of each local search, from its neighbour scans.
    scans: dict[int, int] = {}
    for sid, span in enumerate(spans):
        p = span[PARENT]
        if span[NAME] == "perm.swap_neighbor_matrix" and p >= 0 and root_of[sid] in in_bo:
            scans[p] = scans.get(p, 0) + 1
    restarts = steps = capped = 0
    for sid, span in enumerate(spans):
        if span[NAME] == "optimizers.local_search" and root_of[sid] in in_bo:
            n_scans = scans.get(sid, 0)
            hit_cap = n_scans >= span[SIZE]
            restarts += 1
            capped += hit_cap
            steps += n_scans if hit_cap else max(n_scans - 1, 0)

    search = ("engine.solve_ts_qap_candidates", "engine.multi_restart_candidates")
    distinct = sum(work.get(n, 0) for n in search)
    fits = calls.get("engine.fit", 0)
    kernel_builds_in_fit = sum(
        1
        for sid, span in enumerate(spans)
        if span[NAME] == "gp.base_kernel_from_nd"
        and root_of[sid] in in_bo
        and spans[span[PARENT]][NAME] == "engine.fit"
    )
    fit_sizes = [s[SIZE] for s in spans if s[NAME] == "engine.fit"]

    def ms(name: str) -> float:
        return 1e3 * busy.get(name, 0.0) / iters if iters else 0.0

    def share(*names: str) -> float:
        return sum(busy.get(n, 0.0) for n in names) / total if total > 0 else 0.0

    return {
        "gp.fit.ms_per_iter": ms("engine.fit"),
        "gp.fit.share": share("engine.fit"),
        "gp.fit.kernel_builds": kernel_builds_in_fit / fits if fits else 0.0,
        "gp.fit.n_max": max(fit_sizes, default=0),
        "gp.weight_posterior.ms_per_iter": ms("engine.weight_posterior"),
        "gp.weight_posterior.share": share("engine.weight_posterior"),
        "gp.predict_batch.rows": work.get("acquisition.predict_batch", 0),
        "gp.predict_batch.ms_per_iter": ms("acquisition.predict_batch"),
        "acquisition.ei_batch.rows": work.get("engine.expected_improvement_batch", 0),
        "acquisition.ei_batch.ms_per_iter": ms("engine.expected_improvement_batch"),
        "acquisition.ei_batch.share": share("engine.expected_improvement_batch"),
        "acquisition.build_qap.ms_per_iter": ms("engine.build_qap"),
        "optimizers.search.ms_per_iter": sum(ms(n) for n in search),
        "optimizers.search.share": share(*search),
        "optimizers.local_search.restarts": restarts,
        "optimizers.local_search.steps": steps,
        "optimizers.local_search.capped_frac": capped / restarts if restarts else 0.0,
        "optimizers.restart_unique_frac": distinct / restarts if restarts else 0.0,
        "accel.ts_trace_batch.rows": work.get("accel.ts_trace_batch", 0),
        "accel.ts_trace_batch.pair_ops": work.get("accel.ts_trace_batch", 0) * comb(d, 2),
        "accel.ts_trace_batch.ms": ms("accel.ts_trace_batch"),
        "accel.cross_discordance.pair_ops": work.get("accel.cross_discordance_matrix", 0),
        "accel.cross_discordance.ms": ms("accel.cross_discordance_matrix"),
        "accel.discordance_matrix.pair_ops": work.get("accel.discordance_matrix", 0),
        "accel.discordance_matrix.ms": ms("accel.discordance_matrix"),
        "perm.swap_neighbor_matrix.calls": calls.get("perm.swap_neighbor_matrix", 0),
        "perm.swap_neighbor_matrix.ms": ms("perm.swap_neighbor_matrix"),
        "benchmarks.objective.calls": sum(s[NAME] == OBJECTIVE for s in spans),
        "benchmarks.objective.ms": ms(OBJECTIVE),
        "benchmarks.objective.share": share(OBJECTIVE),
        "engine.iter_self_ms": 1e3 * sum(selfs[i] for i in roots) / iters if iters else 0.0,
        "trace.bo_iters": iters,
    }
