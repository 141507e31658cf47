"""Per-layer tracing for the benchmark's traced run, from outside the program.

`Tracer.install` replaces each traced name in the module that looks it up
(and the `Simulation` methods on the class) with a timing wrapper;
`Tracer.uninstall` puts the originals back.  Coarse calls record a span
(id, name, start, end, parent id, cell id) kept in memory; hot
per-recommendation calls only add to counters.  Every wrapper charges its
duration to the enclosing wrapper, so self time = duration minus the time
of the wrapped calls made inside it.

The wrappers only time and count: they consume no randomness and pass every
argument and result through unchanged, which `run.py` checks by comparing
CSV digests of traced and untraced runs.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from blockedbandits import baselines, cli, completion, env, harness, item_phased, phased

# name -> unit.  Which way is better is in BENCHMARK.json; where each metric
# should show up end to end is recorded in perfbench/README.md.
PER_LAYER = {
    "env.recommend_calls": "count",
    "env.recommend_us": "us",
    "env.unblocked_in_calls": "count",
    "env.unblocked_in_us": "us",
    "env.choice_matrix_s": "s",
    "env.generate_instance_s": "s",
    "completion.estimate_calls": "count",
    "completion.estimate_s": "s",
    "completion.solve_block_calls": "count",
    "completion.solve_block_ms": "ms",
    "completion.solve_block_ms_tail": "ms",
    "completion.solve_block_ms_tail_pct": "%",
    "completion.iters": "count",
    "completion.iters_per_block": "count",
    "completion.nonconverged_blocks": "count",
    "completion.svd_calls": "count",
    "completion.svd_s": "s",
    "completion.svd_share": "ratio",
    "completion.obs_density": "ratio",
    "completion.objective_sum": "objective",
    "phased.run_s": "s",
    "phased.self_s": "s",
    "phased.similarity_components_calls": "count",
    "phased.similarity_components_s": "s",
    "phased.explore_share": "ratio",
    "phased.fill_share": "ratio",
    "item_phased.run_s": "s",
    "baselines.run_practical_s": "s",
    "baselines.run_etc_s": "s",
    "baselines.run_collab_greedy_s": "s",
    "baselines.run_random_s": "s",
    "baselines.run_oracle_s": "s",
    "baselines.kmeans_calls": "count",
    "baselines.kmeans_s": "s",
    "baselines.pick_k_elbow_s": "s",
    "baselines.self_s": "s",
    "harness.cells": "count",
    "harness.sweep_s": "s",
    "harness.run_algorithm_s": "s",
    "harness.cell_s": "s",
    "harness.cell_s_tail": "s",
    "harness.cell_s_tail_pct": "%",
    "harness.cell_s_max": "s",
    "harness.build_trace_s": "s",
    "harness.write_csv_s": "s",
    "harness.summary_json_s": "s",
    "harness.sweep_overhead_s": "s",
    "cli.main_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}

_POLICIES = ("practical", "etc", "collab_greedy", "random", "oracle")
_TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(durations: list[float]) -> tuple[float, float, float]:
    """(median, tail value, tail percentile) of per-call durations.

    The tail is the highest percentile of `_TAIL_PCTS` with at least ten
    samples beyond it; with too few samples it falls back to the median.
    """
    if not durations:
        return 0.0, 0.0, 50.0
    arr = np.asarray(durations)
    median = float(np.median(arr))
    for pct in _TAIL_PCTS:
        value = float(np.percentile(arr, pct))
        if int((arr > value).sum()) >= 10:
            return median, value, pct
    return median, median, 50.0


@dataclass
class _Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: list[float] = field(default_factory=list)  # spans only


@dataclass
class CellCheck:
    """What the traced run saw of one cell's finished `Simulation`."""

    algorithm: str
    within_budget: bool
    all_rounds: bool
    purposes: Counter


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.spans: list[tuple] = []  # (id, name, start, end, parent, cell)
        self.cells: dict[int, CellCheck] = {}
        self.solves: list[tuple[int, bool, int, int, float]] = []
        self._stack: list[list] = [[0.0, None]]  # [child time, span id]
        self._span_ids = 0
        self._cell: int | None = None
        self._next_cell = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn, span: bool = True, before=None, after=None):
        stat = self.stats[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            frame = [0.0, None]
            cell = self._cell
            if span:
                self._span_ids += 1
                frame[1] = self._span_ids
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[0]
                if span:
                    stat.durations.append(duration)
                    self.spans.append((frame[1], name, start, end,
                                       stack[-1][1], cell))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, **kw) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._patch(cli, "sweep", "harness.sweep")
        self._patch(cli, "write_csv", "harness.write_csv")
        self._patch(cli, "summary_json", "harness.summary_json")
        self._patch(harness, "generate_instance", "env.generate_instance",
                    before=self._begin_cell)
        self._patch(harness, "run_algorithm", "harness.run_algorithm",
                    after=self._end_cell)
        self._patch(harness, "build_trace", "harness.build_trace")
        for module in (baselines, phased, item_phased):
            self._patch(module, "estimate", "completion.estimate")
        self._patch(completion, "solve_block", "completion.solve_block",
                    after=self._record_solve)
        self._patch(np.linalg, "svd", "completion.svd", span=False)
        self._patch(phased, "run_phased", "phased.run")
        self._patch(item_phased, "run_item_phased", "item_phased.run")
        for module in (phased, item_phased):
            self._patch(module, "similarity_components",
                        "phased.similarity_components")
        for policy in _POLICIES:
            self._patch(baselines, f"run_{policy}", f"baselines.run_{policy}")
        self._patch(baselines, "kmeans", "baselines.kmeans")
        self._patch(baselines, "pick_k_elbow", "baselines.pick_k_elbow")
        for method in ("recommend", "unblocked_in", "any_unblocked",
                       "reuse_observation", "mark_consumed"):
            self._patch(env.Simulation, method, f"env.{method}", span=False)
        self._patch(env.Simulation, "choice_matrix", "env.choice_matrix")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- hooks ---------------------------------------------------------------

    def _begin_cell(self) -> None:
        # one worker: cells start in sweep order, each with generate_instance
        self._cell = self._next_cell
        self._next_cell += 1

    def _end_cell(self, result, inst, name, seed, params=None) -> None:
        _, sim = result
        self.cells[self._cell] = CellCheck(
            algorithm=name,
            within_budget=sim.ledger.max_pair_count() <= inst.budget,
            all_rounds=bool((sim.rounds_done == inst.horizon).all()),
            purposes=Counter(ev.purpose for ev in sim.events)
            if name == "phased" else Counter())
        self._cell = None

    def _record_solve(self, result, prob, cfg=None) -> None:
        self.solves.append((len(result.objectives) - 1, result.converged,
                            len(prob.omega), prob.n_rows * prob.n_cols,
                            result.objectives[-1]))

    # -- results -------------------------------------------------------------

    def span_rows(self) -> list[dict]:
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                 "cell": c} for i, n, s, e, p, c in self.spans]

    def metrics(self, untraced_main_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced command; see PER_LAYER for units."""
        st = self.stats
        out: dict[str, float] = {}

        def per_call_us(name: str) -> float:
            s = st[name]
            return 1e6 * s.total / s.calls if s.calls else 0.0

        out["env.recommend_calls"] = st["env.recommend"].calls
        out["env.recommend_us"] = per_call_us("env.recommend")
        out["env.unblocked_in_calls"] = st["env.unblocked_in"].calls
        out["env.unblocked_in_us"] = per_call_us("env.unblocked_in")
        out["env.choice_matrix_s"] = st["env.choice_matrix"].total
        out["env.generate_instance_s"] = st["env.generate_instance"].total

        solve = st["completion.solve_block"]
        iters = sum(s[0] for s in self.solves)
        observed = sum(s[2] for s in self.solves)
        entries = sum(s[3] for s in self.solves)
        median, tail_value, tail_pct = tail(solve.durations)
        out["completion.estimate_calls"] = st["completion.estimate"].calls
        out["completion.estimate_s"] = st["completion.estimate"].total
        out["completion.solve_block_calls"] = solve.calls
        out["completion.solve_block_ms"] = 1e3 * median
        out["completion.solve_block_ms_tail"] = 1e3 * tail_value
        out["completion.solve_block_ms_tail_pct"] = tail_pct
        out["completion.iters"] = iters
        out["completion.iters_per_block"] = iters / solve.calls if solve.calls else 0.0
        out["completion.nonconverged_blocks"] = sum(not s[1] for s in self.solves)
        out["completion.svd_calls"] = st["completion.svd"].calls
        out["completion.svd_s"] = st["completion.svd"].total
        out["completion.svd_share"] = (st["completion.svd"].total / solve.total
                                       if solve.total else 0.0)
        out["completion.obs_density"] = observed / entries if entries else 0.0
        out["completion.objective_sum"] = float(sum(s[4] for s in self.solves))

        purposes = Counter()
        for check in self.cells.values():
            if check.algorithm == "phased":
                purposes.update(check.purposes)
        n_events = sum(purposes.values())
        out["phased.run_s"] = st["phased.run"].total
        out["phased.self_s"] = st["phased.run"].self_time
        out["phased.similarity_components_calls"] = st["phased.similarity_components"].calls
        out["phased.similarity_components_s"] = st["phased.similarity_components"].total
        out["phased.explore_share"] = purposes["explore"] / n_events if n_events else 0.0
        out["phased.fill_share"] = purposes["fill"] / n_events if n_events else 0.0
        out["item_phased.run_s"] = st["item_phased.run"].total

        for policy in _POLICIES:
            out[f"baselines.run_{policy}_s"] = st[f"baselines.run_{policy}"].total
        out["baselines.kmeans_calls"] = st["baselines.kmeans"].calls
        out["baselines.kmeans_s"] = st["baselines.kmeans"].total
        out["baselines.pick_k_elbow_s"] = st["baselines.pick_k_elbow"].self_time
        out["baselines.self_s"] = sum(st[f"baselines.run_{p}"].self_time
                                      for p in _POLICIES)

        starts: dict[int, float] = {}
        ends: dict[int, float] = {}
        for _, _, start, end, _, cell in self.spans:
            if cell is not None:
                starts[cell] = min(start, starts.get(cell, start))
                ends[cell] = max(end, ends.get(cell, end))
        cell_times = [ends[c] - starts[c] for c in starts]
        median, tail_value, tail_pct = tail(cell_times)
        sweep_s = st["harness.sweep"].total
        out["harness.cells"] = len(cell_times)
        out["harness.sweep_s"] = sweep_s
        out["harness.run_algorithm_s"] = st["harness.run_algorithm"].self_time
        out["harness.cell_s"] = median
        out["harness.cell_s_tail"] = tail_value
        out["harness.cell_s_tail_pct"] = tail_pct
        out["harness.cell_s_max"] = max(cell_times, default=0.0)
        out["harness.build_trace_s"] = st["harness.build_trace"].self_time
        out["harness.write_csv_s"] = st["harness.write_csv"].total
        out["harness.summary_json_s"] = st["harness.summary_json"].total
        out["harness.sweep_overhead_s"] = sweep_s - sum(cell_times)

        main_s = st["cli.main"].total
        out["cli.main_s"] = main_s
        out["cli.overhead_s"] = main_s - sweep_s
        out["trace.overhead_s"] = main_s - untraced_main_s
        return {k: float(v) for k, v in out.items()}


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(run[name] for run in runs)
            for name in PER_LAYER}
