"""The benchmark's workloads, each a few sweep grids generated from a seed.

Every workload is a batch job: one process, every cell known up front.  A
grid is one `sweep` config; the workload seed picks a disjoint block of run
seeds in each grid, so the same seed always gives the same cells and
different seeds give different inputs.  The timed run splits each grid into
parts, one CLI command each (one per run seed, or one per cell), so each
command is short and can be repeated many times.
Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


def config_cells(config: dict) -> list[tuple[str, str, int]]:
    """(dataset label, algorithm label, seed) of a sweep config, in the
    sweep's own order."""
    return [(d["label"], a["label"], s) for d in config["datasets"]
            for a in config["algorithms"] for s in config["seeds"]]


@dataclass(frozen=True)
class Grid:
    name: str
    threads: int  # untraced sweep workers, at most 2; the traced run uses 1
    datasets: tuple[dict, ...]  # sweep dataset entries, each with a "label"
    algorithms: tuple[dict, ...]  # sweep algorithm entries, each with a "label"
    n_seeds: int
    split: str  # "seed" or "cell": what one command of the timed run covers

    def seeds(self, seed: int) -> list[int]:
        return [seed * self.n_seeds + i for i in range(self.n_seeds)]

    def config(self, seed: int) -> dict:
        return {"datasets": [dict(d) for d in self.datasets],
                "algorithms": [dict(a) for a in self.algorithms],
                "seeds": self.seeds(seed)}

    def parts(self, seed: int) -> list[dict]:
        """The grid as the configs of the timed run's commands."""
        config = self.config(seed)
        if self.split == "seed":
            return [dict(config, seeds=[s]) for s in config["seeds"]]
        return [{"datasets": [d], "algorithms": [a], "seeds": [s]}
                for d in config["datasets"] for a in config["algorithms"]
                for s in config["seeds"]]


@dataclass(frozen=True)
class Workload:
    name: str
    grids: tuple[Grid, ...]  # dataset labels are unique across the grids

    def cells(self, seed: int) -> list[tuple[str, str, int]]:
        """Every cell, grid after grid, each in its sweep's order."""
        return [cell for grid in self.grids
                for cell in config_cells(grid.config(seed))]

    def parts(self, seed: int) -> list[tuple[str, dict, int]]:
        """(grid name, config, sweep workers) of each command of the timed run."""
        return [(grid.name, part, grid.threads) for grid in self.grids
                for part in grid.parts(seed)]

    def horizon(self, dataset_label: str) -> int:
        return next(d["horizon"] for grid in self.grids for d in grid.datasets
                    if d["label"] == dataset_label)


def paperfig_d1(scale: float, n_seeds: int) -> Grid:
    """The cells of `blockedbandits paperfig d1 <scale>`, with chosen seeds.

    `paperfig` always runs seeds 0..n-1; this sweep config reproduces its
    grid exactly (the self-test compares CSV bytes) but takes its seeds from
    the workload seed.
    """
    size = max(2, round(150 * scale))
    horizon = max(2, round(60 * scale))
    dataset = {"label": "d1", "name": "d1", "users": size, "items": size,
               "clusters": 4, "horizon": horizon, "budget": 1}
    algorithms = (
        {"label": "practical", "name": "practical"},
        {"label": "etc-m10", "name": "etc", "params": {"m_target": 10.0 * scale}},
        {"label": "etc-m30", "name": "etc", "params": {"m_target": 30.0 * scale}},
        {"label": "random", "name": "random"},
        {"label": "oracle", "name": "oracle"},
    )
    return Grid("paperfig-d1", 1, (dataset,), algorithms, n_seeds, "cell")


def sweep_grid(size: int, horizon: int, n_seeds: int) -> Grid:
    datasets = tuple({"label": name, "name": name, "users": size,
                      "items": size, "clusters": 4, "horizon": horizon,
                      "budget": 1} for name in ("d2", "d3"))
    algorithms = (
        {"label": "practical", "name": "practical"},
        {"label": "etc-m10", "name": "etc", "params": {"m_target": 10.0}},
        {"label": "phased", "name": "phased"},
        {"label": "item-phased", "name": "item-phased"},
        {"label": "random", "name": "random"},
        {"label": "oracle", "name": "oracle"},
    )
    return Grid("sweep-grid", 2, datasets, algorithms, n_seeds, "seed")


def policy_loop(size: int, horizon: int, n_seeds: int) -> Grid:
    dataset = {"label": "d3", "name": "d3", "users": size, "items": size,
               "clusters": 4, "horizon": horizon, "budget": 1}
    algorithms = tuple({"label": name, "name": name}
                       for name in ("random", "oracle", "phased", "collab-greedy"))
    return Grid("policy-loop", 1, (dataset,), algorithms, n_seeds, "cell")


def phased_explore(size: int, horizon: int, n_seeds: int) -> Grid:
    # the acceptance-7 desk-scale settings: budget ceil(log2 T), eps1 = 16 x
    # the reward ceiling of uniform(0, 5), so the sampling rate is feasible
    budget = max(1, (horizon - 1).bit_length())
    dataset = {"label": "custom", "name": "custom", "users": size,
               "items": size, "clusters": 2, "horizon": horizon,
               "budget": budget, "v_law": "uniform", "v_scale": 5.0,
               "noise": {"kind": "gaussian", "sigma": 0.2}}
    algorithms = ({"label": "phased", "name": "phased",
                   "params": {"eps1": 80.0, "mu_bound": 2.0}},)
    return Grid("phased-explore", 1, (dataset,), algorithms, n_seeds, "seed")


WORKLOADS = {
    "solver-mix": Workload("solver-mix", (
        paperfig_d1(0.4, 1), sweep_grid(60, 24, 1), phased_explore(120, 120, 2))),
    "policy-loop": Workload("policy-loop", (policy_loop(200, 80, 2),)),
}

# The same grids shrunk until each runs in well under a second; the
# self-test uses them to exercise every layer quickly.
TINY = {
    "solver-mix": Workload("solver-mix", (
        paperfig_d1(0.2, 1), sweep_grid(24, 16, 1), phased_explore(40, 40, 1))),
    "policy-loop": Workload("policy-loop", (policy_loop(40, 16, 1),)),
}
