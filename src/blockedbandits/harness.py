"""Regret computation, experiment orchestration, and aggregation.

The regret target is the clairvoyant schedule that gives each user its top
ceil(T/B) expected-reward items, budget times each (the last item only for
the remaining rounds when B does not divide T).  Cumulative regret at round
t compares against the oracle's own best t-round prefix, so intermediate
points of a trace are meaningful.
"""

from __future__ import annotations

import csv
import ctypes
import io
import json
import math
import multiprocessing
import numbers
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import baselines, item_phased, phased
from .env import (
    ConfigurationError,
    GeneratorSpec,
    Instance,
    Simulation,
    generate_instance,
    mean_reward_matrix,
)
from .rng import stream

__all__ = [
    "RegretTrace",
    "SweepSpec",
    "CellResult",
    "build_trace",
    "trace_from_items",
    "oracle_prefix_values",
    "run_algorithm",
    "sweep",
    "aggregate",
    "write_csv",
    "ALGORITHMS",
]


@dataclass
class RegretTrace:
    items: np.ndarray  # (M, T) chosen item ids
    roundwise_mean_reward: np.ndarray  # (T,) user-average expected reward
    cumulative_regret: np.ndarray  # (T,) vs the oracle's best prefix

    @property
    def final_regret(self) -> float:
        return float(self.cumulative_regret[-1])


def oracle_prefix_values(inst: Instance) -> np.ndarray:
    """(M, T) expected reward of the oracle schedule, round by round."""
    means = mean_reward_matrix(inst)
    top = np.sort(means, axis=1)[:, ::-1]
    n_golden = math.ceil(inst.horizon / inst.budget)
    slots = np.repeat(top[:, :n_golden], inst.budget, axis=1)[:, : inst.horizon]
    return slots


def trace_from_items(items: np.ndarray, inst: Instance) -> RegretTrace:
    """Trace of an explicit (M, T) schedule against the oracle prefix."""
    items = np.asarray(items, dtype=np.int64)
    if items.shape != (inst.n_users, inst.horizon):
        raise ValueError("schedule does not match the instance dimensions")
    means = mean_reward_matrix(inst)
    chosen = np.take_along_axis(means, items, axis=1)  # (M, T)
    oracle = oracle_prefix_values(inst)
    gap = oracle.cumsum(axis=1) - chosen.cumsum(axis=1)
    return RegretTrace(items=items,
                       roundwise_mean_reward=chosen.mean(axis=0),
                       cumulative_regret=gap.mean(axis=0))


def build_trace(sim: Simulation) -> RegretTrace:
    return trace_from_items(sim.choice_matrix(), sim.instance)


# -- algorithm registry -------------------------------------------------------


# name -> (config dataclass whose fields are the params, or None: no params;
# runner(sim, config, rng)).  Each runner looks its policy up in the policy's
# module when it runs, so a name replaced there (the benchmark's tracer
# replaces them) is the one called.
ALGORITHMS = {
    "phased": (phased.PhasedConfig,
               lambda sim, cfg, rng: phased.run_phased(sim, cfg, rng)),
    "item-phased": (phased.PhasedConfig,
                    lambda sim, cfg, rng: item_phased.run_item_phased(
                        sim, cfg, rng)),
    "practical": (baselines.PracticalConfig,
                  lambda sim, cfg, rng: baselines.run_practical(sim, cfg, rng)),
    "etc": (baselines.EtcConfig,
            lambda sim, cfg, rng: baselines.run_etc(sim, cfg, rng)),
    "collab-greedy": (baselines.CollabGreedyConfig,
                      lambda sim, cfg, rng: baselines.run_collab_greedy(
                          sim, cfg, rng)),
    "oracle": (None, lambda sim, cfg, rng: baselines.run_oracle(sim)),
    "random": (None, lambda sim, cfg, rng: baselines.run_random(sim, rng)),
}


def _accepts(hint, value) -> bool:
    """Whether ``value`` fits a config field annotated ``hint``."""
    if typing.get_args(hint):  # an optional field: X | None
        return any(_accepts(arg, value) for arg in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:  # a real number, and not NaN or infinite
        return isinstance(value, numbers.Real) and math.isfinite(value)
    return isinstance(value, {int: numbers.Integral}.get(hint, hint))


def _check_algorithm(name: str, params):
    """The algorithm's config built from ``params`` (None for an algorithm
    without params).  Rejects an unregistered algorithm name, a param that
    its config dataclass lacks or annotates with another type, or a value
    that the config's own checks reject."""
    if name not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}")
    config = ALGORITHMS[name][0]
    params = dict(params or {})
    hints = typing.get_type_hints(config) if config else {}
    unknown = sorted(set(params) - set(hints))
    if unknown:
        raise ConfigurationError(
            f"unknown param(s) for {name}: {unknown}; known: {sorted(hints)}")
    for key, value in sorted(params.items()):
        if not _accepts(hints[key], value):
            raise ConfigurationError(f"invalid param {key}={value!r} for {name}")
    return config(**params) if config else None


def run_algorithm(inst: Instance, name: str, seed: int,
                  params: dict | None = None) -> tuple[RegretTrace, Simulation]:
    """One complete run; decision randomness comes from a per-algorithm
    stream so policies compared under one seed share instance and noise."""
    cfg = _check_algorithm(name, params)
    sim = Simulation(inst, seed, reusable_ledger=(name == "item-phased"))
    rng = stream(seed, f"decisions:{name}")
    ALGORITHMS[name][1](sim, cfg, rng)
    return build_trace(sim), sim


# -- sweeps -------------------------------------------------------------------


def _check_labels(labels: list, what: str) -> None:
    # a repeated label would merge two grid rows in the CSV and the summary
    if not all(isinstance(label, str) for label in labels) \
            or len(set(labels)) < len(labels):
        raise ConfigurationError(f"{what} labels must be distinct strings, "
                                 f"got {labels}")


@dataclass(frozen=True)
class SweepSpec:
    """A dataset x algorithm x seed grid, checked before any cell runs:
    known algorithm names and params, one label per dataset and per
    algorithm, and no collab-greedy on a dataset with Gaussian noise (it
    needs sign feedback).  Repeated seeds are allowed."""

    datasets: tuple[tuple[str, GeneratorSpec], ...]  # (label, spec)
    algorithms: tuple[tuple[str, str, tuple], ...]  # (label, name, params items)
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (self.datasets and self.algorithms and self.seeds):
            raise ConfigurationError("sweep grid must be nonempty")
        for _, name, params in self.algorithms:
            _check_algorithm(name, params)
        _check_labels([label for label, _ in self.datasets], "dataset")
        _check_labels([label for label, _, _ in self.algorithms], "algorithm")
        gaussian = [label for label, gen in self.datasets
                    if gen.resolved().noise.kind == "gaussian"]
        if gaussian and any(name == "collab-greedy"
                            for _, name, _ in self.algorithms):
            raise ConfigurationError(
                f"collab-greedy needs sign feedback; dataset {gaussian[0]!r} "
                "has Gaussian noise")

    @staticmethod
    def make(datasets, algorithms, seeds) -> "SweepSpec":
        algs = tuple((label, name, tuple(sorted((params or {}).items())))
                     for label, name, params in algorithms)
        return SweepSpec(tuple(datasets), algs, tuple(seeds))


@dataclass
class CellResult:
    dataset: str
    algorithm: str
    seed: int
    trace: RegretTrace | None
    max_pair_count: int = 0
    budget: int = 0
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def _run_cell(dataset: str, gen: GeneratorSpec, label: str, name: str,
              params: dict, seed: int) -> CellResult:
    try:
        inst = generate_instance(gen, seed)
        trace, sim = run_algorithm(inst, name, seed, params)
        return CellResult(dataset, label, seed, trace,
                          max_pair_count=sim.ledger.max_pair_count(),
                          budget=inst.budget)
    except Exception as exc:  # failed cells are recorded, the sweep continues
        return CellResult(dataset, label, seed, None, error=f"{type(exc).__name__}: {exc}")


# OpenBLAS's thread-count setter under its plain, 64-bit-int and
# scipy-openblas (numpy wheel) names
_OPENBLAS_SET_THREADS = ("openblas_set_num_threads",
                         "openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads",
                         "scipy_openblas_set_num_threads64_")


def _numpy_blas() -> ctypes.CDLL:
    """A handle on numpy's core extension, which also resolves the symbols
    of the BLAS it links."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return ctypes.CDLL(umath.__file__)


def _one_blas_thread() -> None:
    """Sweep-worker initializer: run this process's OpenBLAS on one thread.

    A forked worker inherits its parent's BLAS thread count, so several
    workers would each start that many BLAS threads on the same cores and
    spin against each other.  Under another BLAS no setter is found and the
    thread count is left as it is.
    """
    lib = _numpy_blas()
    for name in _OPENBLAS_SET_THREADS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter(1)
            return


def sweep(spec: SweepSpec, threads: int = 1) -> list[CellResult]:
    """Run every (dataset, algorithm, seed) cell; deterministic result order.

    With ``threads >= 2`` the cells run in that many worker processes,
    forked from this one: they inherit the imported package and anything
    replaced in it, and each runs OpenBLAS on one thread, so the workers
    do not contend for cores with each other's BLAS threads.  The results
    come back in the sweep's order, the same as with one worker, which
    runs the cells in this process.
    """
    cells = [(ds_label, gen, a_label, a_name, dict(a_params), seed)
             for ds_label, gen in spec.datasets
             for a_label, a_name, a_params in spec.algorithms
             for seed in spec.seeds]
    if threads <= 1:
        return [_run_cell(*c) for c in cells]
    with ProcessPoolExecutor(max_workers=threads,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_one_blas_thread) as pool:
        return list(pool.map(_run_cell, *zip(*cells)))


def aggregate(results: list[CellResult]) -> dict[tuple[str, str], dict]:
    """Mean, standard error, min and max of final regret per grid cell."""
    by_cell: dict[tuple[str, str], list[float]] = {}
    failures: dict[tuple[str, str], int] = {}
    for res in results:
        key = (res.dataset, res.algorithm)
        if res.failed:
            failures[key] = failures.get(key, 0) + 1
            continue
        by_cell.setdefault(key, []).append(res.trace.final_regret)
    out = {}
    for key, vals in by_cell.items():
        arr = np.asarray(vals)
        stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
        out[key] = {"mean": float(arr.mean()), "stderr": stderr,
                    "min": float(arr.min()), "max": float(arr.max()),
                    "n": len(arr), "failed": failures.get(key, 0)}
    for key, n_failed in failures.items():
        out.setdefault(key, {"mean": float("nan"), "stderr": float("nan"),
                             "min": float("nan"), "max": float("nan"),
                             "n": 0, "failed": n_failed})
    return out


CSV_COLUMNS = ["dataset", "algorithm", "seed", "t", "roundwise_mean_reward",
               "cumulative_regret"]


def write_csv(results: list[CellResult], path_or_buffer) -> None:
    """Per-round rows for every successful cell, bit-stable formatting."""
    owns = isinstance(path_or_buffer, str)
    fh = open(path_or_buffer, "w", newline="", encoding="utf-8") if owns \
        else path_or_buffer
    try:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for res in results:
            if res.failed:
                continue
            for t in range(len(res.trace.roundwise_mean_reward)):
                writer.writerow([
                    res.dataset, res.algorithm, res.seed, t + 1,
                    repr(float(res.trace.roundwise_mean_reward[t])),
                    repr(float(res.trace.cumulative_regret[t]))])
    finally:
        if owns:
            fh.close()


def csv_text(results: list[CellResult]) -> str:
    buf = io.StringIO()
    write_csv(results, buf)
    return buf.getvalue()


def summary_json(results: list[CellResult]) -> str:
    agg = aggregate(results)
    doc = [{"dataset": ds, "algorithm": alg, **stats}
           for (ds, alg), stats in sorted(agg.items())]
    return json.dumps(doc, indent=2)
