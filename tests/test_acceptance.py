"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Statistical criteria use the seed counts and tolerances
fixed below; exposed algorithm hyper-parameters used by a criterion are
declared next to it.
"""

import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest

from blockedbandits.completion import CompletionProblem, SolverConfig, solve_block
from blockedbandits.env import GeneratorSpec, NoiseModel, Simulation, generate_instance
from blockedbandits.harness import SweepSpec, run_algorithm, sweep
from blockedbandits.item_phased import run_item_phased
from blockedbandits.phased import PhasedConfig, run_phased
from blockedbandits.rng import stream

from conftest import (
    cluster_gap_instance,
    golden_threshold,
    item_cluster_instance,
    true_partition,
)
from test_completion import (
    incoherent_low_rank,
    masked_problem,
    nuclear_objective,
    subgradient_oracle,
)


def report(number: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {verdict} ({detail})", flush=True)
    assert passed, f"criterion {number} {name}: {detail}"


def small_dataset(name: str) -> GeneratorSpec:
    return GeneratorSpec(name=name, n_users=30, n_items=30, n_clusters=4,
                         horizon=12, budget=1)


class TestAcceptance:
    def test_01_budget_safety(self):
        started = time.time()
        common = [("phased", "phased", {}), ("practical", "practical", {}),
                  ("etc", "etc", {}), ("random", "random", {}),
                  ("oracle", "oracle", {})]
        seeds = tuple(range(50))
        results = []
        for ds in ("d1", "d2", "d3"):
            algorithms = common + ([("collab-greedy", "collab-greedy", {})]
                                   if ds == "d3" else [])
            spec = SweepSpec.make([(f"{ds}-small", small_dataset(ds))],
                                  algorithms, seeds)
            results.extend(sweep(spec))
        elapsed = time.time() - started
        failures = [r for r in results if r.failed]
        over_budget = [r for r in results
                       if not r.failed and r.max_pair_count > r.budget]
        report(1, "budget-safety",
               not failures and not over_budget and elapsed < 120,
               f"{len(results)} runs, {len(failures)} errors, "
               f"{len(over_budget)} budget breaches, {elapsed:.1f}s < 120s")

    def test_02_completion_correctness(self):
        # (a) zero regulariser, full observation, rank-1: exact recovery
        g = np.random.default_rng(0)
        truth = np.outer(g.normal(size=8), g.normal(size=6))
        omega = np.argwhere(np.ones_like(truth, dtype=bool))
        res_a = solve_block(CompletionProblem(8, 6, omega, truth.ravel(),
                                              sigma=0.0))
        exact = np.abs(res_a.matrix - truth).max() <= 1e-6

        # (b) 20x20 rank-2, p=0.5, sigma=0.01 vs the subgradient oracle
        truth_b = incoherent_low_rank(20, 2, seed=2)
        prob = masked_problem(truth_b, 0.5, 0.01, seed=2)
        res_b = solve_block(prob, SolverConfig(max_iters=20_000, tol=1e-12))
        ours = nuclear_objective(res_b.matrix, prob, res_b.lam)
        _, oracle_f = subgradient_oracle(prob, res_b.lam)
        objective_match = abs(ours - oracle_f) <= 1e-3

        # (c) monotone objective on the same solve
        objs = np.array(res_b.objectives)
        monotone = bool((np.diff(objs) <=
                         1e-10 * np.maximum(1.0, np.abs(objs[:-1]))).all())
        report(2, "completion-correctness",
               exact and objective_match and monotone,
               f"full-recovery err {np.abs(res_a.matrix - truth).max():.2e}, "
               f"objective gap {abs(ours - oracle_f):.2e}, monotone={monotone}")

    def test_03_error_rate_scaling(self):
        started = time.time()
        truth = incoherent_low_rank(100, 2, seed=8, scale=1.0)
        means = {}
        for p in (0.15, 0.3, 0.6):
            errs = []
            for seed in range(20):
                g = np.random.default_rng(1000 + seed)
                mask = g.random((100, 100)) < p
                om = np.argwhere(mask)
                z = truth[mask] + g.normal(0, 0.1, size=mask.sum())
                res = solve_block(CompletionProblem(100, 100, om, z, 0.1))
                errs.append(np.abs(res.matrix - truth).max())
            means[p] = float(np.mean(errs))
        elapsed = time.time() - started
        gap_low = (means[0.15] - means[0.3]) / means[0.15]
        gap_high = (means[0.3] - means[0.6]) / means[0.3]
        ok = means[0.6] < means[0.3] < means[0.15] \
            and gap_low >= 0.2 and gap_high >= 0.2 and elapsed < 180
        report(3, "error-rate-scaling", ok,
               f"err(p): 0.15->{means[0.15]:.3f}, 0.3->{means[0.3]:.3f}, "
               f"0.6->{means[0.6]:.3f}; gaps {gap_low:.0%}/{gap_high:.0%}, "
               f"{elapsed:.0f}s < 180s")

    # criteria 4 and 5 share the same 20 zero-noise runs; the exposed
    # hyper-parameters used are mu_bound=1.5 (the instances are built
    # incoherent) with all other knobs at their defaults
    def _zero_noise_runs(self):
        runs = []
        for seed in range(20):
            inst = cluster_gap_instance(seed, n_users=60, n_items=60,
                                        n_clusters=4, horizon=60)
            # construction guarantee: entrywise inter-cluster gap >= 0.5
            distinct = np.stack([inst.rewards[c] for c in range(4)])
            gaps = [np.abs(distinct[a] - distinct[b]).min()
                    for a in range(4) for b in range(a + 1, 4)]
            assert min(gaps) >= 0.5
            sim = Simulation(inst, seed)
            cfg = PhasedConfig(mu_bound=1.5)
            rep = run_phased(sim, cfg, stream(seed, "decisions:phased"))
            runs.append((inst, sim, rep))
        return runs

    @pytest.fixture(scope="class")
    def zero_noise_runs(self):
        return self._zero_noise_runs()

    def test_04_zero_noise_cluster_recovery(self, zero_noise_runs):
        hits = 0
        for inst, _, rep in zero_noise_runs:
            got = {frozenset(c.tolist()) for c in rep.components_at_level(1)}
            hits += got == true_partition(inst)
        report(4, "zero-noise-cluster-recovery", hits == 20,
               f"{hits}/20 seeds recovered the true clusters at phase 1")

    def test_05_zero_noise_golden_soundness(self, zero_noise_runs):
        total = sound = 0
        for inst, sim, _ in zero_noise_runs:
            thresh = golden_threshold(inst)
            for ev in sim.events:
                if ev.purpose == "exploit":
                    total += 1
                    sound += inst.rewards[ev.user, ev.item] >= \
                        thresh[ev.user] - 1e-9
        report(5, "zero-noise-golden-soundness",
               total > 0 and sound == total,
               f"{sound}/{total} exploit recommendations were golden")

    def test_06_regret_ordering_d3(self):
        started = time.time()
        spec = GeneratorSpec(name="d3", n_users=60, n_items=60, n_clusters=4,
                             horizon=24, budget=1)
        stats = {}
        for label, name, params in [("practical", "practical", {}),
                                    ("etc-m10", "etc", {"m_target": 10}),
                                    ("collab-greedy", "collab-greedy", {})]:
            vals = []
            for seed in range(30):
                inst = generate_instance(spec, seed)
                trace, _ = run_algorithm(inst, name, seed, params)
                vals.append(trace.final_regret)
            arr = np.asarray(vals)
            stats[label] = (arr.mean(), arr.std(ddof=1) / math.sqrt(30))
        elapsed = time.time() - started

        def separation(a, b):
            return (stats[b][0] - stats[a][0]) / math.sqrt(
                stats[a][1] ** 2 + stats[b][1] ** 2)

        vs_etc = separation("practical", "etc-m10")
        vs_greedy = separation("practical", "collab-greedy")
        ok = vs_etc >= 2.0 and vs_greedy >= 2.0 and elapsed < 600
        detail = (", ".join(f"{k} {m:.2f}+/-{s:.2f}"
                            for k, (m, s) in stats.items())
                  + f"; sep vs etc {vs_etc:.1f} sigma, vs greedy "
                  f"{vs_greedy:.1f} sigma, {elapsed:.0f}s < 600s")
        report(6, "regret-ordering-d3", ok, detail)

    @pytest.mark.slow
    def test_07_sublinear_regret_scaling(self):
        # exposed hypers for the desk-scale run: eps1 = 16 * reward ceiling
        # (phase schedule coarse enough that the sampling rate is feasible),
        # mu_bound = 2.0
        means = {}
        for horizon in (60, 120):
            budget = max(1, math.ceil(math.log2(horizon)))
            spec = GeneratorSpec(name="custom", n_users=120, n_items=120,
                                 n_clusters=2, horizon=horizon, budget=budget,
                                 v_law="uniform", v_scale=5.0,
                                 noise=NoiseModel("gaussian", 0.2))
            vals = []
            for seed in range(30):
                inst = generate_instance(spec, seed)
                trace, _ = run_algorithm(
                    inst, "phased", seed,
                    {"eps1": 16 * inst.reward_ceiling, "mu_bound": 2.0})
                vals.append(trace.final_regret)
            means[horizon] = float(np.mean(vals))
        ratio = means[120] / means[60]
        report(7, "sublinear-regret-scaling", ratio <= 1.7,
               f"regret(60)={means[60]:.1f}, regret(120)={means[120]:.1f}, "
               f"ratio {ratio:.2f} <= 1.7")

    @pytest.mark.slow
    def test_08_etc_horizon_exponent(self):
        # D2-law instance with item headroom (N >> T) so the budget never
        # forces the schedule; exposed hypers: mu_bound=1.2, lighter solver
        params = {"mu_bound": 1.2,
                  "solver": SolverConfig(max_iters=400, tol=1e-7)}
        means = {}
        for horizon in (30, 60, 120):
            spec = GeneratorSpec(name="d2", n_users=80, n_items=480,
                                 n_clusters=4, horizon=horizon, budget=1)
            vals = []
            for seed in range(30):
                inst = generate_instance(spec, seed)
                trace, _ = run_algorithm(inst, "etc", seed, params)
                vals.append(trace.final_regret)
            means[horizon] = float(np.mean(vals))
        xs = np.log([30.0, 60.0, 120.0])
        ys = np.log([means[30], means[60], means[120]])
        slope = float(np.polyfit(xs, ys, 1)[0])
        report(8, "etc-horizon-exponent", 0.55 <= slope <= 0.85,
               f"regret {means[30]:.0f}/{means[60]:.0f}/{means[120]:.0f}, "
               f"slope {slope:.3f} in [0.55, 0.85]")

    def test_09_oracle_brute_force(self):
        def brute_best(inst):
            means = inst.rewards
            total = 0.0
            for u in range(inst.n_users):
                best = -np.inf
                for seq in itertools.product(range(inst.n_items),
                                             repeat=inst.horizon):
                    if np.bincount(seq, minlength=inst.n_items).max() > inst.budget:
                        continue
                    best = max(best, means[u, list(seq)].sum())
                total += best
            return total

        checked = 0
        for m, n, t, b in itertools.product(range(1, 6), range(1, 6),
                                            range(1, 5), range(1, 3)):
            if n * b < t:
                continue
            spec = GeneratorSpec(name="custom", n_users=m, n_items=n,
                                 n_clusters=min(2, m), horizon=t, budget=b,
                                 v_law="uniform",
                                 noise=NoiseModel("gaussian", 0.0))
            inst = generate_instance(spec, seed=m * 100 + n * 10 + t + b)
            trace, _ = run_algorithm(inst, "oracle", 0)
            achieved = np.take_along_axis(inst.rewards, trace.items,
                                          axis=1).sum()
            assert achieved == pytest.approx(brute_best(inst), abs=1e-9), \
                (m, n, t, b)
            checked += 1
        report(9, "oracle-brute-force-equivalence", checked > 100,
               f"{checked} instance shapes verified exhaustively")

    @pytest.mark.slow
    def test_10_item_clustered_variant(self):
        # exposed hypers: mu_bound=1.5 (instances are built incoherent) and
        # floor_c=2.0 so every row of the zero-noise completion problem is
        # sampled well clear of the identifiability threshold
        recovered = 0
        breaches = 0
        for seed in range(20):
            inst = item_cluster_instance(seed, n_user_clusters=2,
                                         n_item_clusters=2, horizon=44)
            sim = Simulation(inst, seed, reusable_ledger=True)
            cfg = PhasedConfig(mu_bound=1.5, floor_c=2.0)
            rep = run_item_phased(sim, cfg,
                                  stream(seed, "decisions:item-phased"))
            got = {frozenset(c.tolist())
                   for c in rep.components_at_level(1)}
            recovered += got == true_partition(inst)
            pairs = Counter((e.user, e.item) for e in sim.events)
            breaches += max(pairs.values()) > 1

        exploit_total = exploit_sound = 0
        for seed in range(20):
            inst = item_cluster_instance(seed, n_user_clusters=2,
                                         n_item_clusters=8, horizon=36,
                                         standout=True)
            sim = Simulation(inst, seed, reusable_ledger=True)
            cfg = PhasedConfig(mu_bound=1.5)
            run_item_phased(sim, cfg, stream(seed, "decisions:item-phased"))
            thresh = golden_threshold(inst)
            for ev in sim.events:
                if ev.purpose == "exploit":
                    exploit_total += 1
                    exploit_sound += inst.rewards[ev.user, ev.item] >= \
                        thresh[ev.user] - 1e-9
            pairs = Counter((e.user, e.item) for e in sim.events)
            breaches += max(pairs.values()) > 1

        ok = recovered == 20 and breaches == 0 and \
            exploit_total > 0 and exploit_sound == exploit_total
        report(10, "item-clustered-variant", ok,
               f"recovery {recovered}/20, pair breaches {breaches}, "
               f"golden {exploit_sound}/{exploit_total}")
