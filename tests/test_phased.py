import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockedbandits import phased
from blockedbandits.completion import SolverConfig
from blockedbandits.env import GeneratorSpec, Instance, NoiseModel, Simulation, generate_instance
from blockedbandits.harness import build_trace, run_algorithm
from blockedbandits.phased import (
    PhasedConfig,
    _exploit,
    exploration_floor,
    golden_rank,
    run_phased,
    sampling_prob,
    similarity_components,
)
from blockedbandits.rng import stream

from conftest import (
    cluster_gap_instance,
    golden_threshold,
    reference_recommend,
    reference_reuse,
    sim_state,
    true_partition,
)


class TestSamplingProb:
    def test_halving_gap_quadruples_rate(self):
        p1 = sampling_prob(80, 120, 0.2, 0.5, 2.0)
        p2 = sampling_prob(80, 120, 0.1, 0.5, 2.0)
        assert p2 == pytest.approx(4 * p1)

    def test_doubling_short_dimension_halves_rate(self):
        p1 = sampling_prob(50, 200, 0.1, 0.5, 2.0)
        p2 = sampling_prob(100, 200, 0.1, 0.5, 2.0)
        assert p2 == pytest.approx(p1 / 2)

    def test_arithmetic_example(self):
        # sigma=0.5, delta=0.1, d1=d2=100, mu=1.3
        mu = 1.3
        expected = (0.25 * mu ** 3 * math.log(100)) / (0.01 * 100)
        assert sampling_prob(100, 100, 0.1, 0.5, mu) == pytest.approx(expected)

    def test_floor_positive_at_zero_noise(self):
        assert sampling_prob(60, 60, 0.05, 0.0, 2.0) == 0.0
        assert exploration_floor(60, 60, 1.5, 4) > 0

    def test_golden_rank_accounting(self):
        assert golden_rank(horizon=60, budget=6, exploit_rounds=0) == 10
        assert golden_rank(horizon=60, budget=6, exploit_rounds=12) == 8
        assert golden_rank(horizon=7, budget=2, exploit_rounds=0) == 4


def union_find_components(rows, threshold):
    """Reference: components of the agreement graph by union-find, each
    ascending, ordered by their smallest member."""
    parent = list(range(len(rows)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if max(abs(a - b) for a, b in zip(rows[i], rows[j])) <= threshold:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(rows)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


@st.composite
def agreement_cases(draw):
    """(rows, threshold): random rows, shuffled chains or duplicated rows."""
    g = draw(st.integers(1, 24))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "chain", "duplicate"]))
    if kind == "random":
        cells = draw(st.lists(st.floats(-2, 2), min_size=g * n,
                              max_size=g * n))
        rows = np.array(cells).reshape(g, n)
        threshold = draw(st.just(0.0) | st.floats(0, 4))
    elif kind == "chain":
        # consecutive links agree within the threshold of 1 when their gap
        # is 1, so the ends of a long chain meet only through transitivity
        gaps = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=g - 1,
                             max_size=g - 1))
        position = np.concatenate([[0.0], np.cumsum(gaps)])
        order = draw(st.permutations(range(g)))
        rows = np.zeros((g, n))
        rows[:, 0] = position[order]
        threshold = 1.0
    else:
        pool = np.array(draw(st.lists(st.floats(-2, 2), min_size=3 * n,
                                      max_size=3 * n))).reshape(3, n)
        picks = draw(st.lists(st.integers(0, 2), min_size=g, max_size=g))
        rows = pool[picks]
        threshold = draw(st.sampled_from([0.0, 0.5]))
    return rows, threshold


# an estimate block of 3 users over 40 items in four shuffled levels; the
# item graph is built on its transpose
_g = np.random.default_rng(9)
ITEM_BLOCK = (np.repeat(np.arange(4.0), 10)[_g.permutation(40)]
              + _g.uniform(-0.3, 0.3, (3, 40)))


class TestSimilarityGraph:
    def test_large_threshold_single_component(self):
        rows = np.random.default_rng(0).normal(size=(8, 5))
        comps = similarity_components(rows, threshold=100.0)
        assert len(comps) == 1

    def test_zero_threshold_distinct_rows_singletons(self):
        rows = np.arange(12.0).reshape(4, 3)
        comps = similarity_components(rows, threshold=0.0)
        assert len(comps) == 4

    def test_two_separated_clusters_two_components(self):
        # entrywise gap gamma > 4 * delta on some item splits the graph
        delta = 0.05
        rows = np.vstack([np.zeros((3, 4)), np.full((3, 4), 4.1 * delta)])
        rows += np.random.default_rng(1).uniform(-delta / 2, delta / 2,
                                                 rows.shape)
        comps = similarity_components(rows, threshold=2 * delta)
        groups = {frozenset(c.tolist()) for c in comps}
        assert groups == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_identical_rows_complete_graph(self):
        rows = np.tile(np.arange(5.0), (6, 1))
        assert len(similarity_components(rows, threshold=1e-12)) == 1

    @given(case=agreement_cases())
    @example(case=(np.array([[0.3, -1.0]]), 0.0))
    @example(case=(np.array([[2.0], [0.0], [1.0]]), 1.0))
    @example(case=(np.array([[0.0, 1.0], [0.5, 1.25], [1.0, 0.75]]), 0.5))
    @example(case=(ITEM_BLOCK.T, 0.5))
    @settings(max_examples=300, deadline=None)
    def test_matches_union_find(self, case):
        rows, threshold = case
        got = similarity_components(rows, threshold)
        assert [c.tolist() for c in got] == union_find_components(rows,
                                                                  threshold)

    def test_memory_is_quadratic_in_rows(self):
        # a 300 x 300 call; comparing every column at once took 432 MB
        rows = np.random.default_rng(3).normal(size=(300, 300))
        tracemalloc.start()
        try:
            similarity_components(rows, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestRunPhased:
    def test_zero_noise_two_cluster_recovery(self):
        inst = cluster_gap_instance(0, n_users=20, n_items=24, n_clusters=2,
                                    horizon=30)
        sim = Simulation(inst, 0)
        cfg = PhasedConfig(mu_bound=1.5)
        report = run_phased(sim, cfg, stream(0, "decisions:phased"))
        got = {frozenset(c.tolist()) for c in report.components_at_level(1)}
        assert got == true_partition(inst)

    def test_single_cluster_stays_together(self):
        inst = cluster_gap_instance(1, n_users=12, n_items=12, n_clusters=1,
                                    horizon=26)
        sim = Simulation(inst, 1)
        # tiny instance: raise the sampling floor so every row is well covered
        cfg = PhasedConfig(mu_bound=1.5, floor_c=2.6)
        report = run_phased(sim, cfg, stream(1, "decisions:phased"))
        comps = report.components_at_level(1)
        assert len(comps) == 1 and len(comps[0]) == 12

    def test_protocol_and_budget_hold(self):
        inst = cluster_gap_instance(2, n_users=24, n_items=30, n_clusters=3,
                                    horizon=24, sigma=0.3)
        trace, sim = run_algorithm(inst, "phased", 2)
        assert sim.finished()
        assert sim.ledger.max_pair_count() <= inst.budget
        assert trace.items.shape == (24, 24)

    def test_constant_rewards_no_exploit_rounds(self):
        rewards = np.full((10, 14), 1.5)
        inst = Instance(10, 14, 10, 3, 1, np.zeros(10, dtype=int), rewards,
                        NoiseModel("gaussian", 0.0))
        _, sim = run_algorithm(inst, "phased", 0)
        assert not any(e.purpose == "exploit" for e in sim.events)

    def test_zero_noise_golden_soundness(self):
        inst = cluster_gap_instance(3, n_users=24, n_items=24, n_clusters=2,
                                    horizon=30, n_high=3)
        _, sim = run_algorithm(inst, "phased", 3)
        exploit = [e for e in sim.events if e.purpose == "exploit"]
        assert exploit, "exploit component never fired"
        thresh = golden_threshold(inst)
        assert all(inst.rewards[e.user, e.item] >= thresh[e.user] - 1e-9
                   for e in exploit)

    def test_observations_consumed_at_most_once(self):
        inst = cluster_gap_instance(4, n_users=16, n_items=20, n_clusters=2,
                                    horizon=20, sigma=0.2, budget=2)
        _, sim = run_algorithm(inst, "phased", 4)
        assert sim.events, "no events recorded"
        assert max(len(e.consumers) for e in sim.events) <= 1

    def test_explore_pads_users_to_common_round(self):
        inst = cluster_gap_instance(5, n_users=18, n_items=22, n_clusters=2,
                                    horizon=28)
        _, sim = run_algorithm(inst, "phased", 5, {"mu_bound": 1.5})
        # the level-1 explore covers all users: everyone leaves the window
        # at the same round, padded with fillers as needed
        window_end = {}
        n_explore = {}
        for ev in sim.events:
            if ev.purpose in ("explore", "filler") and ev.round <= 25:
                window_end[ev.user] = max(window_end.get(ev.user, 0), ev.round)
                if ev.purpose == "explore":
                    n_explore[ev.user] = n_explore.get(ev.user, 0) + 1
        assert n_explore, "no exploration happened"
        ends = {window_end[u] for u in range(18)}
        assert len(ends) == 1
        assert max(ends) == max(n_explore.values())

    def test_p_one_zero_noise_estimate_exact(self):
        # full observation in the first explore gives an exact estimate
        from blockedbandits.phased import _explore

        g = np.random.default_rng(6)
        factors = g.uniform(0, 3, size=(5, 2))
        inst = Instance(6, 5, 5, 1, 2, np.arange(6) % 2,
                        factors[:, np.arange(6) % 2].T,
                        NoiseModel("gaussian", 0.0))
        sim = Simulation(inst, 6)
        block, t_new = _explore(sim, np.arange(6), np.arange(5), 0, 1.0,
                                SolverConfig(), stream(6, "d"))
        assert t_new == 5
        assert np.abs(block - inst.rewards).max() <= 1e-6

    def test_exploit_prunes_and_respects_schedule(self):
        g = np.random.default_rng(7)
        rewards = np.vstack([np.array([5.0, 5.0, 1.0, 0.9, 0.8, 0.7])] * 4)
        inst = Instance(4, 6, 6, 2, 1, np.zeros(4, dtype=int), rewards,
                        NoiseModel("gaussian", 0.0))
        sim = Simulation(inst, 7)
        p_tilde = rewards.copy()
        delta = 0.01
        active, t_new, t_exploit, chosen = _exploit(
            sim, np.arange(4), np.arange(6), 0, 0, p_tilde,
            delta_l=delta, delta_next=delta)
        assert set(chosen) == {0, 1}
        assert not set(chosen) & set(active.tolist())
        assert t_new == t_exploit == len(chosen) * inst.budget
        for ev in sim.events:
            assert ev.purpose in ("exploit", "filler")
            if ev.purpose == "exploit":
                assert ev.item in (0, 1)

    def test_phased_beats_random_single_cluster(self):
        # statistical ordering over 20 seeds at zero noise
        margins = []
        for seed in range(20):
            inst = cluster_gap_instance(seed + 100, n_users=10, n_items=18,
                                        n_clusters=1, horizon=12, budget=4)
            phased_trace, _ = run_algorithm(inst, "phased", seed)
            random_trace, _ = run_algorithm(inst, "random", seed)
            margins.append(random_trace.final_regret
                           - phased_trace.final_regret)
        assert np.mean(margins) > 0

    def test_disjoint_groups_and_monotone_active(self):
        inst = cluster_gap_instance(8, n_users=24, n_items=28, n_clusters=2,
                                    horizon=30)
        sim = Simulation(inst, 8)
        cfg = PhasedConfig(mu_bound=1.5)
        report = run_phased(sim, cfg, stream(8, "decisions:phased"))
        by_level: dict[int, list] = {}
        for rec in report.records:
            by_level.setdefault(rec.level, []).append(rec)
        for level, recs in by_level.items():
            seen: set[int] = set()
            for rec in recs:
                users = set(rec.users.tolist())
                assert not users & seen
                seen |= users
                # pruning only removes items within a phase
                assert set(rec.active_after_exploit.tolist()) <= \
                    set(rec.active_before.tolist())


# -- scalar references of the batched blocks ----------------------------------
# The explore block, exploit step and fill as they were written before they
# were batched: one ``reference_recommend`` per event, each decision read
# from the ledger just before it.


def reference_any_unblocked(sim, user, active):
    """The first unblocked item of ``active``, else the lowest unblocked
    item of all."""
    free = sim.ledger.counts[user] < sim.instance.budget
    preferred = active[free[active]]
    return int(preferred[0]) if preferred.size else int(np.flatnonzero(free)[0])


def reference_pick_filler(sim, user, active, excluded, rng):
    cand = sim.unblocked_in(user, active)
    cand = cand[~excluded[cand]]
    if cand.size:
        return int(cand[rng.integers(cand.size)])
    return reference_any_unblocked(sim, user, active)


def reference_explore(sim, users, active, t0, p, solver, rng, estimate):
    inst = sim.instance
    n_u, n_i = len(users), len(active)
    picks = rng.random((n_u, n_i)) < p
    per_user = [np.flatnonzero(picks[lu]) for lu in range(n_u)]
    m = max((len(q) for q in per_user), default=0)
    m = min(m, inst.horizon - t0)
    if m == 0:
        return None, t0
    omega_rows, omega_cols, values, consumed_ids = [], [], [], []
    for lu, user in enumerate(users):
        queue = per_user[lu]
        in_omega = np.zeros(inst.n_items, dtype=bool)
        in_omega[active[queue]] = True
        for lj in queue[: m]:
            item = int(active[lj])
            if sim.ledger.counts[user, item] < sim.instance.budget:
                obs = reference_recommend(sim, user, item, "explore",
                                          consumable=True)
            else:
                obs = reference_reuse(sim, user, item)
                filler = reference_pick_filler(sim, user, active, in_omega, rng)
                reference_recommend(sim, user, filler, "filler")
            if obs is not None:
                omega_rows.append(lu)
                omega_cols.append(int(lj))
                values.append(obs[0])
                consumed_ids.append(obs[1])
        for _ in range(m - len(queue)):
            filler = reference_pick_filler(sim, user, active, in_omega, rng)
            reference_recommend(sim, user, filler, "filler")
    t_new = t0 + m
    if not values:
        return None, t_new
    omega = np.stack([omega_rows, omega_cols], axis=1)
    result = estimate(n_u, n_i, omega, np.asarray(values), inst.noise.scale,
                      solver, rng)
    sim.mark_consumed(consumed_ids)
    return result.matrix, t_new


def reference_exploit_step(sim, users, item, active):
    for user in users:
        if sim.ledger.counts[user, item] < sim.instance.budget:
            reference_recommend(sim, user, item, "exploit")
        else:
            sub = reference_any_unblocked(sim, user, active)
            reference_recommend(sim, user, sub, "filler")


def reference_fill(sim, users, active, t0, rng):
    budget = sim.instance.budget
    for user in users:
        counts = sim.ledger.counts[user].copy()
        cand = active[counts[active] < budget].tolist()
        for _ in range(t0, sim.instance.horizon):
            if not cand:
                item = int(np.flatnonzero(counts < budget)[0])
            else:
                pos = int(rng.integers(len(cand)))
                item = cand[pos]
                if counts[item] + 1 >= budget:
                    del cand[pos]
            counts[item] += 1
            reference_recommend(sim, user, item, "fill")


def reference_walk(counts, cand, budget, preferred, rng):
    """A user's picks with one ``rng.integers`` call per pick."""
    while True:
        if cand:
            pos = int(rng.integers(len(cand)))
            item = cand[pos]
            if counts[item] + 1 >= budget:
                del cand[pos]
        else:
            free = [j for j in preferred.tolist() + list(range(len(counts)))
                    if counts[j] < budget]
            item = free[0]
        counts[item] += 1
        yield item


@st.composite
def walk_cases(draw):
    """(counts, cand, budget, n, preferred, take, nudges, seed, warm): a
    ledger row with mixed counts, candidates below the budget in any order,
    a caller that takes ``take >= n`` picks and, after the picks named in
    ``nudges``, adds one to the count of an item outside ``cand``, and a
    generator started ``warm`` scalar draws in."""
    budget = draw(st.integers(1, 7))
    n_items = draw(st.integers(1, 10))
    counts = draw(st.lists(st.integers(0, budget), min_size=n_items,
                           max_size=n_items))
    free = [j for j in range(n_items) if counts[j] < budget]
    cand = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
    preferred = draw(st.permutations(range(n_items)))
    preferred = preferred[:draw(st.integers(0, n_items))]
    capacity = sum(budget - c for c in counts)
    take = draw(st.integers(0, capacity))
    n = draw(st.integers(0, take))
    others = [j for j in free if j not in cand]
    nudges = {}
    if others and take:
        for _ in range(draw(st.integers(0, capacity - take))):
            nudges[draw(st.integers(0, take - 1))] = draw(
                st.sampled_from(others))
    return (counts, cand, budget, n, preferred, take, nudges,
            draw(st.integers(0, 2 ** 16)), draw(st.integers(0, 3)))


def capturing_estimate(calls):
    """A stand-in for ``estimate`` that records its problem and returns a
    zero block without drawing."""
    def fake(n_rows, n_cols, omega, values, sigma, solver, rng):
        calls.append((omega.tolist(), values.tolist()))
        return SimpleNamespace(matrix=np.zeros((n_rows, n_cols)))
    return fake


@st.composite
def prefilled_tasks(draw):
    """(sim factory, users, active, t0, seed): an instance whose users all
    have t0 rounds recorded, mostly on the active items, with mixed purposes
    and consumable flags, so that pairs are blocked, observations stored,
    and some users have every active item outside a sample blocked."""
    budget = draw(st.integers(1, 7))
    n_users = draw(st.integers(1, 5))
    n_items = draw(st.integers(2, 8))
    horizon = draw(st.integers(2, min(n_items * budget, 30)))
    t0 = draw(st.integers(0, horizon - 1))
    name = draw(st.sampled_from(["d2", "d3"]))
    reusable = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 16))
    users = np.array(sorted(draw(st.sets(st.integers(0, n_users - 1),
                                         min_size=1))))
    active = np.array(sorted(draw(st.sets(st.integers(0, n_items - 1),
                                          min_size=1))))
    inst = generate_instance(GeneratorSpec(
        name=name, n_users=n_users, n_items=n_items, n_clusters=1,
        horizon=horizon, budget=budget), seed)
    g = np.random.default_rng(seed)
    prefill = []
    counts = np.zeros((n_users, n_items), dtype=int)
    for user in range(n_users):
        for _ in range(t0):
            free = np.flatnonzero(counts[user] < budget)
            hot = np.intersect1d(free, active)
            pool = hot if hot.size and g.random() < 0.8 else free
            item = int(g.choice(pool))
            counts[user, item] += 1
            prefill.append((user, item, str(g.choice(["fill", "filler",
                                                      "explore"])),
                            bool(g.random() < 0.5)))

    def make():
        sim = Simulation(inst, seed, reusable_ledger=reusable)
        for entry in prefill:
            reference_recommend(sim, *entry)
        return sim

    return make, users, active, t0, seed


class TestWalk:
    """``_walk`` makes the picks, counts and generator state of one
    ``rng.integers`` call per pick, whatever chunks it draws in."""

    @given(case=walk_cases())
    # mixed start counts, one a pick from the budget: a chunk is cut
    @example(case=([6, 0, 2, 3, 5, 1, 4, 0, 2, 3], list(range(10)), 7, 30,
                   (5, 1), 30, {}, 1, 0))
    # more picks owed than candidates, then the fallback over preferred
    @example(case=([0, 1, 1, 0], [2, 1], 2, 6, (3, 0), 6, {}, 2, 1))
    # a caller that changes counts outside the candidates between picks
    @example(case=([0, 0, 2, 0, 1], [0, 4], 3, 4, (1, 3, 2), 9,
                   {0: 1, 2: 3, 4: 1}, 3, 0))
    @settings(max_examples=400, deadline=None)
    def test_matches_one_draw_per_pick(self, case):
        counts, cand, budget, n, preferred, take, nudges, seed, warm = case
        preferred = np.array(preferred, dtype=np.int64)

        def run(walk):
            row, rng = list(counts), np.random.default_rng(seed)
            for _ in range(warm):
                rng.integers(2 ** 31)  # leaves half a 64-bit word buffered
            picks_of = walk(row, list(cand), rng)
            picks = []
            for step in range(take):
                picks.append(next(picks_of))
                item = nudges.get(step)
                if item is not None and row[item] < budget:
                    row[item] += 1
            return picks, row, rng.bit_generator.state

        assert run(lambda row, cand, rng: phased._walk(
            row, cand, budget, n, preferred, rng)) == run(
            lambda row, cand, rng: reference_walk(row, cand, budget,
                                                  preferred, rng))


class TestBatchedBlocks:
    """The batched explore block, exploit step and fill make the events,
    stored flags, reuse log, consumed list, completion problem and draws
    of the scalar references."""

    @given(task=prefilled_tasks(), p=st.sampled_from([0.2, 0.5, 0.8, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_explore_matches_scalar_reference(self, task, p):
        make, users, active, t0, seed = task
        runs = []
        for batched in (True, False):
            sim, rng, calls = make(), stream(seed, "d"), []
            if batched:
                with mock.patch.object(phased, "estimate",
                                       capturing_estimate(calls)):
                    block, t_new = phased._explore(
                        sim, users, active, t0, p, SolverConfig(), rng)
            else:
                block, t_new = reference_explore(
                    sim, users, active, t0, p, SolverConfig(), rng,
                    capturing_estimate(calls))
            runs.append((sim_state(sim), calls, block is None, t_new,
                         rng.bit_generator.state))
        assert runs[0] == runs[1]

    @given(task=prefilled_tasks(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_exploit_step_matches_scalar_reference(self, task, data):
        make, users, active, _, _ = task
        item = data.draw(st.sampled_from(active.tolist()))
        batch_sim, loop_sim = make(), make()
        phased._exploit_step(batch_sim, users, item, active)
        reference_exploit_step(loop_sim, users, item, active)
        assert sim_state(batch_sim) == sim_state(loop_sim)

    @given(task=prefilled_tasks())
    @settings(max_examples=100, deadline=None)
    def test_fill_matches_scalar_reference(self, task):
        make, users, active, t0, seed = task
        runs = []
        for fill in (phased._fill_until_end, reference_fill):
            sim, rng = make(), stream(seed, "d")
            fill(sim, users, active, t0, rng)
            runs.append((sim_state(sim), rng.bit_generator.state))
        assert runs[0] == runs[1]
