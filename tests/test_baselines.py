import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockedbandits import baselines
from blockedbandits.baselines import (
    CollabGreedyConfig,
    EtcConfig,
    PracticalConfig,
    etc_sampling_prob,
    explore_probabilities,
    kmeans,
    pick_k_elbow,
    run_collab_greedy,
    run_practical,
    _kth_free,
)
from blockedbandits.env import (
    ConfigurationError,
    GeneratorSpec,
    Instance,
    NoiseModel,
    Simulation,
    generate_instance,
)
from blockedbandits.harness import run_algorithm
from blockedbandits.rng import stream


class TestEtc:
    def test_zero_noise_full_mask_commits_to_true_tops(self):
        g = np.random.default_rng(0)
        factors = g.uniform(0, 5, size=(5, 2))
        inst = Instance(4, 5, 8, 2, 2, np.arange(4) % 2,
                        factors[:, np.arange(4) % 2].T,
                        NoiseModel("gaussian", 0.0))
        _, sim = run_algorithm(inst, "etc", 0, {"m_target": 5.0})  # p = 1
        commits = [(e.user, e.item) for e in sim.events
                   if e.purpose == "commit"]
        order = np.argsort(-inst.rewards, axis=1)
        expected = {(u, int(order[u, k])) for u in range(4) for k in range(3)}
        assert set(commits) == expected
        # per user, commits arrive in descending true-reward order
        for u in range(4):
            seq = [item for user, item in commits if user == u]
            assert seq == [int(order[u, k]) for k in range(3)]

    def test_exploration_rounds_equal_max_row_count(self):
        inst = generate_instance(
            GeneratorSpec(name="d2", n_users=10, n_items=20, n_clusters=2,
                          horizon=12, budget=1), seed=1)
        _, sim = run_algorithm(inst, "etc", 1, {"m_target": 6.0})  # p = 0.3
        explore_counts = np.zeros(10, dtype=int)
        window_end = np.zeros(10, dtype=int)
        for e in sim.events:
            if e.purpose == "explore":
                explore_counts[e.user] += 1
            if e.purpose in ("explore", "filler"):
                window_end[e.user] = max(window_end[e.user], e.round)
        m = explore_counts.max()
        assert (window_end == m).all()

    def test_rate_formula_floor(self):
        # the completion floor mu^2/d2 dominates when the horizon is tiny
        low = etc_sampling_prob(50, 50, 1, 0.01, 2, 5.0, 2.0)
        assert low == pytest.approx(4 / 50)

    def test_out_of_range_rate_clamped_with_warning(self):
        inst = generate_instance(
            GeneratorSpec(name="d2", n_users=6, n_items=8, n_clusters=2,
                          horizon=4, budget=1), seed=2)
        sim = Simulation(inst, 2)
        with pytest.warns(UserWarning):
            from blockedbandits.baselines import run_etc

            run_etc(sim, EtcConfig(m_target=13.6), stream(2, "d"))  # p = 1.7
        assert sim.finished()


class TestPractical:
    def test_paper_phase_constants(self):
        cfg = PracticalConfig()
        assert cfg.phase_length_base + cfg.phase_length_slope * 1 == 12
        ceiling = 3.7
        assert ceiling / (cfg.gap_divisor * 2 ** 1) == pytest.approx(ceiling / 16)

    def test_zero_noise_elbow_finds_two_clusters(self):
        g = np.random.default_rng(3)
        factors = np.stack([g.uniform(0, 1, 30), g.uniform(3, 4, 30)], axis=1)
        inst = Instance(20, 30, 18, 1, 2, np.arange(20) % 2,
                        factors[:, np.arange(20) % 2].T,
                        NoiseModel("gaussian", 0.0))
        sim = Simulation(inst, 3)
        report = run_practical(sim, PracticalConfig(), stream(3, "d"))
        first = report[0]
        assert len(first.groups) == 2
        got = {frozenset(users.tolist()) for users, _ in first.groups}
        want = {frozenset(np.flatnonzero(inst.cluster_of == c).tolist())
                for c in range(2)}
        assert got == want

    def test_exploits_inside_active_set_after_first_estimate(self):
        # zero noise, two clusters, B = 2: phase 1 (12 rounds) explores, and
        # every later round exploits an item of the user's refined active set
        g = np.random.default_rng(11)
        factors = np.stack([g.uniform(0, 1, 30), g.uniform(3, 4, 30)], axis=1)
        inst = Instance(20, 30, 18, 2, 2, np.arange(20) % 2,
                        factors[:, np.arange(20) % 2].T,
                        NoiseModel("gaussian", 0.0))
        sim = Simulation(inst, 11)
        cfg = PracticalConfig()
        report = run_practical(sim, cfg, stream(11, "d"))
        assert len(report) == 1
        active_of = {int(u): set(active.tolist())
                     for users, active in report[0].groups for u in users}
        first_len = cfg.phase_length_base + cfg.phase_length_slope
        explore_value, exploit_value = [], []
        for e in sim.events:
            if e.round <= first_len:
                assert e.purpose == "explore"
                explore_value.append(inst.rewards[e.user, e.item])
            else:
                assert e.purpose == "exploit"
                assert e.item in active_of[e.user]
                exploit_value.append(inst.rewards[e.user, e.item])
        assert len(exploit_value) == 20 * (18 - first_len)
        # every pick is consumable, so no pair has a stored observation
        assert not any(sim.has_stored(e.user, e.item) for e in sim.events)
        assert sim.finished()
        assert sim.ledger.max_pair_count() <= 2
        assert np.mean(exploit_value) > np.mean(explore_value)

    def test_protocol_budget_and_pruning(self):
        inst = generate_instance(
            GeneratorSpec(name="d3", n_users=20, n_items=24, n_clusters=2,
                          horizon=20, budget=1), seed=4)
        trace, sim = run_algorithm(inst, "practical", 4)
        assert sim.finished()
        assert sim.ledger.max_pair_count() <= 1
        assert trace.cumulative_regret.shape == (20,)
        # every phase gives each user one round per round, so the phases
        # alone reach T and nothing is left to fill
        assert not [e for e in sim.events if e.purpose == "fill"]

    def test_active_fallback_when_starved(self):
        # aggressive pruning cannot starve users: the fallback recommends
        # any unblocked item
        inst = generate_instance(
            GeneratorSpec(name="d2", n_users=6, n_items=8, n_clusters=2,
                          horizon=8, budget=1), seed=5)
        sim = Simulation(inst, 5)
        run_practical(sim, PracticalConfig(phase_length_base=1,
                                           phase_length_slope=1,
                                           gap_divisor=1e9), stream(5, "d"))
        assert sim.finished()


class TestKMeans:
    def test_objective_non_increasing_and_restarts_pick_best(self):
        g = np.random.default_rng(6)
        pts = np.vstack([g.normal(0, 0.2, (20, 3)),
                         g.normal(3, 0.2, (15, 3))])
        _, sse_multi = kmeans(pts, 2, stream(6, "k"), restarts=5)
        _, sse_single = kmeans(pts, 2, stream(6, "k"), restarts=1)
        assert sse_multi <= sse_single + 1e-12

    @given(st.integers(2, 30), st.integers(1, 4), st.integers(1, 5),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_lloyd_objective_never_increases(self, n, dim, k, seed):
        # one restart from the same stream starts every run at the same
        # centres, so the SSE at iters = 1..7 is Lloyd's objective trace
        pts = np.random.default_rng(seed).normal(0, 1, (n, dim))
        pts = np.round(pts, 1)  # repeated points and tied distances
        sses = [kmeans(pts, k, stream(seed, "k"), restarts=1, iters=i)[1]
                for i in range(1, 8)]
        for before, after in zip(sses, sses[1:]):
            assert after <= before + 1e-9 * max(1.0, before)

    def test_elbow_prefers_true_k(self):
        g = np.random.default_rng(7)
        pts = np.vstack([g.normal(0, 0.05, (12, 4)),
                         g.normal(2, 0.05, (12, 4))])
        k, labels = pick_k_elbow(pts, 4, stream(7, "k"))
        assert k == 2
        assert len(np.unique(labels)) == 2

    def test_elbow_single_blob(self):
        # in moderate dimension a split of pure noise explains little
        # variance, so the elbow stays at small k
        g = np.random.default_rng(8)
        pts = g.normal(0, 1.0, (24, 20))
        k, _ = pick_k_elbow(pts, 4, stream(8, "k"))
        assert k <= 2


def reference_collab_greedy(sim, cfg, rng):
    """``run_collab_greedy`` with the float64 round body it had before its
    statistics moved to float32 indicator state: every round rebuilds
    ``rated``, ``signs`` and ``has`` and compares the agreement quotient
    with 0.5.  Kept verbatim as the reference of the equivalence test."""
    inst = sim.instance
    n_u, n_i = inst.n_users, inst.n_items
    horizon = inst.horizon
    rating_sum = np.zeros((n_u, n_i))
    joint_sequence = rng.permutation(n_i)
    joint_ptr = 0
    users = np.arange(n_u)
    for t in range(1, horizon + 1):
        p_rand, p_joint = explore_probabilities(t, cfg)
        joint_item = int(joint_sequence[joint_ptr % n_i])
        joint_ptr += 1
        # neighborhood like-rates from everything rated before this round
        rated = sim.ledger.counts > 0
        signs = np.sign(rating_sum)
        has = rated & (signs != 0)
        co = has.astype(np.float64) @ has.T.astype(np.float64)
        agree = (co + signs @ signs.T) / 2.0
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(co > 0, agree / np.maximum(co, 1), 0.0)
        np.fill_diagonal(frac, 1.0)
        neighbors = frac >= 0.5
        likes = neighbors.astype(np.float64) @ ((signs > 0) & rated)
        pulls = neighbors.astype(np.float64) @ rated
        with np.errstate(invalid="ignore", divide="ignore"):
            like_rate = np.where(pulls > 0, likes / np.maximum(pulls, 1),
                                 -np.inf)
        # every user's pick under each branch; users are distinct within a
        # round, so the round's own picks do not change these
        free = sim.ledger.counts < inst.budget
        scores = np.where(free, like_rate, -np.inf)
        picks = scores.argmax(axis=1)
        greedy_ok = np.isfinite(scores).any(axis=1).tolist()
        joint_ok = free[:, joint_item].tolist()
        sizes = free.sum(axis=1).tolist()
        kth = np.full(n_u, -1)  # the k-th free item, for uniform picks
        for user in range(n_u):
            draw = rng.random()
            joint = p_rand <= draw < p_rand + p_joint
            if joint and joint_ok[user]:
                picks[user] = joint_item
            elif draw < p_rand or joint or not greedy_ok[user]:
                kth[user] = rng.integers(sizes[user])
        uniform = kth >= 0
        picks[uniform] = _kth_free(free[uniform], kth[uniform])
        values, _ = sim.recommend_many(users, picks, "greedy")
        rating_sum[users, picks] += values


class TestCollabGreedy:
    def test_exploration_probability_schedule(self):
        cfg = CollabGreedyConfig(theta=0.5, alpha=0.5)
        assert explore_probabilities(1, cfg) == (1.0, 1.0)
        assert explore_probabilities(4, cfg)[0] == pytest.approx(0.5)

    def test_requires_sign_feedback(self):
        inst = generate_instance(
            GeneratorSpec(name="d2", n_users=4, n_items=6, n_clusters=2,
                          horizon=4, budget=1), seed=9)
        sim = Simulation(inst, 9)
        with pytest.raises(ConfigurationError):
            run_collab_greedy(sim, CollabGreedyConfig(), stream(9, "d"))

    def test_all_likeable_round_reward(self):
        # every item has mean observation 0.9; sanity over 30 seeds
        rewards = np.full((6, 30), 0.95)
        vals = []
        for seed in range(30):
            inst = Instance(6, 30, 24, 1, 1, np.zeros(6, dtype=int), rewards,
                            NoiseModel("sign"))
            trace, _ = run_algorithm(inst, "collab-greedy", seed)
            vals.append(trace.roundwise_mean_reward[20:].mean())
        assert np.mean(vals) >= 0.8

    @staticmethod
    def assert_matches_reference(inst, seed, cfg):
        """The policy and the float64 reference make the same events and
        leave their decision streams in the same state."""
        runs = []
        for policy in (run_collab_greedy, reference_collab_greedy):
            sim = Simulation(inst, seed)
            rng = stream(seed, "decisions:collab-greedy")
            policy(sim, cfg, rng)
            runs.append((sim, rng))
        (new, new_rng), (old, old_rng) = runs
        n = old.n_events
        assert new.n_events == n
        np.testing.assert_array_equal(new.event_item[:n], old.event_item[:n])
        np.testing.assert_array_equal(new.event_reward[:n],
                                      old.event_reward[:n])
        np.testing.assert_array_equal(new.rounds_done, old.rounds_done)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(2, 30), n=st.integers(2, 30),
           budget=st.integers(1, 3), horizon=st.integers(1, 40),
           clusters=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
           theta=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
           alpha=st.sampled_from([0.25, 0.5, 1.0, 3.0]))
    # a user whose only ratings cancel (+1 then -1 on one item, B = 3) has
    # no co-rated item with anyone, itself included: only the diagonal
    # keeps its own ratings in its like-rates
    @example(m=6, n=4, budget=3, horizon=6, clusters=2, seed=0, theta=3.0,
             alpha=3.0)
    def test_matches_float64_reference(self, m, n, budget, horizon, clusters,
                                       seed, theta, alpha):
        inst = generate_instance(
            GeneratorSpec(name="d3", n_users=m, n_items=n,
                          n_clusters=min(clusters, m),
                          horizon=min(horizon, n * budget), budget=budget),
            seed)
        self.assert_matches_reference(inst, seed,
                                      CollabGreedyConfig(theta, alpha))

    def test_rewinds_for_a_greedy_user_with_nothing_to_score(self,
                                                              monkeypatch):
        # two users on 40 items at B = 1: until they co-rate an item and
        # agree on it, neither is the other's neighbour, and a user's own
        # rated items are blocked, so a greedy draw finds nothing to score
        # and the round is drawn again from the same generator state
        inst = Instance(2, 40, 20, 1, 1, np.zeros(2, dtype=int),
                        np.full((2, 40), 0.5), NoiseModel("sign"))
        starts = []
        draw = baselines._draw_branches

        def spy(rng, *args):
            starts.append(rng.bit_generator.state)
            return draw(rng, *args)

        monkeypatch.setattr(baselines, "_draw_branches", spy)
        self.assert_matches_reference(inst, 0, CollabGreedyConfig())
        restores = sum(a == b for a, b in zip(starts, starts[1:]))
        assert restores >= 1
        assert len(starts) == inst.horizon + restores

    def test_rebuilds_co_rating_when_a_rating_sum_returns_to_zero(
            self, monkeypatch):
        # B = 2: a +1 and a -1 on one pair take its rating sum back to 0,
        # and its user may then co-rate no item with a user it did; on
        # this instance and seed, keeping the stale co-rating flag changes
        # a later pick
        inst = Instance(4, 3, 5, 2, 1, np.zeros(4, dtype=int),
                        np.full((4, 3), 0.5), NoiseModel("sign"))
        rebuilds = []
        co_rating = baselines._co_rating

        def spy(signed_by):
            rebuilds.append(1)
            return co_rating(signed_by)

        monkeypatch.setattr(baselines, "_co_rating", spy)
        self.assert_matches_reference(inst, 3, CollabGreedyConfig())
        assert rebuilds

    @pytest.mark.slow
    def test_matches_reference_past_float16_range(self):
        # 2600 users who like every item 95% of the time: by round 5 most
        # users are neighbours and the like and pull counts pass 2^11, above
        # which float16 rounds odd integers and reorders near-equal rates
        m, n = 2600, 4
        inst = Instance(m, n, 8, 3, 1, np.zeros(m, dtype=int),
                        np.full((m, n), 0.95), NoiseModel("sign"))
        self.assert_matches_reference(inst, 0, CollabGreedyConfig(3.0, 0.3))

    def test_burns_budget_correctly(self):
        inst = generate_instance(
            GeneratorSpec(name="d3", n_users=10, n_items=14, n_clusters=2,
                          horizon=12, budget=1), seed=10)
        _, sim = run_algorithm(inst, "collab-greedy", 10)
        assert sim.ledger.max_pair_count() <= 1
        assert sim.finished()


def scalar_branches(rng, p_rand, p_joint, joint_ok, sizes, greedy_ok):
    """``_draw_branches`` as it was before it decoded a block of raw words:
    one ``rng.random()`` per user and one ``rng.integers(size)`` per uniform
    pick, user by user."""
    branch = []
    for user, size in enumerate(sizes):
        draw = rng.random()
        joint = p_rand <= draw < p_rand + p_joint
        if joint and joint_ok[user]:
            branch.append(baselines._JOINT)
        elif draw < p_rand or joint or not greedy_ok[user]:
            branch.append(int(rng.integers(size)))
        else:
            branch.append(baselines._GREEDY)
    return np.array(branch)


class TestDrawBranches:
    """The block decoder gives the branches, and leaves the whole
    ``bit_generator.state`` (buffered 32-bit half included), of the scalar
    calls."""

    @staticmethod
    def draw_both(seed, lead, *args):
        """(branches, generator) of the decoder and of the scalar calls,
        each on a generator that first made ``lead`` draws of
        ``integers(5)``; an odd ``lead`` leaves a buffered half."""
        runs = []
        for draw in (baselines._draw_branches, scalar_branches):
            rng = np.random.default_rng(seed)
            for _ in range(lead):
                rng.integers(5)
            runs.append((draw(rng, *args).tolist(), rng))
        return runs

    def assert_matches_scalar(self, seed, lead, *args):
        (got, rng), (expected, scalar_rng) = self.draw_both(seed, lead, *args)
        assert got == expected
        assert rng.bit_generator.state == scalar_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), lead=st.integers(0, 3),
           p_rand=st.floats(0, 1), p_joint=st.floats(0, 1),
           users=st.lists(st.tuples(
               st.booleans(), st.booleans(),
               st.integers(1, 300) | st.integers(2 ** 31 - 3, 2 ** 31 + 3)),
               min_size=1, max_size=40))
    def test_matches_scalar_calls(self, seed, lead, p_rand, p_joint, users):
        joint_ok, greedy_ok, sizes = (list(col) for col in zip(*users))
        self.assert_matches_scalar(seed, lead, p_rand, p_joint, joint_ok,
                                   sizes, greedy_ok)

    def test_buffered_half_on_entry(self):
        rng = np.random.default_rng(3)
        rng.integers(5)
        assert rng.bit_generator.state["has_uint32"] == 1
        # every user uniform: the first pick takes the buffered half
        self.assert_matches_scalar(3, 1, 1.0, 0.0, [True] * 9,
                                   list(range(2, 11)), [True] * 9)

    def test_size_one_draws_nothing(self):
        (got, rng), _ = self.draw_both(5, 1, 1.0, 0.0, [True] * 6, [1] * 6,
                                       [True] * 6)
        assert got == [0] * 6
        # one word per user for its branch, and the buffered half kept
        expected = np.random.default_rng(5)
        expected.integers(5)
        expected.bit_generator.random_raw(6)
        assert rng.bit_generator.state == expected.bit_generator.state
        self.assert_matches_scalar(5, 1, 1.0, 0.0, [True] * 6, [1] * 6,
                                   [True] * 6)

    def test_rejections_past_the_block(self):
        # at size 2^31 + 1 about half the halves are rejected; 30 uniform
        # users take more words than the block of 30 + 15 the decoder
        # fetches first
        n, size = 30, 2 ** 31 + 1
        args = (1.0, 0.0, [True] * n, [size] * n, [True] * n)
        self.assert_matches_scalar(0, 0, *args)
        (_, rng), _ = self.draw_both(0, 0, *args)
        end = rng.bit_generator.state["state"]
        used = [k for k in range(4 * n) if np.random.default_rng(
            0).bit_generator.advance(k).state["state"] == end]
        assert used and used[0] > n + (n + 1) // 2


class TestKthFree:
    @given(n_rows=st.integers(1, 12), n_cols=st.integers(1, 12),
           budget=st.integers(1, 2), one_free=st.floats(0, 1),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=200, deadline=None)
    def test_matches_cumsum_reference(self, n_rows, n_cols, budget,
                                      one_free, seed):
        # rows of a B = 1 or B = 2 ledger with at least one free item; a
        # share of the rows has exactly one
        g = np.random.default_rng(seed)
        counts = g.integers(0, budget + 1, size=(n_rows, n_cols))
        only = g.random(n_rows) < one_free
        counts[only] = budget
        counts[np.arange(n_rows), g.integers(0, n_cols, size=n_rows)] = \
            g.integers(0, budget, size=n_rows)
        free = counts < budget
        k = g.integers(0, free.sum(axis=1))
        expected = (np.cumsum(free, axis=1) > k[:, None]).argmax(axis=1)
        np.testing.assert_array_equal(_kth_free(free, k), expected)


class TestOracleAndRandom:
    @pytest.mark.parametrize("name,seed", [("d1", 0), ("d2", 5), ("d3", 9)])
    def test_oracle_zero_regret(self, name, seed):
        inst = generate_instance(
            GeneratorSpec(name=name, n_users=10, n_items=14, n_clusters=2,
                          horizon=8, budget=2), seed=seed)
        trace, _ = run_algorithm(inst, "oracle", seed)
        assert trace.final_regret == pytest.approx(0.0, abs=1e-12)

    def test_random_zero_regret_on_constant_rewards(self):
        rewards = np.full((5, 9), 1.25)
        inst = Instance(5, 9, 6, 1, 1, np.zeros(5, dtype=int), rewards,
                        NoiseModel("gaussian", 0.1))
        trace, _ = run_algorithm(inst, "random", 0)
        assert trace.final_regret == pytest.approx(0.0, abs=1e-12)

    def test_random_expected_regret_enumeration(self):
        # 1 user, 3 items, T=2, B=1, means (3, 2, 1): the 6 equally likely
        # ordered pairs give regrets (0, 1, 0, 2, 1, 2) -> mean exactly 1
        pairs = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        means = np.array([3.0, 2.0, 1.0])
        oracle = 3.0 + 2.0
        enumerated = np.mean([oracle - means[a] - means[b] for a, b in pairs])
        assert enumerated == pytest.approx(1.0)

        rewards = means[None, :]
        inst = Instance(1, 3, 2, 1, 1, np.zeros(1, dtype=int), rewards,
                        NoiseModel("gaussian", 0.0))
        sample = []
        for seed in range(3000):
            trace, _ = run_algorithm(inst, "random", seed)
            sample.append(trace.final_regret)
        # sd of one draw is sqrt(10/6 - 1) ~ 0.816 -> 4 sigma ~ 0.06
        assert abs(np.mean(sample) - enumerated) < 0.06
