import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockedbandits.env import (
    Batch,
    BlockingLedger,
    BudgetError,
    ConfigurationError,
    GeneratorSpec,
    Instance,
    NoiseModel,
    ProtocolError,
    Simulation,
    generate_instance,
    instance_from_json,
    instance_to_json,
    mean_reward_matrix,
)
from blockedbandits.harness import ALGORITHMS, run_algorithm
from blockedbandits.rng import stream

from conftest import reference_recommend, reference_reuse, sim_state


class TestGenerator:
    def test_d1_canonical_shape(self):
        inst = generate_instance(GeneratorSpec(name="d1"), seed=0)
        assert inst.rewards.shape == (150, 150)
        assert inst.horizon == 60 and inst.n_clusters == 4
        sizes = np.bincount(inst.cluster_of)
        assert (sizes == 150 // 4 + (np.arange(4) < 150 % 4)).all()
        assert inst.noise == NoiseModel("gaussian", 0.5)

    def test_single_cluster_rows_identical(self):
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=9, n_items=7, n_clusters=1,
                          horizon=5, budget=1), seed=3)
        assert np.ptp(inst.rewards, axis=0).max() == 0.0

    def test_deterministic_in_seed(self):
        spec = GeneratorSpec(name="d2", n_users=20, n_items=25, n_clusters=4,
                             horizon=10, budget=1)
        a = generate_instance(spec, seed=42)
        b = generate_instance(spec, seed=42)
        assert np.array_equal(a.rewards, b.rewards)
        c = generate_instance(spec, seed=43)
        assert not np.array_equal(a.rewards, c.rewards)

    @pytest.mark.parametrize("name", ["d1", "d2", "d3"])
    def test_rank_at_most_c(self, name):
        spec = GeneratorSpec(name=name, n_users=40, n_items=50, n_clusters=4,
                             horizon=20, budget=1)
        inst = generate_instance(spec, seed=5)
        svals = np.linalg.svd(inst.rewards, compute_uv=False)
        assert (svals[inst.n_clusters:] < 1e-8 * np.abs(inst.rewards).max()).all()

    def test_d3_entries_form_probability_grid(self):
        inst = generate_instance(
            GeneratorSpec(name="d3", n_users=20, n_items=30, n_clusters=2,
                          horizon=10, budget=1), seed=1)
        grid = np.linspace(0.05, 0.95, 10)
        assert np.isin(np.round(inst.rewards, 10), np.round(grid, 10)).all()

    def test_infeasible_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_instance(GeneratorSpec(name="custom", n_users=3,
                                            n_items=5, n_clusters=7,
                                            horizon=3, budget=1), 0)
        with pytest.raises(ConfigurationError):
            generate_instance(GeneratorSpec(name="custom", n_users=3,
                                            n_items=4, n_clusters=2,
                                            horizon=9, budget=2), 0)

    @pytest.mark.parametrize("kwargs,match", [
        ({"name": "d4"}, "unknown dataset"),
        ({"name": "custom", "v_law": "cauchy"}, "unknown item-factor law")])
    def test_unknown_name_or_law_rejected_at_construction(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            GeneratorSpec(**kwargs)

    @pytest.mark.parametrize("name,kwargs", [
        ("d3", {"noise": NoiseModel("gaussian", 0.5)}),
        ("d3", {"noise": NoiseModel("sign")}),
        ("d1", {"v_law": "uniform"}),
        ("d1", {"v_law": "normal", "v_scale": 5.0}),
        ("d2", {"v_scale": 2.0})])
    def test_canonical_dataset_rejects_its_fixed_fields(self, name, kwargs):
        with pytest.raises(ConfigurationError, match="fixes"):
            GeneratorSpec(name=name, **kwargs)

    @pytest.mark.parametrize("name,law,scale,noise", [
        ("d1", "normal", 5.0, NoiseModel("gaussian", 0.5)),
        ("d2", "uniform", 5.0, NoiseModel("gaussian", 0.5)),
        ("d3", "grid", 1.0, NoiseModel("sign")),
        ("custom", "uniform", 5.0, NoiseModel("gaussian", 0.5))])
    def test_resolved_fills_unset_fields(self, name, law, scale, noise):
        spec = GeneratorSpec(name=name, n_users=8, n_items=9, horizon=4)
        assert (spec.v_law, spec.v_scale, spec.noise) == (None, None, None)
        full = spec.resolved()
        assert (full.name, full.v_law, full.v_scale, full.noise) == \
            (name, law, scale, noise)
        assert full.resolved() == full

    def test_custom_keeps_its_fields(self):
        spec = GeneratorSpec(name="custom", v_law="grid", v_scale=2.0,
                             noise=NoiseModel("sign")).resolved()
        assert (spec.v_law, spec.v_scale, spec.noise) == \
            ("grid", 2.0, NoiseModel("sign"))

    @pytest.mark.parametrize("laws,ok", [
        ({}, False),  # the custom default, uniform(0, 5)
        ({"v_law": "uniform", "v_scale": 1.5}, False),
        ({"v_law": "normal", "v_scale": 0.5}, False),
        ({"v_scale": 1.0}, True),
        ({"v_law": "uniform", "v_scale": 0.5}, True),
        ({"v_law": "grid", "v_scale": 5.0}, True)])
    def test_sign_noise_needs_rewards_in_unit_interval(self, laws, ok):
        def spec():
            return GeneratorSpec(name="custom", n_users=6, n_items=8,
                                 n_clusters=2, horizon=4,
                                 noise=NoiseModel("sign"), **laws)

        if ok:
            rewards = generate_instance(spec(), seed=0).rewards
            assert 0 <= rewards.min() and rewards.max() <= 1
        else:
            with pytest.raises(ConfigurationError, match="sign feedback"):
                spec()

    def test_item_cluster_structure(self):
        spec = GeneratorSpec(name="custom", n_users=12, n_items=15,
                             n_clusters=3, horizon=6, budget=1,
                             item_clusters=5)
        inst = generate_instance(spec, seed=2)
        for a in range(3):
            for b in range(5):
                block = inst.rewards[np.ix_(inst.cluster_of == a,
                                            inst.item_cluster_of == b)]
                assert np.ptp(block) == 0.0


class TestRewardCeiling:
    def test_replaced_instance_gets_a_fresh_ceiling(self):
        inst = generate_instance(GeneratorSpec(
            name="d1", n_users=6, n_items=6, n_clusters=2, horizon=4), 0)
        scaled = dataclasses.replace(inst, rewards=10 * inst.rewards)
        assert scaled.reward_ceiling == float(np.abs(scaled.rewards).max())
        assert scaled.reward_ceiling == pytest.approx(10 * inst.reward_ceiling)

    def test_sign_ceiling_is_of_the_observed_mean(self):
        rewards = np.array([[0.5, 0.6, 0.1]])
        inst = Instance(1, 3, 2, 1, 1, np.zeros(1, dtype=int), rewards,
                        NoiseModel("sign"))
        assert inst.reward_ceiling == pytest.approx(0.8)

    def test_ceiling_is_not_an_argument(self, tiny_gaussian_instance):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(tiny_gaussian_instance, reward_ceiling=1.0)
        with pytest.raises(TypeError):
            Instance(1, 2, 2, 1, 1, np.zeros(1, dtype=int), np.ones((1, 2)),
                     NoiseModel("gaussian", 0.1), reward_ceiling=1.0)


class TestRewards:
    def test_zero_noise_returns_mean(self):
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=4, n_items=6, n_clusters=2,
                          horizon=3, budget=1,
                          noise=NoiseModel("gaussian", 0.0)), seed=0)
        sim = Simulation(inst, 0)
        for u, j in [(0, 0), (3, 5), (2, 1)]:
            assert sim.recommend(u, j, "x")[0] == inst.rewards[u, j]

    def test_sign_degenerate_probability_one(self):
        inst = Instance(2, 50, 50, 1, 1, np.zeros(2, dtype=int),
                        np.ones((2, 50)), NoiseModel("sign"))
        for seed in range(3):
            sim = Simulation(inst, seed)
            assert all(sim.recommend(0, j, "x")[0] == 1.0 for j in range(50))

    def test_gaussian_monte_carlo_mean(self):
        # stderr = 0.5 / sqrt(1e5) ~ 0.00158, so 0.01 is a > 6-sigma bound
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=2, n_items=2, n_clusters=1,
                          horizon=2, budget=1,
                          noise=NoiseModel("gaussian", 0.5)), seed=7)
        rng = stream(7, "mc")
        draws = inst.rewards[1, 1] + rng.normal(0, 0.5, size=100_000)
        assert abs(draws.mean() - inst.rewards[1, 1]) < 0.01

    def test_mean_matrix_gaussian_identity(self, tiny_gaussian_instance):
        assert mean_reward_matrix(tiny_gaussian_instance) is \
            tiny_gaussian_instance.rewards

    def test_mean_matrix_sign_affine(self):
        rewards = np.array([[0.5, 0.95, 0.0, 1.0]])
        inst = Instance(1, 4, 2, 1, 1, np.zeros(1, dtype=int), rewards,
                        NoiseModel("sign"))
        np.testing.assert_allclose(mean_reward_matrix(inst),
                                   [[0.0, 0.9, -1.0, 1.0]])

    def test_noise_table_policy_independent(self):
        # two policies at the same seed observe the same value at (u, t)
        inst = generate_instance(
            GeneratorSpec(name="d2", n_users=5, n_items=8, n_clusters=2,
                          horizon=4, budget=1), seed=9)
        sim1 = Simulation(inst, 9)
        sim2 = Simulation(inst, 9)
        sim1.recommend(0, 3, "x")
        sim2.recommend(0, 5, "y")  # different item, same user/round
        noise1 = sim1.events[0].reward - inst.rewards[0, 3]
        noise2 = sim2.events[0].reward - inst.rewards[0, 5]
        assert noise1 == pytest.approx(noise2)


class TestLedger:
    def test_budget_one_second_recommendation_errors(self):
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=2, n_items=5, n_clusters=1,
                          horizon=5, budget=1), seed=0)
        sim = Simulation(inst, 0)
        sim.recommend(0, 2, "x")
        with pytest.raises(BudgetError):
            sim.recommend(0, 2, "x")

    def test_budget_three_counts(self):
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=1, n_items=4, n_clusters=1,
                          horizon=12, budget=3), seed=0)
        sim = Simulation(inst, 0)
        for _ in range(3):
            sim.recommend(0, 1, "x")
        with pytest.raises(BudgetError):
            sim.recommend(0, 1, "x")

    def test_each_recommendation_adds_one(self):
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=2, n_items=4, n_clusters=1,
                          horizon=8, budget=2), seed=0)
        sim = Simulation(inst, 0)
        before = sim.ledger.counts[1, 2]
        sim.recommend(1, 2, "x", consumable=True)
        assert sim.ledger.counts[1, 2] == before + 1
        sim.recommend(1, 2, "y", consumable=False)
        assert sim.ledger.counts[1, 2] == before + 2

    def test_reuse_moves_stored_to_consumed(self):
        # two stored observations of a pair around a consumed one: a strict
        # ledger returns each stored one once, newest first, and never the
        # consumed one
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=1, n_items=4, n_clusters=1,
                          horizon=8, budget=3), seed=0)
        sim = Simulation(inst, 0)
        first = sim.recommend(0, 1, "filler", consumable=False)
        sim.recommend(0, 1, "explore", consumable=True)
        second = sim.recommend(0, 1, "filler", consumable=False)
        assert sim.has_stored(0, 1)
        assert sim.reuse_observation(0, 1) == second
        assert sim.reuse_observation(0, 1) == first
        assert not sim.has_stored(0, 1)
        with pytest.raises(KeyError):
            sim.reuse_observation(0, 1)
        assert sim.ledger.counts[0, 1] == 3  # reuse uses no budget
        assert sim.rounds_done.tolist() == [3]  # nor a round
        assert sim.reuse_log == [(3, 0, 1, second[1]), (3, 0, 1, first[1])]

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                    max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_counts_never_exceed_budget(self, ops):
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=3, n_items=4, n_clusters=1,
                          horizon=8, budget=2), seed=0)
        sim = Simulation(inst, 0)
        for user, item in ops:
            try:
                sim.recommend(user, item, "x")
            except BudgetError:
                pass
            except Exception:
                break  # horizon exhausted for that user
            assert sim.ledger.max_pair_count() <= inst.budget

    @given(data=st.data(), budget=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_record_many_matches_pair_loop(self, data, budget):
        # a per-pair loop model: each pair in batch order counts one, and a
        # batch that passes the budget names the lowest-index pair of those
        # reaching the highest count and counts nothing
        n_users, n_items = 3, 4
        ledger = BlockingLedger(n_users, n_items, budget)
        model = np.zeros((n_users, n_items), dtype=np.int64)
        for _ in range(data.draw(st.integers(1, 4))):
            pairs = data.draw(st.lists(
                st.tuples(st.integers(0, n_users - 1),
                          st.integers(0, n_items - 1)), min_size=1,
                max_size=12))
            after = model.copy()
            for user, item in pairs:
                after[user, item] += 1
            users, items = (np.array(col) for col in zip(*pairs))
            if after.max() > budget:
                top = after.max()
                user, item = min(pair for pair in pairs
                                 if after[pair] == top)
                with pytest.raises(BudgetError,
                                   match=f"user {user}, item {item}$"):
                    ledger.record_many(users, items)
            else:
                ledger.record_many(users, items)
                model = after
            np.testing.assert_array_equal(ledger.counts, model)
        assert ledger.counts.dtype == np.uint32


class TestProtocol:
    def test_every_user_gets_exactly_t_rounds(self, tiny_gaussian_instance):
        trace, sim = run_algorithm(tiny_gaussian_instance, "random", 4)
        assert sim.finished()
        counts = np.bincount([e.user for e in sim.events],
                             minlength=tiny_gaussian_instance.n_users)
        assert (counts == tiny_gaussian_instance.horizon).all()
        assert len(sim.events) == (tiny_gaussian_instance.n_users
                                   * tiny_gaussian_instance.horizon)

    def test_choice_matrix_round_coverage(self, tiny_gaussian_instance):
        _, sim = run_algorithm(tiny_gaussian_instance, "oracle", 4)
        items = sim.choice_matrix()
        assert items.shape == (tiny_gaussian_instance.n_users,
                               tiny_gaussian_instance.horizon)
        assert (items >= 0).all()

    def test_choice_matrix_of_unfinished_run_rejected(self,
                                                      tiny_gaussian_instance):
        sim = Simulation(tiny_gaussian_instance, 0)
        for user in range(tiny_gaussian_instance.n_users):
            for item in range(tiny_gaussian_instance.horizon - (user == 5)):
                sim.recommend(user, item, "x")  # user 5 is one round short
        with pytest.raises(ProtocolError, match="incomplete"):
            sim.choice_matrix()

    def test_recommend_past_horizon_rejected(self, tiny_gaussian_instance):
        sim = Simulation(tiny_gaussian_instance, 0)
        for item in range(tiny_gaussian_instance.horizon):
            sim.recommend(3, item, "x")
        with pytest.raises(ProtocolError, match="already has 8 rounds"):
            sim.recommend(3, 9, "x")
        assert sim.n_events == tiny_gaussian_instance.horizon

    def test_consumers_listed_in_call_order(self, tiny_gaussian_instance):
        sim = Simulation(tiny_gaussian_instance, 0)
        ids = [sim.recommend(0, item, "explore", consumable=True)[1]
               for item in range(3)]
        assert sim.mark_consumed(ids[:2]) == 1
        assert sim.mark_consumed(ids[1:]) == 2
        events = sim.events
        assert [ev.consumers for ev in events] == [[1], [1, 2], [2]]
        assert [(ev.round, ev.user, ev.item, ev.purpose)
                for ev in events] == [(1, 0, 0, "explore"),
                                      (2, 0, 1, "explore"),
                                      (3, 0, 2, "explore")]
        events[0].consumers.append(7)  # the records are a copy of the log
        assert sim.events[0].consumers == [1]


def _loop_allows(sim: Simulation, pairs: list[tuple[int, int]]) -> bool:
    """Whether ``reference_recommend`` on each pair in order would raise
    nothing."""
    counts = sim.ledger.counts.astype(np.int64)
    rounds = sim.rounds_done.copy()
    for user, item in pairs:
        rounds[user] += 1
        counts[user, item] += 1
        if rounds[user] > sim.instance.horizon \
                or counts[user, item] > sim.instance.budget:
            return False
    return True


class TestRecommendMany:
    """A batch is recorded as ``reference_recommend`` on each pair in order
    would record it, and a batch that would fail writes nothing."""

    @given(data=st.data(), name=st.sampled_from(["d2", "d3"]),
           budget=st.integers(1, 3), reusable=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None)
    def test_batch_matches_scalar_loop(self, data, name, budget, reusable,
                                       seed):
        n_users, n_items = 3, 4
        inst = generate_instance(GeneratorSpec(
            name=name, n_users=n_users, n_items=n_items, n_clusters=2,
            horizon=min(6, n_items * budget), budget=budget), seed)
        batch_sim = Simulation(inst, seed, reusable_ledger=reusable)
        loop_sim = Simulation(inst, seed, reusable_ledger=reusable)
        pair = st.tuples(st.integers(0, n_users - 1),
                         st.integers(0, n_items - 1))
        for _ in range(data.draw(st.integers(1, 8))):
            op = data.draw(st.sampled_from(["batch", "scalar", "reuse",
                                            "round"]))
            if op == "reuse":
                user, item = data.draw(pair)
                expected = reference_reuse(loop_sim, user, item)
                if expected is None:
                    assert not batch_sim.has_stored(user, item)
                else:
                    assert batch_sim.reuse_observation(user, item) == expected
                continue
            if op == "round":
                # one pair per user, every user once, as the policies'
                # rounds record them
                order = data.draw(st.permutations(range(n_users)))
                pairs = [(user, data.draw(st.integers(0, n_items - 1)))
                         for user in order]
            else:
                pairs = data.draw(st.lists(
                    pair, min_size=1, max_size=1 if op == "scalar" else 6))
            n = len(pairs)
            # one purpose and one flag for the batch, or one of each per pair
            purpose = data.draw(st.sampled_from(["a", "b"]) if op == "scalar"
                                else st.sampled_from(["a", "b"])
                                | st.lists(st.sampled_from(["a", "b", "c"]),
                                           min_size=n, max_size=n))
            consumable = data.draw(st.booleans() if op == "scalar"
                                   else st.booleans()
                                   | st.lists(st.booleans(), min_size=n,
                                              max_size=n))
            purposes = [purpose] * n if isinstance(purpose, str) else purpose
            flags = consumable if isinstance(consumable, list) \
                else [consumable] * n
            users, items = (list(col) for col in zip(*pairs))
            if not _loop_allows(loop_sim, pairs):
                before = sim_state(batch_sim)
                with pytest.raises((BudgetError, ProtocolError)):
                    batch_sim.recommend_many(users, items, purpose, consumable)
                assert sim_state(batch_sim) == before
                continue
            expected = [reference_recommend(loop_sim, u, j, name, flag)
                        for (u, j), name, flag in zip(pairs, purposes, flags)]
            if op == "scalar":
                got = [batch_sim.recommend(users[0], items[0], purpose,
                                           consumable)]
            else:
                values, event_ids = batch_sim.recommend_many(
                    users, items, purpose, consumable)
                got = list(zip(values.tolist(), event_ids.tolist()))
            assert got == expected
            assert sim_state(batch_sim) == sim_state(loop_sim)
        assert sim_state(batch_sim) == sim_state(loop_sim)

    def test_batch_stores_only_non_consumable_entries(self):
        # one pair twice in a batch, consumed first and stored second; the
        # purposes get codes in the order the batch first uses them
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=2, n_items=3, n_clusters=1,
                          horizon=4, budget=2), seed=0)
        batch_sim, loop_sim = Simulation(inst, 0), Simulation(inst, 0)
        entries = [(1, 2, "filler", False), (0, 1, "explore", True),
                   (0, 1, "filler", False), (1, 0, "explore", True)]
        for entry in entries:
            reference_recommend(loop_sim, *entry)
        users, items, purposes, flags = zip(*entries)
        batch_sim.recommend_many(users, items, purposes, np.array(flags))
        assert sim_state(batch_sim) == sim_state(loop_sim)
        assert list(batch_sim.purposes.items()) == [("filler", 0),
                                                    ("explore", 1)]
        assert batch_sim.ledger.counts[0, 1] == 2
        # the pair's stored entry is event 2, never the consumed event 1
        assert batch_sim.reuse_observation(0, 1)[1] == 2
        assert not batch_sim.has_stored(0, 1)
        assert batch_sim.reuse_observation(1, 2)[1] == 0
        assert not batch_sim.has_stored(1, 0)

    def test_batch_past_budget_raises_and_writes_nothing(self):
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=2, n_items=3, n_clusters=1,
                          horizon=4, budget=2), seed=0)
        sim = Simulation(inst, 0)
        sim.recommend(0, 1, "x")
        before = sim_state(sim)
        with pytest.raises(BudgetError, match="user 0, item 1"):
            sim.recommend_many([1, 0, 0], [2, 1, 1], "y")
        assert sim_state(sim) == before
        assert sim.n_events == 1
        assert sim.ledger.counts.tolist() == [[0, 1, 0], [0, 0, 0]]
        assert sim.rounds_done.tolist() == [1, 0]

    def test_batch_past_horizon_raises_and_writes_nothing(self):
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=2, n_items=4, n_clusters=1,
                          horizon=3, budget=1), seed=0)
        sim = Simulation(inst, 0)
        sim.recommend(1, 0, "x")
        before = sim_state(sim)
        with pytest.raises(ProtocolError, match="user 1"):
            sim.recommend_many([0, 1, 1, 1], [0, 1, 2, 3], "y")
        assert sim_state(sim) == before
        assert sim.n_events == 1
        assert sim.ledger.counts.tolist() == [[0, 0, 0, 0], [1, 0, 0, 0]]
        assert sim.rounds_done.tolist() == [0, 1]

    def test_flags_of_wrong_length_raise_and_write_nothing(self):
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=2, n_items=4, n_clusters=1,
                          horizon=3, budget=1), seed=0)
        sim = Simulation(inst, 0)
        before = sim_state(sim)
        with pytest.raises(ValueError):
            sim.recommend_many([0, 1], [0, 1], "y", [True, False, True])
        assert sim_state(sim) == before

    def test_purposes_of_wrong_length_raise_and_write_nothing(self):
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=2, n_items=3, n_clusters=1,
                          horizon=3, budget=1), seed=0)
        sim = Simulation(inst, 0)
        before = sim_state(sim)
        with pytest.raises(ValueError):
            sim.recommend_many([0, 1], [0, 1], ["a", "b", "c"])
        assert sim_state(sim) == before

    # a negative index would wrap round to the last user or item
    @pytest.mark.parametrize("user,item", [(-1, 0), (0, -1), (3, 0), (0, 4)])
    def test_pairs_out_of_range_raise_and_write_nothing(self, user, item):
        inst = generate_instance(
            GeneratorSpec(name="custom", n_users=3, n_items=4, n_clusters=1,
                          horizon=3, budget=1), seed=0)
        sim = Simulation(inst, 0)
        sim.recommend(1, 2, "x")
        before = sim_state(sim)
        with pytest.raises((IndexError, ValueError)):
            sim.recommend_many([1, user], [0, item], "y")
        assert sim_state(sim) == before


class TestBatch:
    """A queued entry's ``value`` is the reward its flush records."""

    @given(data=st.data(), name=st.sampled_from(["d2", "d3"]),
           budget=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_value_is_the_recorded_reward(self, data, name, budget, seed):
        n_users, n_items = 3, 4
        inst = generate_instance(GeneratorSpec(
            name=name, n_users=n_users, n_items=n_items, n_clusters=2,
            horizon=min(6, n_items * budget), budget=budget), seed)
        sim = Simulation(inst, seed)
        pair = st.tuples(st.integers(0, n_users - 1),
                         st.integers(0, n_items - 1))
        for user, item in data.draw(st.lists(pair, max_size=6)):
            if _loop_allows(sim, [(user, item)]):
                reference_recommend(sim, user, item, "x")
        pairs = []  # the drawn pairs a batch may still take, in order
        for drawn in data.draw(st.lists(pair, min_size=1, max_size=8)):
            if _loop_allows(sim, pairs + [drawn]):
                pairs.append(drawn)
        batch = Batch(sim)
        events = [batch.add(user, item, "y") for user, item in pairs]
        values = [batch.value(event) for event in events]
        batch.flush()
        assert events == list(range(sim.n_events - len(pairs), sim.n_events))
        assert values == sim.event_reward[events].tolist()

    @pytest.mark.parametrize("name", ["d2", "d3"])
    def test_user_queued_more_than_once(self, name):
        inst = generate_instance(GeneratorSpec(
            name=name, n_users=3, n_items=4, n_clusters=2, horizon=6,
            budget=2), 5)
        sim, loop_sim = Simulation(inst, 5), Simulation(inst, 5)
        entries = [(1, 0), (1, 2), (0, 3), (1, 2), (2, 0), (1, 1)]
        expected = [reference_recommend(loop_sim, user, item, "y")[0]
                    for user, item in entries]
        sim.recommend(1, 0, "y")
        batch = Batch(sim)
        values = [batch.value(batch.add(user, item, "y"))
                  for user, item in entries[1:]]
        batch.flush()
        assert [sim.event_reward[0]] + values == expected
        assert sim.event_round[:6].tolist() == [1, 2, 1, 3, 1, 4]
        assert sim_state(sim) == sim_state(loop_sim)
        batch.add(0, 0, "y")
        with pytest.raises(KeyError, match="already recorded"):
            batch.value(5)


class TestAnyUnblocked:
    def test_preferred_then_lowest_then_budget_error(self):
        inst = generate_instance(GeneratorSpec(
            name="custom", n_users=3, n_items=4, n_clusters=1, horizon=4,
            budget=1), 0)
        sim = Simulation(inst, 0)
        sim.recommend_many([0, 0, 1, 1, 1, 1], [2, 3, 0, 1, 2, 3], "x")
        preferred = np.array([3, 2])
        assert sim.any_unblocked(0, preferred) == 0
        assert sim.any_unblocked(2, preferred) == 3
        assert sim.any_unblocked(np.array([2, 0]), preferred).tolist() == [3, 0]
        assert sim.any_unblocked(2, np.array([], dtype=np.int64)) == 0
        with pytest.raises(BudgetError):
            sim.any_unblocked(1, preferred)
        with pytest.raises(BudgetError):
            sim.any_unblocked(np.array([0, 1]), preferred)


@st.composite
def tiny_d3_spec(draw) -> GeneratorSpec:
    n_users = draw(st.integers(1, 10))
    n_items = draw(st.integers(1, 10))
    budget = draw(st.integers(1, 3))
    return GeneratorSpec(name="d3", n_users=n_users, n_items=n_items,
                         n_clusters=draw(st.integers(1, min(n_users, 3))),
                         horizon=draw(st.integers(1, n_items * budget)),
                         budget=budget)


class TestInvariants:
    """Protocol invariants of every registered algorithm, checked on the
    event columns; d3's sign feedback is what collab-greedy needs."""

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @given(spec=tiny_d3_spec(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_run_keeps_protocol(self, name, spec, seed):
        inst = generate_instance(spec, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # etc's exploration-rate clamp
            trace, sim = run_algorithm(inst, name, seed)
        m, n, horizon = inst.n_users, inst.n_items, inst.horizon
        users = sim.event_user[:sim.n_events]
        items = sim.event_item[:sim.n_events]
        rounds = sim.event_round[:sim.n_events]
        pairs = np.bincount(users * n + items, minlength=m * n)
        assert (pairs.reshape(m, n) == sim.ledger.counts).all()
        assert sim.ledger.max_pair_count() <= inst.budget
        assert sim.n_events == m * horizon
        order = np.lexsort((rounds, users))
        assert (users[order].reshape(m, horizon)
                == np.arange(m)[:, None]).all()
        assert (rounds[order].reshape(m, horizon)
                == np.arange(1, horizon + 1)).all()
        expected = np.full((m, horizon), -1)
        for ev in sim.events:
            expected[ev.user, ev.round - 1] = ev.item
        assert (sim.choice_matrix() == expected).all()
        assert trace.final_regret >= -1e-9


class TestSerialisation:
    def test_instance_round_trip(self, tiny_gaussian_instance):
        text = instance_to_json(tiny_gaussian_instance)
        back = instance_from_json(text)
        assert back.n_users == tiny_gaussian_instance.n_users
        assert back.budget == tiny_gaussian_instance.budget
        assert np.allclose(back.rewards, tiny_gaussian_instance.rewards)
        assert back.noise == tiny_gaussian_instance.noise
        assert np.array_equal(back.cluster_of,
                              tiny_gaussian_instance.cluster_of)

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigurationError):
            instance_from_json('{"M": 2, "N": 3}')
