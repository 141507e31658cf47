from collections import Counter

import numpy as np
import pytest

from blockedbandits.env import Simulation
from blockedbandits.harness import run_algorithm
from blockedbandits.item_phased import _closure, run_item_phased
from blockedbandits.phased import PhasedConfig, similarity_components
from blockedbandits.rng import stream

from conftest import golden_threshold, item_cluster_instance, true_partition


class TestItemGraph:
    def test_distinct_columns_are_singletons(self):
        # every item its own cluster: no edges at a tight threshold
        est = np.tile(np.arange(6.0), (4, 1))
        comps = similarity_components(est.T, threshold=0.5)
        assert [c.tolist() for c in comps] == [[j] for j in range(6)]

    def test_true_item_clusters_recovered_from_exact_estimate(self):
        inst = item_cluster_instance(0, n_item_clusters=3)
        group = np.flatnonzero(inst.cluster_of == 0)
        comps = similarity_components(inst.rewards[group].T, threshold=1e-6)
        # one component per true item cluster, holding exactly its items
        got = {frozenset(c.tolist()) for c in comps}
        want = {frozenset(np.flatnonzero(inst.item_cluster_of == k).tolist())
                for k in np.unique(inst.item_cluster_of)}
        assert got == want

    def test_closure_extends_to_whole_components(self):
        active = np.array([2, 3, 4, 5, 6])
        # components over positions in active
        comps = [np.array([1, 4]), np.array([0, 2]), np.array([3])]
        assert _closure(active, comps, np.array([3])).tolist() == [3, 6]
        # several components come back in active order
        assert _closure(active, comps, np.array([6, 2])).tolist() == [2, 3, 4, 6]
        # seeds outside active are returned as they are
        assert _closure(active, comps, np.array([9])).tolist() == [9]

    def test_closure_zero_noise_stays_within_touched_clusters(self):
        inst = item_cluster_instance(1, n_item_clusters=4)
        group = np.flatnonzero(inst.cluster_of == 1)
        active = np.arange(inst.n_items)
        comps = similarity_components(inst.rewards[group].T, threshold=1e-6)
        seed_items = np.flatnonzero(inst.item_cluster_of == 2)[:3]
        expanded = _closure(active, comps, seed_items)
        assert set(inst.item_cluster_of[expanded]) == {2}


class TestRunItemPhased:
    def test_requires_reusable_ledger(self):
        inst = item_cluster_instance(2)
        sim = Simulation(inst, 2, reusable_ledger=False)
        cfg = PhasedConfig()
        with pytest.raises(ValueError):
            run_item_phased(sim, cfg, stream(2, "d"))

    def test_user_cluster_recovery_two_by_two(self):
        inst = item_cluster_instance(3)
        sim = Simulation(inst, 3, reusable_ledger=True)
        cfg = PhasedConfig(mu_bound=1.5)
        report = run_item_phased(sim, cfg, stream(3, "decisions:item-phased"))
        got = {frozenset(c.tolist()) for c in report.components_at_level(1)}
        assert got == true_partition(inst)

    def test_no_pair_recommended_twice(self):
        for seed in (4, 5):
            inst = item_cluster_instance(seed, n_item_clusters=4)
            _, sim = run_algorithm(inst, "item-phased", seed,
                                   {"mu_bound": 1.5})
            pairs = Counter((e.user, e.item) for e in sim.events)
            assert max(pairs.values()) == 1
            assert sim.finished()

    def test_active_sets_are_unions_of_item_clusters(self):
        inst = item_cluster_instance(6)
        sim = Simulation(inst, 6, reusable_ledger=True)
        cfg = PhasedConfig(mu_bound=1.5)
        report = run_item_phased(sim, cfg, stream(6, "decisions:item-phased"))
        deeper = [r for r in report.records if r.level >= 2]
        assert deeper
        for rec in deeper:
            touched = set(inst.item_cluster_of[rec.active_before])
            members = np.isin(inst.item_cluster_of, list(touched))
            assert set(rec.active_before.tolist()) == \
                set(np.flatnonzero(members).tolist())

    def test_exploit_recommends_golden_items(self):
        inst = item_cluster_instance(7, n_item_clusters=8, standout=True)
        _, sim = run_algorithm(inst, "item-phased", 7, {"mu_bound": 1.5})
        exploit = [e for e in sim.events if e.purpose == "exploit"]
        assert exploit, "exploit component never fired"
        thresh = golden_threshold(inst)
        assert all(inst.rewards[e.user, e.item] >= thresh[e.user] - 1e-9
                   for e in exploit)

    def test_observations_feed_multiple_estimates(self):
        # the reusable ledger is the point of the variant: at least one
        # observation should be consumed by more than one estimation call
        inst = item_cluster_instance(8, n_item_clusters=4, horizon=48)
        _, sim = run_algorithm(inst, "item-phased", 8, {"mu_bound": 1.5})
        assert any(len(e.consumers) > 1 for e in sim.events)
