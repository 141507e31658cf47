"""Shared instance builders and state views for the test suite."""

from __future__ import annotations

import math
import weakref

import numpy as np
import pytest

from blockedbandits.env import (
    BudgetError,
    Instance,
    NoiseModel,
    ProtocolError,
    Simulation,
)


def cluster_gap_instance(seed: int, n_users: int = 60, n_items: int = 60,
                         n_clusters: int = 4, horizon: int = 60,
                         sigma: float = 0.0, n_high: int = 6,
                         budget: int | None = None) -> Instance:
    """Rank-C instance where every item separates every pair of clusters by
    at least 0.5, and a small band of high-value items forms an unambiguous
    golden set for every user."""
    g = np.random.default_rng(seed)
    base = g.uniform(0.0, 1.0, n_items)
    high = np.zeros(n_items)
    high[g.choice(n_items, n_high, replace=False)] = 2.4
    offsets = 0.75 * np.arange(n_clusters)
    factors = (base + high)[:, None] + offsets[None, :] \
        + g.uniform(-0.05, 0.05, (n_items, n_clusters))
    cluster_of = np.arange(n_users) % n_clusters
    rewards = factors[:, cluster_of].T
    if budget is None:
        budget = max(1, math.ceil(math.log2(horizon)))
    return Instance(n_users, n_items, horizon, budget, n_clusters,
                    cluster_of, rewards, NoiseModel("gaussian", sigma))


def item_cluster_instance(seed: int, n_users: int = 60, n_items: int = 60,
                          n_user_clusters: int = 2, n_item_clusters: int = 2,
                          horizon: int = 36, standout: bool = False) -> Instance:
    """Zero-noise instance whose rewards depend only on the (user cluster,
    item cluster) pair.  ``standout`` lifts item cluster 0 far above the rest
    so the exploit component has certified golden items to recommend."""
    g = np.random.default_rng(seed)
    base = g.uniform(0.0, 1.0, n_item_clusters)
    core = base[None, :] + 0.9 * np.arange(n_user_clusters)[:, None] \
        + g.uniform(-0.05, 0.05, (n_user_clusters, n_item_clusters))
    if standout:
        core[:, 0] += 4.0
    cluster_of = np.arange(n_users) % n_user_clusters
    item_cluster_of = np.arange(n_items) % n_item_clusters
    rewards = core[np.ix_(cluster_of, item_cluster_of)]
    return Instance(n_users, n_items, horizon, 1, n_user_clusters, cluster_of,
                    rewards, NoiseModel("gaussian", 0.0),
                    item_cluster_of=item_cluster_of)


def true_partition(inst: Instance) -> set[frozenset]:
    return {frozenset(np.flatnonzero(inst.cluster_of == c).tolist())
            for c in range(inst.n_clusters)}


def golden_threshold(inst: Instance) -> np.ndarray:
    """Per-user reward value of the last golden slot (ties included)."""
    n_golden = math.ceil(inst.horizon / inst.budget)
    return np.sort(inst.rewards, axis=1)[:, ::-1][:, n_golden - 1]


def sim_state(sim: Simulation) -> dict:
    """Everything a recommendation, a reuse or an estimate call may write,
    as plain values; purpose codes in the order they were assigned."""
    n = sim.n_events
    columns = (sim.event_round, sim.event_user, sim.event_item,
               sim.event_purpose, sim.event_reward, sim.event_stored)
    return {"n_events": n, "columns": [col[:n].tolist() for col in columns],
            "counts": sim.ledger.counts.tolist(),
            "rounds_done": sim.rounds_done.tolist(),
            "reuse_log": list(sim.reuse_log),
            "purposes": list(sim.purposes.items()),
            "consumed": list(sim.consumed)}


# one model per simulation, dropped with it
_STORES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def reference_store(sim: Simulation) -> dict[tuple[int, int], list[int]]:
    """The stored observations of a simulation recorded through
    :func:`reference_recommend`, as a model independent of its
    ``event_stored`` column: each pair's stored event ids, oldest first."""
    return _STORES.setdefault(sim, {})


def reference_recommend(sim: Simulation, user: int, item: int, purpose: str,
                        consumable: bool = False) -> tuple[float, int]:
    """One recommendation recorded pair by pair, as the simulator recorded
    it before every write went through ``recommend_many``: the event
    columns and the ledger count are written directly, and a stored
    observation is pushed on the pair's list in :func:`reference_store`.
    The reference the batched writers are checked against."""
    inst, ledger = sim.instance, sim.ledger
    t = int(sim.rounds_done[user]) + 1
    if t > inst.horizon:
        raise ProtocolError(f"user {user} already has {t - 1} rounds")
    if ledger.counts[user, item] >= inst.budget:
        raise BudgetError(f"budget exhausted for user {user}, item {item}")
    mean, noise = inst.rewards[user, item], sim._noise[user, t - 1]
    if inst.noise.kind == "gaussian":
        value = float(mean + noise)
    else:
        value = 1.0 if noise < mean else -1.0
    event_id = sim.n_events
    ledger.counts[user, item] += 1
    stored = ledger.reusable or not consumable
    if stored:
        reference_store(sim).setdefault((user, item), []).append(event_id)
    sim.event_stored[event_id] = stored
    sim.event_round[event_id] = t
    sim.event_user[event_id] = user
    sim.event_item[event_id] = item
    sim.event_purpose[event_id] = sim.purposes.setdefault(
        purpose, len(sim.purposes))
    sim.event_reward[event_id] = value
    sim.n_events = event_id + 1
    sim.rounds_done[user] = t
    return value, event_id


def reference_reuse(sim: Simulation, user: int, item: int,
                    ) -> tuple[float, int] | None:
    """``reuse_observation`` read from :func:`reference_store`: the pair's
    newest stored event, popped on a strict ledger and left in place on a
    reusable one, or None when the pair has none."""
    stored = reference_store(sim).get((user, item))
    if not stored:
        return None
    if sim.ledger.reusable:
        event_id = stored[-1]
    else:
        event_id = stored.pop()
        sim.event_stored[event_id] = False
    sim.reuse_log.append((int(sim.rounds_done[user]), user, item, event_id))
    return float(sim.event_reward[event_id]), event_id


@pytest.fixture
def tiny_gaussian_instance() -> Instance:
    g = np.random.default_rng(11)
    factors = g.uniform(0, 5, size=(15, 3))
    cluster_of = np.arange(12) % 3
    return Instance(12, 15, 8, 2, 3, cluster_of, factors[:, cluster_of].T,
                    NoiseModel("gaussian", 0.3))
