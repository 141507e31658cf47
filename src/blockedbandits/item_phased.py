"""Phased policy for instances with latent item clusters, budget B = 1.

With item clusters the reward matrix takes one value per (user-cluster,
item-cluster) pair, so observations can safely feed multiple estimation
calls: the ledger keeps a single binary counter per pair and archives every
observation for reuse.  After each user-clustering step the surviving item
sets are expanded to full connected components of an item-similarity graph,
which keeps them unions of whole item clusters; the exploit component expands
its certified set the same way before recommending.  Everything else is the
task loop of :mod:`phased`.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from . import phased
from .env import Simulation
from .phased import PhasedConfig, RunReport

# Unused here, but the benchmark's tracer patches these names in this module.
from .completion import estimate  # noqa: F401
from .phased import similarity_components  # noqa: F401

__all__ = ["ItemPhasedConfig", "item_components", "run_item_phased"]

# Item-graph edges require agreement within ITEM_EDGE_FACTOR * C * delta on
# every user of the group; the wider constant absorbs the extra slack of
# chaining through both user and item clusters.
ITEM_EDGE_FACTOR = 16

# The variant takes the same knobs as the phased policy.
ItemPhasedConfig = PhasedConfig


def item_components(est_cols: np.ndarray, threshold: float) -> np.ndarray:
    """Component label per column of the estimate restricted to a group.

    Columns are adjacent when they agree within ``threshold`` for every user
    (row) of the group.
    """
    n = est_cols.shape[1]
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    diff = np.abs(est_cols[:, :, None] - est_cols[:, None, :]).max(axis=0)
    _, labels = connected_components(csr_matrix(diff <= threshold),
                                     directed=False)
    return labels


def _closure(active: np.ndarray, labels: np.ndarray, seed_items: np.ndarray) -> np.ndarray:
    """All of ``active`` connected (via ``labels``) to some seed item."""
    seed_mask = np.isin(active, seed_items)
    if not seed_mask.any():
        return seed_items
    hit = np.unique(labels[seed_mask])
    return active[np.isin(labels, hit)]


def run_item_phased(sim: Simulation, cfg: ItemPhasedConfig,
                    rng: np.random.Generator) -> RunReport:
    """Run the item-clustered phased policy; ``sim`` must use the reusable
    (single-counter) ledger."""
    if not sim.ledger.reusable:
        raise ValueError("run_item_phased needs a reusable-ledger simulation")

    def expand(active, est, seed, delta):
        labels = item_components(est, ITEM_EDGE_FACTOR * cfg.n_clusters * delta)
        return _closure(active, labels, seed)

    return phased._run(sim, cfg, rng, expand)
