"""Phased policy for instances with latent item clusters, budget B = 1.

With item clusters the reward matrix takes one value per (user-cluster,
item-cluster) pair, so observations can safely feed multiple estimation
calls: the ledger keeps a single binary counter per pair and archives every
observation for reuse.  After each user-clustering step the surviving item
sets are expanded to full connected components of an item-similarity graph,
which keeps them unions of whole item clusters; the exploit component expands
its certified set the same way before recommending.  Everything else is the
task loop of :mod:`phased`, and the variant takes the phased policy's config,
:class:`phased.PhasedConfig`.
"""

from __future__ import annotations

import numpy as np

from . import phased
from .env import Simulation
from .phased import PhasedConfig, RunReport, similarity_components

# Unused here, but the benchmark's tracer patches this name in this module.
from .completion import estimate  # noqa: F401

__all__ = ["run_item_phased"]

# Item-graph edges require agreement within ITEM_EDGE_FACTOR * C * delta on
# every user of the group; the wider constant absorbs the extra slack of
# chaining through both user and item clusters.
ITEM_EDGE_FACTOR = 16


def _closure(active: np.ndarray, comps: list[np.ndarray],
             seed_items: np.ndarray) -> np.ndarray:
    """All of ``active`` in a component (of positions in it) holding a seed."""
    seed_mask = np.isin(active, seed_items)
    hit = [comp for comp in comps if seed_mask[comp].any()]
    if not hit:
        return seed_items
    return active[np.sort(np.concatenate(hit))]


def run_item_phased(sim: Simulation, cfg: PhasedConfig,
                    rng: np.random.Generator) -> RunReport:
    """Run the item-clustered phased policy; ``sim`` must use the reusable
    (single-counter) ledger."""
    if not sim.ledger.reusable:
        raise ValueError("run_item_phased needs a reusable-ledger simulation")

    n_clusters = sim.instance.n_clusters

    def expand(active, est, seed, delta):
        # items are adjacent when their columns agree on every group user
        comps = similarity_components(est.T,
                                      ITEM_EDGE_FACTOR * n_clusters * delta)
        return _closure(active, comps, seed)

    return phased._run(sim, cfg, rng, expand)
