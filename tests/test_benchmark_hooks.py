"""The benchmark's traced run patches names in the package by attribute.

`perfbench/layers.py` wraps functions in the modules that look them up
(``item_phased.estimate``, ``phased.run_phased``, ...).  A refactor that
removes or renames one of them breaks the traced run, so installing and
uninstalling the tracer is checked here.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from blockedbandits import item_phased, phased
from blockedbandits.env import GeneratorSpec, generate_instance
from blockedbandits.harness import ALGORITHMS, run_algorithm

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name():
    originals = (np.linalg.svd, phased.run_phased, item_phased.run_item_phased,
                 item_phased.estimate, item_phased.similarity_components)
    tracer = _load_layers().Tracer()
    try:
        tracer.install()
        assert item_phased.run_item_phased is not originals[2]
    finally:
        tracer.uninstall()
    assert (np.linalg.svd, phased.run_phased, item_phased.run_item_phased,
            item_phased.estimate, item_phased.similarity_components) == originals


# the traced name of each registered algorithm's policy
POLICY_SPANS = {"phased": "phased.run", "item-phased": "item_phased.run",
                "practical": "baselines.run_practical",
                "etc": "baselines.run_etc",
                "collab-greedy": "baselines.run_collab_greedy",
                "random": "baselines.run_random",
                "oracle": "baselines.run_oracle"}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_registry_calls_the_policy_through_its_module(name):
    # a table that held the policy functions themselves would call the
    # originals, and the tracer would count nothing
    inst = generate_instance(GeneratorSpec(name="d3", n_users=8, n_items=10,
                                           n_clusters=2, horizon=4), 0)
    tracer = _load_layers().Tracer()
    try:
        tracer.install()
        run_algorithm(inst, name, 0)
    finally:
        tracer.uninstall()
    assert tracer.stats[POLICY_SPANS[name]].calls == 1
