"""Golden digests: a refactor must leave every algorithm's output unchanged.

Each case runs one (instance, algorithm, seed) cell and hashes the CSV bytes
the harness writes for it, the full event log (round, user, item, purpose,
reward, consuming estimate calls) and the reuse log.  The digests were taken
from the code before the phased engines were merged and must not be edited
to make a change pass; a change that alters behaviour on purpose says so and
records new digests.  The cases reach every purpose the phased engines log
(explore, exploit, filler, fill) and, for the item-clustered variant,
archived-observation reuse and observations that feed several estimates.
The gap-practical case, taken from the code before the practical variant
rebuilt its observations from the event log, observes pairs up to B = 5
times, so its estimates average repeated observations.

The d3-b2 cases repeat the d3 instance at B = 2, so the random draw, the
fill, collaborative greedy and the commit walk (ETC at a rate that commits,
and the oracle) recommend pairs twice; they were taken before those policies
recorded their recommendations in batches.

Only the items4 case reads stored observations: item-phased on a reusable
ledger takes 299 of them.  No case reads one on a strict ledger, so a strict
reuse (each stored observation returned once, newest first) is proved by
the hypothesis tests of ``tests/test_env.py`` and ``tests/test_phased.py``
against the independent store model in ``tests/conftest.py``, not by a
digest.

The d1-etc digest was re-taken when the completion solver became MFISTA:
its one 40x40 block used to stop after 1279 proximal-gradient steps, and
MFISTA converges in 190 to an objective 2.5e-6 (relative) lower, which
changes some of the pairs ETC's commit walk picks (regret 62.91 -> 62.52).
Every other digest, d1-practical included, was unchanged by that change.
"""

import hashlib
from dataclasses import replace

import pytest

from blockedbandits.env import GeneratorSpec, NoiseModel, generate_instance
from blockedbandits.harness import CellResult, csv_text, run_algorithm

from conftest import cluster_gap_instance, item_cluster_instance


def _spec(name: str) -> GeneratorSpec:
    return GeneratorSpec(name=name, n_users=40, n_items=40, n_clusters=4,
                         horizon=24, budget=1)


EXPLORING_SPEC = GeneratorSpec(name="custom", n_users=60, n_items=60,
                               n_clusters=2, horizon=60, budget=6,
                               v_law="uniform", v_scale=5.0,
                               noise=NoiseModel("gaussian", 0.2))


def _instance(case: str):
    if case in ("d1", "d3"):
        return generate_instance(_spec(case), 0)
    if case == "d3-b2":
        return generate_instance(replace(_spec("d3"), budget=2), 0)
    if case == "explore":
        return generate_instance(EXPLORING_SPEC, 0)
    if case == "gap":
        return cluster_gap_instance(0, n_users=40, n_items=40, n_clusters=2,
                                    horizon=32)
    if case == "items4":
        return item_cluster_instance(0, n_item_clusters=4, horizon=48)
    if case == "items8":
        return item_cluster_instance(0, n_item_clusters=8, standout=True)
    raise KeyError(case)


def _digest(case: str, name: str, params: dict) -> str:
    trace, sim = run_algorithm(_instance(case), name, 0, params)
    h = hashlib.sha256()
    h.update(csv_text([CellResult(case, name, 0, trace)]).encode())
    for ev in sim.events:
        h.update(repr((int(ev.round), int(ev.user), int(ev.item), ev.purpose,
                       float(ev.reward), [int(c) for c in ev.consumers])
                      ).encode())
    h.update(b"reuse")
    for rnd, user, item, event_id in sim.reuse_log:
        h.update(repr((int(rnd), int(user), int(item), int(event_id))).encode())
    return h.hexdigest()


GOLDEN = [
    ("d3", "phased", {},
     "a052ecf66601579510b0c443c8978b9b76102419368411a218f03dc94854221a"),
    ("d3", "item-phased", {},
     "a4eb60f47cc128f2148849abdc7587bb3698d13922710d0b8865dcddf19ef7cd"),
    ("d3", "practical", {},
     "0878b0047be238a5b20b23d61f74a71113b100b606974963a07025de63e42b89"),
    ("d3", "etc", {},
     "ab8321eb73dbdbcf9fa947128e89ff98ee881404eb20f753876318371cc7f68d"),
    ("d3", "collab-greedy", {},
     "623ef367b110060ae72a21b837807c516ed5c9d8a07457357aa36bfaad5ce2d0"),
    ("d3", "random", {},
     "871338f16631915eca333c7d61a4cbc5bcee428f7398a38726beadc804a09524"),
    ("d3", "oracle", {},
     "a1946f807c26b93b2f0aff0f3d8e7615e9aa0a27a42b0c23eff68edf190e19dd"),
    ("d1", "phased", {},
     "6bf1e5751d323aada1f8a993daabf35d6e44c47d29bff7238c0448223b2a511e"),
    ("d1", "item-phased", {},
     "5afd7a2d9faf1683e78d67c95182bc0422afaf241e48c2deaef1e0d1ab6a7782"),
    ("d1", "practical", {},
     "2671ae6b83abfc8205343eadc7812d9cb30cd66c70776445ba63a3f5b7254ad6"),
    ("d1", "etc", {},
     "8f241a76a2210bb385577479e5342e7bd5ebf74fe96faa559a3ea5e946c87efb"),
    ("explore", "phased", {"eps1": 80.0, "mu_bound": 2.0},
     "644e4f866a308616fd7d9c83b44ef535a3898b8f18a3504cdc21a222d17450b9"),
    ("gap", "phased", {"mu_bound": 1.5},
     "cfac6137509c8343c402aa9bea9a411d179ef38ce4973f76ef6d57a389af0af7"),
    ("gap", "practical", {},
     "506620d8a7e4e3f2006a3ce47dccb344bc7962f0275e82927b6b885c4127adc3"),
    ("items4", "item-phased", {"mu_bound": 1.5},
     "a4ca129a0f1626b603b5a45633c98cd2e55931c27f66ac0e2bba3e000d85e916"),
    ("items8", "item-phased", {"mu_bound": 1.5},
     "a2614a2caf78e3687a397872422148f232230ee334e51d06645a4f53b7e5f39c"),
    ("d3-b2", "random", {},
     "bdc1f2318f586afa5fb90dd6e79d74cd12fd0b7b8b23e9f656248a0832935e71"),
    ("d3-b2", "oracle", {},
     "a546a525fcb70463cb2fbdc8e5ee21492c1c9980b47c970147e2c760d918e9b3"),
    ("d3-b2", "etc", {"m_target": 4.0},
     "be2dce18a268ba8c5ff687596d8f3023f15a9aa405e2543223f81a21f68a1e5f"),
    ("d3-b2", "collab-greedy", {},
     "3bdf04be4bce7c994dd65a8779fcdd301d7a685cdfb189b77b2f0c7aa40cc0b2"),
    ("d3-b2", "phased", {},
     "5eff2968a78cc8c189eecc95fb944584b95324f50deb5aefbfc7a9d58e1010f4"),
]


@pytest.mark.parametrize("case,name,params,digest", GOLDEN,
                         ids=[f"{c}-{n}" for c, n, _, _ in GOLDEN])
def test_output_matches_golden_digest(case, name, params, digest):
    assert _digest(case, name, params) == digest
