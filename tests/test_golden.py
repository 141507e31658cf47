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

The two collab-greedy digests were re-taken when collaborative greedy began
to draw each round's branches with one ``rng.random(M)`` and its uniform
picks with one array-bounded ``rng.integers`` after them, instead of one
``random()`` per user with each uniform user's ``integers`` right after
its own.  Only the order of the draws changed: every branch probability
and every uniform pick keeps its distribution, and no other digest moved.

The eleven phased, item-phased and ETC digests that log fillers or fills
(d3, d1, d3-b2 and the explore, gap, items4 and items8 cases; d3-etc
logs none) were re-taken when the phased engine's candidate walk began to
pick ``cand[int(u * len(cand))]`` with the uniforms ``u`` of the picks it
owes drawn by one ``rng.random`` call, instead of one
``rng.integers(len(cand))`` per pick.  Each pick stays uniform over the
candidates to within len(cand) * 2^-53; the commit walk, the oracle, random,
practical and collaborative greedy digests did not move.
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
     "84d30e0cbdd94b9a118fca7dac5603c24067259c3abd4ddee5a8d26b4841f695"),
    ("d3", "item-phased", {},
     "c9c71b8ed8409188048d498a9edb1afb2158655c2bcd05a639ac134ff43ef3c9"),
    ("d3", "practical", {},
     "0878b0047be238a5b20b23d61f74a71113b100b606974963a07025de63e42b89"),
    ("d3", "etc", {},
     "ab8321eb73dbdbcf9fa947128e89ff98ee881404eb20f753876318371cc7f68d"),
    ("d3", "collab-greedy", {},
     "31b2f58d7dc87c1bc385bf3e698f3beed8d5326c0d48cf47f593b248d73b5520"),
    ("d3", "random", {},
     "871338f16631915eca333c7d61a4cbc5bcee428f7398a38726beadc804a09524"),
    ("d3", "oracle", {},
     "a1946f807c26b93b2f0aff0f3d8e7615e9aa0a27a42b0c23eff68edf190e19dd"),
    ("d1", "phased", {},
     "b2b9d323964721925871b98683007e11ef067f91a9fa81328f253f40e9be8466"),
    ("d1", "item-phased", {},
     "be515d11e828f694bca1cf84094ef2604d65403f85dad0a6f4f814d40f4314a2"),
    ("d1", "practical", {},
     "2671ae6b83abfc8205343eadc7812d9cb30cd66c70776445ba63a3f5b7254ad6"),
    ("d1", "etc", {},
     "4b6ce4d5fc2578a104f03be6e5ab6735f0addf90ca3338bf4a9060632a666538"),
    ("explore", "phased", {"eps1": 80.0, "mu_bound": 2.0},
     "f01bd53d6ddb3342e9dfdf5c3a3490d24f69e3d1807cf615a4eadb464b79099f"),
    ("gap", "phased", {"mu_bound": 1.5},
     "6cfa3d31bd3af90c9064ae3b8de1410c527b2a78052ce06c05d13fce3a8392dc"),
    ("gap", "practical", {},
     "506620d8a7e4e3f2006a3ce47dccb344bc7962f0275e82927b6b885c4127adc3"),
    ("items4", "item-phased", {"mu_bound": 1.5},
     "e0efa52e5389f5bc27104b47c6457cd320dd3f5502b7f4851902482e5ddfc250"),
    ("items8", "item-phased", {"mu_bound": 1.5},
     "7c0160279832a7392010d1f13e66e60a0772944e311183dd1feb5aedb9f68e38"),
    ("d3-b2", "random", {},
     "bdc1f2318f586afa5fb90dd6e79d74cd12fd0b7b8b23e9f656248a0832935e71"),
    ("d3-b2", "oracle", {},
     "a546a525fcb70463cb2fbdc8e5ee21492c1c9980b47c970147e2c760d918e9b3"),
    ("d3-b2", "etc", {"m_target": 4.0},
     "f22122e017d6edeebaaf927d594fea70666b03a77db0954780790fa99c955ad1"),
    ("d3-b2", "collab-greedy", {},
     "466e7c71fc7894ac2f49b0bb17696ce39f8267ced0c8eea632876b5e762b918d"),
    ("d3-b2", "phased", {},
     "980b1194bf80e7c9e8ae2f2fecf141ecf4858329ba05332e559bba2b11599ec6"),
]


@pytest.mark.parametrize("case,name,params,digest", GOLDEN,
                         ids=[f"{c}-{n}" for c, n, _, _ in GOLDEN])
def test_output_matches_golden_digest(case, name, params, digest):
    assert _digest(case, name, params) == digest
