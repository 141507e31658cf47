"""Synthetic instances, reward sampling, and the round-by-round protocol.

An :class:`Instance` fixes the ground truth: an ``M x N`` expected-reward
matrix whose rows repeat across latent user clusters, a noise model, the
horizon ``T`` and the per-(user, item) recommendation budget ``B``.  A
:class:`Simulation` runs one policy against one instance, enforcing that
every user is recommended exactly one item per round and that no pair is
recommended more than ``B`` times, while keeping the bookkeeping needed for
observation reuse and post-hoc audits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .rng import stream

__all__ = [
    "ConfigurationError",
    "BudgetError",
    "ProtocolError",
    "NoiseModel",
    "GeneratorSpec",
    "Instance",
    "generate_instance",
    "mean_reward_matrix",
    "BlockingLedger",
    "Event",
    "Simulation",
    "instance_to_json",
    "instance_from_json",
]


class ConfigurationError(ValueError):
    """Invalid instance or run configuration."""


class BudgetError(RuntimeError):
    """A policy tried to recommend a pair whose budget is exhausted."""


class ProtocolError(RuntimeError):
    """A policy broke the one-recommendation-per-user-per-round protocol."""


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise attached to an instance.

    kind "gaussian": observed reward is the matrix entry plus N(0, sigma^2).
    kind "sign": matrix entries are probabilities in [0, 1] and the observed
    reward is +1 with that probability, else -1 (mean 2p - 1).
    """

    kind: str  # "gaussian" | "sign"
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "sign"):
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian" and self.sigma < 0:
            raise ConfigurationError("gaussian noise needs sigma >= 0")

    @property
    def scale(self) -> float:
        """Noise scale the policies assume: sigma for gaussian noise, 1.0
        for sign feedback, whose +/-1 observations have standard deviation
        at most 1."""
        return self.sigma if self.kind == "gaussian" else 1.0


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a synthetic instance.

    ``name`` is one of the three canonical synthetic datasets or "custom":

    * d1 -- item factors drawn N(0, 25), gaussian noise sigma^2 = 0.25
    * d2 -- item factors drawn U(0, 5), gaussian noise sigma^2 = 0.25
    * d3 -- item factors drawn equiprobably from the ten-point grid
      0.05, 0.15, ..., 0.95; observations are +/-1 sign feedback

    User i belongs to cluster i mod C.  ``item_clusters`` (optional) adds a
    latent item clustering: entry (i, j) then depends only on the pair of
    cluster ids, via a small core matrix drawn from the V-law.
    """

    name: str = "custom"
    n_users: int = 150
    n_items: int = 150
    n_clusters: int = 4
    horizon: int = 60
    budget: int = 1
    v_law: str = "uniform"  # "normal" | "uniform" | "grid"  (custom only)
    v_scale: float = 5.0  # stddev for "normal", upper bound for "uniform"
    noise: NoiseModel = NoiseModel("gaussian", 0.5)
    item_clusters: int | None = None

    def __post_init__(self) -> None:
        sizes = {"n_users": self.n_users, "n_items": self.n_items,
                 "n_clusters": self.n_clusters, "horizon": self.horizon,
                 "budget": self.budget, "item_clusters": self.item_clusters}
        for name, value in sizes.items():
            if value is not None and value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if self.n_clusters > self.n_users:
            raise ConfigurationError("more clusters than users")
        if self.n_items * self.budget < self.horizon:
            raise ConfigurationError("infeasible: N*B < T")
        if self.name not in ("custom", "d1", "d2", "d3"):
            raise ConfigurationError(f"unknown dataset {self.name!r}")
        if self.name == "custom" and self.v_law not in ("normal", "uniform", "grid"):
            raise ConfigurationError(f"unknown item-factor law {self.v_law!r}")

    def resolved(self) -> "GeneratorSpec":
        if self.name == "custom":
            return self
        if self.name == "d1":
            return replace(self, v_law="normal", v_scale=5.0,
                           noise=NoiseModel("gaussian", 0.5))
        if self.name == "d2":
            return replace(self, v_law="uniform", v_scale=5.0,
                           noise=NoiseModel("gaussian", 0.5))
        return replace(self, v_law="grid", v_scale=1.0,  # d3
                       noise=NoiseModel("sign"))


@dataclass(frozen=True)
class Instance:
    """Ground truth for one simulation run.  Immutable and shareable."""

    n_users: int
    n_items: int
    horizon: int
    budget: int
    n_clusters: int
    cluster_of: np.ndarray  # (M,) int, cluster id of each user
    rewards: np.ndarray  # (M, N) float64 expected rewards
    noise: NoiseModel
    item_cluster_of: np.ndarray | None = None  # (N,) int, optional
    reward_ceiling: float = field(default=0.0)
    # reward_ceiling is the largest |expected observed reward|: max|P| for
    # gaussian noise, max|2P - 1| for sign feedback.  Same units as rewards.

    def __post_init__(self) -> None:
        if self.n_clusters > self.n_users:
            raise ConfigurationError("more clusters than users")
        if self.n_items * self.budget < self.horizon:
            raise ConfigurationError(
                f"infeasible budget: N*B = {self.n_items * self.budget} "
                f"< T = {self.horizon}")
        if self.noise.kind == "sign":
            if self.rewards.min() < 0 or self.rewards.max() > 1:
                raise ConfigurationError("sign feedback needs rewards in [0, 1]")
        if set(np.unique(self.cluster_of)) != set(range(self.n_clusters)):
            raise ConfigurationError("cluster assignment must cover 0..C-1")
        if self.reward_ceiling == 0.0:
            ceiling = float(np.abs(mean_reward_matrix(self)).max())
            object.__setattr__(self, "reward_ceiling", ceiling)


def _draw_factor(law: str, scale: float, shape: tuple[int, int],
                 rng: np.random.Generator) -> np.ndarray:
    if law == "normal":
        return rng.normal(0.0, scale, size=shape)
    if law == "uniform":
        return rng.uniform(0.0, scale, size=shape)
    grid = np.linspace(0.05, 0.95, 10)  # the "grid" law
    return rng.choice(grid, size=shape)


def generate_instance(spec: GeneratorSpec, seed: int) -> Instance:
    """Build an instance from ``spec``, deterministically in ``seed``."""
    spec = spec.resolved()
    rng = stream(seed, "instance")
    cluster_of = np.arange(spec.n_users) % spec.n_clusters
    item_cluster_of = None
    if spec.item_clusters is not None:
        item_cluster_of = np.arange(spec.n_items) % spec.item_clusters
        core = _draw_factor(spec.v_law, spec.v_scale,
                            (spec.n_clusters, spec.item_clusters), rng)
        rewards = core[np.ix_(cluster_of, item_cluster_of)]
    else:
        factors = _draw_factor(spec.v_law, spec.v_scale,
                               (spec.n_items, spec.n_clusters), rng)
        rewards = factors[:, cluster_of].T  # one-hot user factor rows
    return Instance(
        n_users=spec.n_users, n_items=spec.n_items, horizon=spec.horizon,
        budget=spec.budget, n_clusters=spec.n_clusters,
        cluster_of=cluster_of, rewards=np.ascontiguousarray(rewards, dtype=np.float64),
        noise=spec.noise, item_cluster_of=item_cluster_of)


def mean_reward_matrix(inst: Instance) -> np.ndarray:
    """Expected value of the observation process; the regret target.

    Gaussian noise leaves the reward matrix unchanged; sign feedback has
    mean 2p - 1 per entry.
    """
    if inst.noise.kind == "gaussian":
        return inst.rewards
    return 2.0 * inst.rewards - 1.0


class BlockingLedger:
    """Per-(user, item) budget counter and the reusable-observation store.

    ``counts[u, j]`` counts every recommendation of the pair, whether its
    observation was fed to an estimation call at once or stored for reuse;
    it never exceeds the budget.  ``stored[(u, j)]`` lists the pair's stored
    (value, event_id) observations.  In strict mode each is consumed once,
    most recent first.  ``reusable=True`` is the regime of the item-clustered
    variant, where every observation is kept forever and may feed any number
    of estimates.
    """

    def __init__(self, n_users: int, n_items: int, budget: int,
                 reusable: bool = False):
        self.budget = budget
        self.reusable = reusable
        self.counts = np.zeros((n_users, n_items), dtype=np.uint32)
        self.stored: dict[tuple[int, int], list[tuple[float, int]]] = {}

    def count(self, user: int, item: int) -> int:
        return int(self.counts[user, item])

    def counts_row(self, user: int) -> np.ndarray:
        """Read-only use: a view of the ledger's own row."""
        return self.counts[user]

    def is_blocked(self, user: int, item: int) -> bool:
        return self.count(user, item) >= self.budget

    def max_pair_count(self) -> int:
        return int(self.counts.max())

    def record(self, user: int, item: int, value: float, event_id: int,
               consumable: bool) -> None:
        if self.count(user, item) >= self.budget:
            raise BudgetError(f"budget exhausted for user {user}, item {item}")
        self.counts[user, item] += 1
        if self.reusable or not consumable:
            self.stored.setdefault((user, item), []).append((value, event_id))

    def has_reusable(self, user: int, item: int) -> bool:
        return bool(self.stored.get((user, item)))

    def take_reusable(self, user: int, item: int) -> tuple[float, int]:
        """The most recent stored observation; strict mode consumes it."""
        observations = self.stored[(user, item)]
        return observations[-1] if self.reusable else observations.pop()


@dataclass
class Event:
    """One recommendation: user ``user`` got item ``item`` at round ``round``."""

    round: int
    user: int
    item: int
    purpose: str
    reward: float
    consumers: list[int] = field(default_factory=list)  # estimate-call ids


class Simulation:
    """Mutable state of one policy run on one instance.

    Reward noise is a precomputed table indexed by (user, round), so the
    observation a user would see at round t does not depend on which item the
    policy happens to pick -- policies compared under the same seed face the
    same randomness.
    """

    def __init__(self, inst: Instance, seed: int, reusable_ledger: bool = False):
        self.instance = inst
        self.seed = seed
        self.ledger = BlockingLedger(inst.n_users, inst.n_items, inst.budget,
                                     reusable=reusable_ledger)
        self.events: list[Event] = []
        self.reuse_log: list[tuple[int, int, int, int]] = []  # (round, user, item, event_id)
        self.rounds_done = np.zeros(inst.n_users, dtype=np.int64)
        noise_rng = stream(seed, "noise")
        if inst.noise.kind == "gaussian":
            self._noise = noise_rng.normal(0.0, inst.noise.sigma,
                                           size=(inst.n_users, inst.horizon))
        else:
            self._noise = noise_rng.random(size=(inst.n_users, inst.horizon))
        self._estimate_calls = 0

    # -- protocol ----------------------------------------------------------

    def round_of(self, user: int) -> int:
        """Rounds already consumed by ``user`` (0-based next round index)."""
        return int(self.rounds_done[user])

    def observe(self, user: int, item: int, round_index: int) -> float:
        mean = self.instance.rewards[user, item]
        if self.instance.noise.kind == "gaussian":
            return float(mean + self._noise[user, round_index - 1])
        return 1.0 if self._noise[user, round_index - 1] < mean else -1.0

    def recommend(self, user: int, item: int, purpose: str,
                  consumable: bool = False) -> tuple[float, int]:
        """Recommend ``item`` to ``user`` at the user's next round.

        ``consumable`` marks the observation as consumed-by-estimation at
        recommendation time (the exploration path); otherwise the value is
        stored for potential reuse.  Raises :class:`BudgetError` when the
        pair's budget is exhausted and :class:`ProtocolError` past round T.
        """
        t = int(self.rounds_done[user]) + 1
        if t > self.instance.horizon:
            raise ProtocolError(f"user {user} already has {t - 1} rounds")
        value = self.observe(user, item, t)
        event_id = len(self.events)
        self.ledger.record(user, item, value, event_id, consumable)
        self.events.append(Event(t, user, item, purpose, value))
        self.rounds_done[user] = t
        return value, event_id

    def reuse_observation(self, user: int, item: int) -> tuple[float, int]:
        """Pull a stored observation for (user, item) without using a round."""
        value, event_id = self.ledger.take_reusable(user, item)
        self.reuse_log.append((int(self.rounds_done[user]), user, item, event_id))
        return value, event_id

    def mark_consumed(self, event_ids: list[int]) -> int:
        """Record a new estimate call as consuming ``event_ids``; its id."""
        self._estimate_calls += 1
        for eid in event_ids:
            self.events[eid].consumers.append(self._estimate_calls)
        return self._estimate_calls

    # -- bulk views --------------------------------------------------------

    def finished(self) -> bool:
        return bool((self.rounds_done == self.instance.horizon).all())

    def choice_matrix(self) -> np.ndarray:
        """(M, T) chosen item per user per round; requires a finished run."""
        if not self.finished():
            raise ProtocolError("run incomplete: not every user has T rounds")
        out = np.full((self.instance.n_users, self.instance.horizon), -1,
                      dtype=np.int64)
        for ev in self.events:
            if out[ev.user, ev.round - 1] != -1:
                raise ProtocolError("duplicate recommendation in a round")
            out[ev.user, ev.round - 1] = ev.item
        return out

    def unblocked_in(self, user: int, items: np.ndarray) -> np.ndarray:
        counts = self.ledger.counts_row(user)[items]
        return items[counts < self.instance.budget]

    def any_unblocked(self, user: int, preferred: np.ndarray) -> int:
        """Lowest-index unblocked item, preferring ``preferred``.

        Falls back to the full item range; feasibility (N*B >= T) guarantees
        some item always has remaining budget.
        """
        cand = self.unblocked_in(user, preferred)
        if cand.size:
            return int(cand[0])
        counts = self.ledger.counts_row(user)
        free = np.flatnonzero(counts < self.instance.budget)
        if not free.size:
            raise BudgetError(f"user {user} has no unblocked item")
        return int(free[0])

    def export_events(self, path: str) -> None:
        """Write the event log as JSON lines, reuse markers included."""
        with open(path, "w", encoding="utf-8") as fh:
            for ev in self.events:
                fh.write(json.dumps({
                    "round": ev.round, "user": ev.user, "item": ev.item,
                    "purpose": ev.purpose, "reward": ev.reward}) + "\n")
            for rnd, user, item, event_id in self.reuse_log:
                fh.write(json.dumps({
                    "round": rnd, "user": user, "item": item,
                    "purpose": "reuse", "reward": self.events[event_id].reward,
                }) + "\n")


# -- instance (de)serialisation --------------------------------------------


def instance_to_json(inst: Instance) -> str:
    doc = {
        "M": inst.n_users, "N": inst.n_items, "T": inst.horizon,
        "B": inst.budget, "C": inst.n_clusters,
        "cluster_of": inst.cluster_of.tolist(),
        "P": inst.rewards.tolist(),
        "noise": {"kind": inst.noise.kind, "sigma": inst.noise.sigma},
    }
    if inst.item_cluster_of is not None:
        doc["item_cluster_of"] = inst.item_cluster_of.tolist()
    return json.dumps(doc)


def instance_from_json(text: str) -> Instance:
    doc = json.loads(text)
    try:
        noise = NoiseModel(doc["noise"]["kind"], doc["noise"].get("sigma", 0.0))
        item_cl = doc.get("item_cluster_of")
        return Instance(
            n_users=int(doc["M"]), n_items=int(doc["N"]),
            horizon=int(doc["T"]), budget=int(doc["B"]),
            n_clusters=int(doc["C"]),
            cluster_of=np.asarray(doc["cluster_of"], dtype=np.int64),
            rewards=np.asarray(doc["P"], dtype=np.float64),
            noise=noise,
            item_cluster_of=None if item_cl is None else np.asarray(item_cl, dtype=np.int64),
        )
    except KeyError as exc:
        raise ConfigurationError(f"instance document missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid instance document: {exc}") from exc
