"""Synthetic instances, reward sampling, and the round-by-round protocol.

An :class:`Instance` fixes the ground truth: an ``M x N`` expected-reward
matrix whose rows repeat across latent user clusters, a noise model, the
horizon ``T`` and the per-(user, item) recommendation budget ``B``.  A
:class:`Simulation` runs one policy against one instance, enforcing that
every user is recommended exactly one item per round and that no pair is
recommended more than ``B`` times, while keeping the bookkeeping needed for
observation reuse and post-hoc audits.

The event log is columnar, one preallocated array per field, and
``Simulation.events`` is a read-only view of it as :class:`Event` records.
``Simulation.recommend_many`` is the one writer of the log and the ledger,
``Simulation.recommend`` a batch of one, and a :class:`Batch` queues a
policy's decisions and gives the reward a queued one will record.  An
observation stored for reuse is a flag on its event, ``event_stored``: a
reuse reads the pair's newest flagged event, and a strict ledger's reuse
clears the flag.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
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
    "Batch",
    "lowest_unblocked",
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
        if self.kind == "gaussian" and not 0 <= self.sigma < np.inf:
            raise ConfigurationError(
                f"gaussian noise needs a finite sigma >= 0, got {self.sigma}")

    @property
    def scale(self) -> float:
        """Noise scale the policies assume: sigma for gaussian noise, 1.0
        for sign feedback, whose +/-1 observations have standard deviation
        at most 1."""
        return self.sigma if self.kind == "gaussian" else 1.0


# (v_law, v_scale, noise) of each canonical dataset, and the defaults a
# custom dataset takes for the ones it leaves unset
_CANONICAL = {
    "d1": ("normal", 5.0, NoiseModel("gaussian", 0.5)),
    "d2": ("uniform", 5.0, NoiseModel("gaussian", 0.5)),
    "d3": ("grid", 1.0, NoiseModel("sign")),
}
_CUSTOM_DEFAULTS = ("uniform", 5.0, NoiseModel("gaussian", 0.5))


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a synthetic instance.

    ``name`` is one of the three canonical synthetic datasets or "custom":

    * d1 -- item factors drawn N(0, 25), gaussian noise sigma^2 = 0.25
    * d2 -- item factors drawn U(0, 5), gaussian noise sigma^2 = 0.25
    * d3 -- item factors drawn equiprobably from the ten-point grid
      0.05, 0.15, ..., 0.95; observations are +/-1 sign feedback

    ``v_law``, ``v_scale`` and ``noise`` left None are filled in by
    ``resolved()``: a canonical dataset fixes all three, so setting any of
    them on d1-d3 is an error (only the full triple that ``resolved()``
    writes is accepted), and a custom dataset defaults to U(0, 5) factors
    with gaussian noise sigma 0.5.  Sign feedback needs rewards in [0, 1],
    so a spec with sign noise must resolve to the grid law, or to the
    uniform law with ``v_scale`` <= 1.

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
    v_law: str | None = None  # "normal" | "uniform" | "grid"
    v_scale: float | None = None  # stddev for "normal", bound for "uniform"
    noise: NoiseModel | None = None
    item_clusters: int | None = None

    def __post_init__(self) -> None:
        sizes = {"n_users": self.n_users, "n_items": self.n_items,
                 "n_clusters": self.n_clusters, "horizon": self.horizon,
                 "budget": self.budget, "item_clusters": self.item_clusters}
        for name, value in sizes.items():
            if value is not None and value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if self.v_scale is not None and not 0 < self.v_scale < np.inf:
            raise ConfigurationError(
                f"v_scale must be finite and > 0, got {self.v_scale}")
        if self.n_clusters > self.n_users:
            raise ConfigurationError("more clusters than users")
        if self.n_items * self.budget < self.horizon:
            raise ConfigurationError("infeasible: N*B < T")
        if self.name not in ("custom", *_CANONICAL):
            raise ConfigurationError(f"unknown dataset {self.name!r}")
        laws = (self.v_law, self.v_scale, self.noise)
        if self.name in _CANONICAL and laws not in ((None,) * 3,
                                                    _CANONICAL[self.name]):
            fixed = sorted(key for key, value in
                           zip(("v_law", "v_scale", "noise"), laws)
                           if value is not None)
            raise ConfigurationError(
                f"dataset {self.name} fixes {fixed}; use name 'custom' to set them")
        if self.v_law not in (None, "normal", "uniform", "grid"):
            raise ConfigurationError(f"unknown item-factor law {self.v_law!r}")
        law, scale, noise = self._laws()
        if noise.kind == "sign" and not (
                law == "grid" or (law == "uniform" and scale <= 1)):
            raise ConfigurationError(
                "sign feedback needs rewards in [0, 1]: use v_law 'grid', "
                f"or 'uniform' with v_scale <= 1 (got {law!r}, {scale})")

    def _laws(self) -> tuple[str, float, NoiseModel]:
        """(v_law, v_scale, noise), with the dataset's defaults for unset ones."""
        defaults = _CANONICAL.get(self.name, _CUSTOM_DEFAULTS)
        return tuple(default if value is None else value for value, default
                     in zip((self.v_law, self.v_scale, self.noise), defaults))

    def resolved(self) -> "GeneratorSpec":
        """The spec with ``v_law``, ``v_scale`` and ``noise`` filled in."""
        law, scale, noise = self._laws()
        return replace(self, v_law=law, v_scale=scale, noise=noise)


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
    reward_ceiling: float = field(init=False)
    # reward_ceiling is the largest |expected observed reward|: max|P| for
    # gaussian noise, max|2P - 1| for sign feedback.  Same units as rewards;
    # computed from them, so a replaced instance gets its own.

    def __post_init__(self) -> None:
        if self.rewards.shape != (self.n_users, self.n_items):
            raise ConfigurationError(
                f"rewards have shape {self.rewards.shape}, expected "
                f"({self.n_users}, {self.n_items})")
        if self.cluster_of.shape != (self.n_users,):
            raise ConfigurationError(
                f"cluster_of has shape {self.cluster_of.shape}, expected "
                f"({self.n_users},)")
        if self.item_cluster_of is not None \
                and self.item_cluster_of.shape != (self.n_items,):
            raise ConfigurationError(
                f"item_cluster_of has shape {self.item_cluster_of.shape}, "
                f"expected ({self.n_items},)")
        if not np.isfinite(self.rewards).all():
            raise ConfigurationError("rewards must be finite")
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
        object.__setattr__(self, "reward_ceiling",
                           float(np.abs(mean_reward_matrix(self)).max()))


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


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable sort order of ``keys``, and which sorted positions start a
    run of equal keys."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    return order, np.concatenate(([True], ordered[1:] != ordered[:-1]))


class BlockingLedger:
    """Per-(user, item) budget counter.

    ``counts[u, j]`` counts every recommendation of the pair, whether its
    observation was fed to an estimation call at once or stored for reuse;
    it never exceeds the budget.  ``reusable`` sets how the simulation keeps
    stored observations: strict (False), each is consumed once, most recent
    first; ``reusable=True`` is the regime of the item-clustered variant,
    where every observation is kept forever and may feed any number of
    estimates.

    ``counts`` is ``uint32`` and ``record_many`` adds to it through its flat
    view, one ``np.uint32(1)`` per flat pair index.  A 1-D index and an
    increment of the array's own dtype are what numpy's fast ``ufunc.at``
    loop needs; a Python int increment takes the general loop, which is
    about 30 times slower on numpy 2.4.
    """

    def __init__(self, n_users: int, n_items: int, budget: int,
                 reusable: bool = False):
        self.budget = budget
        self.reusable = reusable
        self.counts = np.zeros((n_users, n_items), dtype=np.uint32)

    def max_pair_count(self) -> int:
        return int(self.counts.max())

    def record_many(self, users: np.ndarray, items: np.ndarray) -> None:
        """Count each pair.  A user or item out of range (negative ones
        included) raises ``ValueError`` before any count.  If a pair would
        pass the budget, takes the counts back and raises, naming the
        lowest-index pair of those that would reach the highest count."""
        pairs = np.ravel_multi_index((users, items), self.counts.shape)
        flat = self.counts.reshape(-1)
        np.add.at(flat, pairs, np.uint32(1))
        after = flat[pairs]
        if after.max() > self.budget:
            np.subtract.at(flat, pairs, np.uint32(1))
            user, item = np.unravel_index(pairs[after == after.max()].min(),
                                          self.counts.shape)
            raise BudgetError(f"budget exhausted for user {user}, item {item}")


@dataclass
class Event:
    """One recommendation: user ``user`` got item ``item`` at round ``round``."""

    round: int
    user: int
    item: int
    purpose: str
    reward: float
    consumers: list[int] = field(default_factory=list)  # estimate-call ids


def lowest_unblocked(counts: np.ndarray, preferred: np.ndarray,
                     budget: int) -> np.ndarray:
    """On each user row of ledger ``counts`` (one row or a stack of rows):
    the first item of ``preferred`` with budget left, else the lowest item
    with budget left.  Feasibility (N*B >= T) leaves every user that still
    has a round to play some item with budget left; a row without one
    raises :class:`BudgetError`."""
    free = counts < budget
    if not free.any(axis=-1).all():
        raise BudgetError("a user has no unblocked item")
    order = np.concatenate((preferred, np.arange(free.shape[-1])))
    return order[free[..., order].argmax(axis=-1)]


class Simulation:
    """Mutable state of one policy run on one instance.

    Reward noise is a precomputed table indexed by (user, round), so the
    observation a user would see at round t does not depend on which item the
    policy happens to pick -- policies compared under the same seed face the
    same randomness.

    The event log is one length-M*T array per field, indexed by event id
    and filled up to ``n_events``: ``event_round`` (1-based), ``event_user``,
    ``event_item``, ``event_purpose`` (codes into ``purposes``),
    ``event_reward`` and ``event_stored``, whether the observation is kept
    for reuse: every event on a reusable ledger, else each non-consumable
    one until ``reuse_observation`` takes it.  ``consumed`` holds
    (event id, estimate-call id) pairs in call order.

    ``recommend_many`` is the one writer of the log and the ledger.  It
    records a whole batch, such as a round of every user, a phased block or
    a user's remaining rounds, in a few array operations, with one purpose
    and consumable flag for the batch or one per pair, and writes what
    recording the pairs one at a time in batch order would write, down to
    the event ids, the purpose codes and the stored flags.
    ``recommend`` is a batch of one.  A policy whose decisions read rewards
    that are not yet recorded queues them in a :class:`Batch`.
    """

    def __init__(self, inst: Instance, seed: int, reusable_ledger: bool = False):
        self.instance = inst
        self.seed = seed
        size = inst.n_users * inst.horizon  # recommend_many allows no more events
        self.event_round = np.zeros(size, dtype=np.int64)
        self.event_user = np.zeros(size, dtype=np.int64)
        self.event_item = np.zeros(size, dtype=np.int64)
        self.event_purpose = np.zeros(size, dtype=np.uint8)
        self.event_reward = np.zeros(size)
        self.event_stored = np.zeros(size, dtype=bool)
        self.ledger = BlockingLedger(inst.n_users, inst.n_items, inst.budget,
                                     reusable=reusable_ledger)
        self.n_events = 0
        self.purposes: dict[str, int] = {}  # purpose -> code, first use first
        self.consumed: list[tuple[int, int]] = []  # (event_id, call_id)
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

    def _observe(self, users, items, rounds):
        """The rewards of ``items`` to ``users`` at the 1-based ``rounds``,
        for scalars and arrays alike; sign feedback is +1 where the noise
        draw falls below the mean, else -1."""
        mean = self.instance.rewards[users, items]
        noise = self._noise[users, rounds - 1]
        if self.instance.noise.kind == "gaussian":
            return mean + noise
        return 2.0 * (noise < mean) - 1.0

    def recommend(self, user: int, item: int, purpose: str,
                  consumable: bool = False) -> tuple[float, int]:
        """``recommend_many`` of the one pair (user, item): the observed
        value and the event id."""
        values, event_ids = self.recommend_many([user], [item], purpose,
                                                consumable)
        return float(values[0]), int(event_ids[0])

    def recommend_many(self, users: np.ndarray, items: np.ndarray,
                       purpose: str | Sequence[str],
                       consumable: bool | np.ndarray = False,
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Recommend items[i] to users[i] at the user's next round, for each
        i in order.  ``purpose`` and ``consumable`` are one value for the
        whole batch or one per pair; ``consumable`` marks the observation as
        consumed by estimation at recommendation time (the exploration
        path), otherwise the value is stored for potential reuse.  Returns
        the observed values and the event ids.  Checks the whole batch
        before any write: :class:`ProtocolError` if a user would pass round
        T, then :class:`BudgetError` if a pair would pass the budget, and
        ``IndexError`` or ``ValueError`` for a user or item out of range,
        negative ones included; a failed batch leaves the simulation as it
        was."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if not users.size:
            return np.zeros(0), np.zeros(0, dtype=np.int64)
        per_user = np.bincount(users, minlength=self.instance.n_users)
        rounds = self.rounds_done[users] + 1
        steps = np.arange(users.size)
        if per_user.max() > 1:
            # each entry's earlier entries of the same user in the batch
            order, starts = _runs(users)
            repeat = np.empty_like(steps)
            repeat[order] = steps - np.maximum.accumulate(
                np.where(starts, steps, 0))
            rounds += repeat
        if rounds.max() > self.instance.horizon:
            user = users[rounds.argmax()]
            raise ProtocolError(
                f"user {user} already has {self.rounds_done[user]} rounds "
                f"and would pass round {self.instance.horizon}")
        event_ids = self.n_events + steps
        # shaped before any write, so a flag or purpose list of the wrong
        # length raises with the simulation unchanged
        stored = np.broadcast_to(
            self.ledger.reusable | ~np.asarray(consumable, dtype=bool),
            users.shape)
        if not isinstance(purpose, str) and len(purpose) not in (1, users.size):
            raise ValueError(f"{len(purpose)} purposes for a batch of "
                             f"{users.size} recommendations")
        self.ledger.record_many(users, items)
        values = self._observe(users, items, rounds)
        batch = slice(self.n_events, self.n_events + users.size)
        self.event_round[batch] = rounds
        self.event_user[batch] = users
        self.event_item[batch] = items
        if isinstance(purpose, str):
            self.event_purpose[batch] = self.purposes.setdefault(
                purpose, len(self.purposes))
        else:
            for name in dict.fromkeys(purpose):  # codes in first-use order
                self.purposes.setdefault(name, len(self.purposes))
            self.event_purpose[batch] = [self.purposes[name]
                                         for name in purpose]
        self.event_reward[batch] = values
        self.event_stored[batch] = stored
        self.n_events += users.size
        self.rounds_done += per_user
        return values, event_ids

    def _newest_stored(self, user: int, item: int) -> int:
        """The pair's most recent stored event id, -1 for none."""
        n = self.n_events
        hits = np.flatnonzero(self.event_stored[:n]
                              & (self.event_user[:n] == user)
                              & (self.event_item[:n] == item))
        return int(hits[-1]) if hits.size else -1

    def has_stored(self, user: int, item: int) -> bool:
        return self._newest_stored(user, item) >= 0

    def reuse_observation(self, user: int, item: int) -> tuple[float, int]:
        """Pull the pair's most recent stored observation without using a
        round or budget; a strict ledger consumes it."""
        event_id = self._newest_stored(user, item)
        if event_id < 0:
            raise KeyError((user, item))
        if not self.ledger.reusable:
            self.event_stored[event_id] = False
        self.reuse_log.append((int(self.rounds_done[user]), user, item, event_id))
        return float(self.event_reward[event_id]), event_id

    def mark_consumed(self, event_ids: list[int]) -> int:
        """Record a new estimate call as consuming ``event_ids``; its id."""
        self._estimate_calls += 1
        self.consumed.extend((eid, self._estimate_calls) for eid in event_ids)
        return self._estimate_calls

    # -- bulk views --------------------------------------------------------

    @property
    def events(self) -> list[Event]:
        """Read-only view: the log as :class:`Event` records, rebuilt from
        the columns on each access."""
        n = self.n_events
        consumers: list[list[int]] = [[] for _ in range(n)]
        for eid, call in self.consumed:
            consumers[eid].append(call)
        names = list(self.purposes)
        columns = (self.event_round, self.event_user, self.event_item,
                   self.event_purpose, self.event_reward)
        return [Event(t, user, item, names[code], reward, calls)
                for t, user, item, code, reward, calls
                in zip(*(col[:n].tolist() for col in columns), consumers)]

    def finished(self) -> bool:
        return bool((self.rounds_done == self.instance.horizon).all())

    def choice_matrix(self) -> np.ndarray:
        """(M, T) chosen item per user per round; requires a finished run."""
        if not self.finished():
            raise ProtocolError("run incomplete: not every user has T rounds")
        n = self.n_events
        out = np.full((self.instance.n_users, self.instance.horizon), -1,
                      dtype=np.int64)
        out[self.event_user[:n], self.event_round[:n] - 1] = self.event_item[:n]
        if (out < 0).any():
            raise ProtocolError("a (user, round) slot has no recommendation")
        return out

    def unblocked_in(self, user: int, items: np.ndarray) -> np.ndarray:
        counts = self.ledger.counts[user, items]
        return items[counts < self.instance.budget]

    def any_unblocked(self, users: int | np.ndarray,
                      preferred: np.ndarray) -> int | np.ndarray:
        """:func:`lowest_unblocked` on the ledger rows of ``users``: an item
        for one user, an array of items for an array of users."""
        picks = lowest_unblocked(self.ledger.counts[users], preferred,
                                 self.instance.budget)
        return int(picks) if np.ndim(users) == 0 else picks


class Batch:
    """Recommendations decided but not yet recorded: ``flush`` records them
    in order with one ``Simulation.recommend_many`` call, and ``value``
    gives the reward it will record for a queued one."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.users, self.items, self.purposes, self.consumable = [], [], [], []

    def add(self, user: int, item: int, purpose: str,
            consumable: bool = False) -> int:
        """Queue one recommendation; the event id it will get."""
        self.users.append(user)
        self.items.append(item)
        self.purposes.append(purpose)
        self.consumable.append(consumable)
        return self.sim.n_events + len(self.users) - 1

    def value(self, event_id: int) -> float:
        """The reward ``flush`` will record for the entry queued as
        ``event_id``: the entry's round is the user's recorded rounds plus
        the user's earlier entries in the queue."""
        pos = event_id - self.sim.n_events
        if pos < 0:
            raise KeyError(f"event {event_id} is already recorded")
        user = self.users[pos]
        rounds = self.sim.rounds_done[user] + self.users[:pos].count(user) + 1
        return float(self.sim._observe(user, self.items[pos], rounds))

    def flush(self) -> None:
        if self.users:
            self.sim.recommend_many(self.users, self.items, self.purposes,
                                    np.array(self.consumable))
            self.users, self.items, self.purposes, self.consumable = \
                [], [], [], []


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


def _integer(value) -> int:
    """An integral number; a bool or a fraction is an error, not truncated."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _real(value) -> float:
    """A real number; a bool or a string is an error, not converted."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"not a real number: {value!r}")
    return float(value)


def _integers(values) -> np.ndarray:
    """An int64 array of integral numbers, each checked by ``_integer``."""
    return np.asarray([_integer(value) for value in values], dtype=np.int64)


def instance_from_json(text: str) -> Instance:
    doc = json.loads(text)
    try:
        noise = NoiseModel(doc["noise"]["kind"],
                           _real(doc["noise"].get("sigma", 0.0)))
        item_cl = doc.get("item_cluster_of")
        return Instance(
            n_users=_integer(doc["M"]), n_items=_integer(doc["N"]),
            horizon=_integer(doc["T"]), budget=_integer(doc["B"]),
            n_clusters=_integer(doc["C"]),
            cluster_of=_integers(doc["cluster_of"]),
            rewards=np.array([[_real(p) for p in row] for row in doc["P"]],
                             dtype=np.float64),
            noise=noise,
            item_cluster_of=None if item_cl is None else _integers(item_cl),
        )
    except KeyError as exc:
        raise ConfigurationError(f"instance document missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"invalid instance document: {exc}") from exc
