"""Phased collaborative bandit under a per-pair recommendation budget.

The policy runs in phases of geometrically increasing accuracy.  Each phase,
per user group: (1) an exploit component recommends jointly-safe high-reward
items ("golden" items, the ones an oracle would spend budget on) whenever the
current estimate certifies a large gap; (2) an explore component samples a
Bernoulli pattern of user-item pairs, recommends them, and runs low-rank
completion to halve the estimate error; (3) users are re-partitioned by the
connected components of a similarity graph on estimated rows, and each part
keeps only items close to its users' remaining golden ranks.  Groups evolve
asynchronously; one count matrix, the ledger's, guarantees no pair ever
exceeds budget B, and ``Simulation.consumed`` records which estimation call
consumed which observation, none of them more than one call.  The
item-clustered variant (:mod:`item_phased`) runs the same task loop with a
reusable ledger and an item-closure hook.

Each block is recorded with ``Simulation.recommend_many``: the explore
block as one ``env.Batch``, each exploit round as one batch, and the fill
as one.  A user's decisions read a local copy of its ledger row, so the
events, the reuse log and the draws from ``rng`` are those of recommending
one pair at a time; an explore batch is split only where a stored
observation is read.  A blocked pick falls back to ``env.lowest_unblocked``,
the simulator's one rule for it.

Costs: ``similarity_components`` on g rows of n columns takes O(g^2 n)
time and O(g^2) memory, as it builds the graph one column at a time; a
user's candidate walk (``_walk``) draws the uniforms of the picks it owes
in one ``rng.random`` call, not one call per pick.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .completion import SolverConfig, estimate
from .env import Batch, ConfigurationError, Simulation, lowest_unblocked

__all__ = [
    "PhasedConfig",
    "PhaseRecord",
    "RunReport",
    "sampling_prob",
    "exploration_floor",
    "golden_rank",
    "similarity_components",
    "run_phased",
]

# Gap-schedule constants: an estimate accurate to eps certifies golden items
# once the top-to-target gap exceeds EXPLOIT_GAP_FACTOR * C * delta, where
# delta = eps / (ACCURACY_TO_GAP * C); similarity edges require agreement
# within EDGE_FACTOR * delta on every active item.
ACCURACY_TO_GAP = 88
EXPLOIT_GAP_FACTOR = 64
EDGE_FACTOR = 2

# Deepest phase level that may explore; deeper tasks fill until the horizon.
# At zero noise the sampling rate is the exploration floor, which does not
# grow with the level, so p never reaches 1 to end the recursion.
MAX_PHASES = 64

# Item-set hook of the task loop: (active items, estimate rows of the group
# over them, selected items, delta) -> the items to use in their place.
Expand = Callable[[np.ndarray, np.ndarray, np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class PhasedConfig:
    """The caller's choices.  The policy reads what it is assumed to know
    about the instance (cluster count C, noise scale sigma and reward
    ceiling) from ``sim.instance``."""

    mu_bound: float = 2.0  # incoherence bound fed to the sampling rule
    eps1: float | None = None  # phase-1 accuracy; defaults to reward_ceiling
    floor_c: float = 1.5  # constant in the noiseless sampling floor
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        _check_positive("phased", self, ("mu_bound", "eps1", "floor_c"))


def _check_positive(algorithm: str, cfg, names: tuple[str, ...]) -> None:
    """Reject a policy config whose named fields are not > 0 (None is
    unset); NaN fails too."""
    for name in names:
        value = getattr(cfg, name)
        if value is not None and not value > 0:
            raise ConfigurationError(
                f"{algorithm} {name} must be > 0, got {value}")


@dataclass
class PhaseRecord:
    level: int
    users: np.ndarray
    active_before: np.ndarray
    active_after_exploit: np.ndarray
    components: list[np.ndarray] = field(default_factory=list)
    explored: bool = False
    sampling_p: float = 0.0


@dataclass
class RunReport:
    records: list[PhaseRecord] = field(default_factory=list)

    def components_at_level(self, level: int) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for rec in self.records:
            if rec.level == level:
                out.extend(rec.components)
        return out


def sampling_prob(n_users: int, n_items: int, delta: float, sigma: float,
                  mu_bound: float) -> float:
    """Bernoulli rate that drives the completion error below ``delta``.

    sigma^2 * mu^3 * log(d1) / (delta^2 * d2) with d1/d2 the larger and
    smaller of the two dimensions.  Unclamped; the caller routes p >= 1 to
    the terminal branch.  A rate past the float range is inf, and one below
    it is 0.
    """
    d1 = max(n_users, n_items)
    d2 = min(n_users, n_items)
    if delta <= 0 or d2 == 0:
        return float("inf")
    try:
        return sigma ** 2 * mu_bound ** 3 * math.log(d1) / (delta ** 2 * d2)
    except (OverflowError, ZeroDivisionError):
        # a power past the float range, or delta^2 below it
        return _exp(2 * _log(sigma) + 3 * math.log(mu_bound)
                    + _log(math.log(d1)) - 2 * math.log(delta)
                    - math.log(d2))


def _log(x: float) -> float:
    """log(x), -inf at 0."""
    return math.log(x) if x > 0 else -math.inf


def _exp(x: float) -> float:
    """exp(x), inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def exploration_floor(n_users: int, n_items: int, mu_bound: float, rank: int,
                      floor_c: float = 1.5) -> float:
    """Minimum sampling rate for completion to identify a rank-``rank`` block.

    Even noiseless completion needs on the order of mu * r * log(d1) observed
    entries per row/column; below this the accuracy-driven rate (which
    vanishes as sigma -> 0) would starve the solver.
    """
    d1 = max(n_users, n_items)
    d2 = min(n_users, n_items)
    if d2 == 0:
        return float("inf")
    return floor_c * mu_bound * rank * math.log(d1) / d2


def golden_rank(horizon: int, budget: int, exploit_rounds: int) -> int:
    """Index (1-based) of the last golden slot still unclaimed."""
    return math.ceil(horizon / budget) - exploit_rounds // budget


def similarity_components(est_rows: np.ndarray, threshold: float) -> list[np.ndarray]:
    """Partition row indices into components of the agreement graph.

    Two rows are adjacent when they differ by at most ``threshold`` on every
    column.  The g x g adjacency is built one column at a time, so a call
    needs O(g^2) memory for g rows, not the g x g x n of comparing every
    column at once; a NaN difference on any column is no edge.  Returns
    local index arrays, each ascending, ordered by their smallest member.
    """
    g = est_rows.shape[0]
    adj = np.ones((g, g), dtype=bool)
    for col in est_rows.T:
        adj &= np.abs(col[:, None] - col) <= threshold
    # Min-label propagation with pointer jumping: every label stays a member
    # of its row's component and never rises, so the fixed point gives each
    # row the smallest member of its component.
    labels = np.arange(g)
    while True:
        new = np.minimum(labels, np.where(adj, labels, g).min(axis=1))
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


@dataclass
class _Task:
    level: int
    users: np.ndarray
    active: np.ndarray
    t0: int
    t_exploit: int
    eps: float


def _walk(counts: list[int], cand: list[int], budget: int, n: int,
          preferred: np.ndarray, rng: np.random.Generator) -> Iterator[int]:
    """One user's picks, made as they are asked for: each a uniform draw
    ``cand[int(u * len(cand))]`` from the list ``cand``, which an item
    leaves when its count in the user's ledger row ``counts`` (a local copy)
    reaches ``budget``; an empty list falls back to ``lowest_unblocked``
    over ``preferred``.  Each pick is added to ``counts``; between picks the
    caller may change counts outside ``cand`` only.  The caller takes at
    least ``n`` picks, and ``cand`` holds ``left`` of them, so the first
    min(n, left) uniforms ``u`` come from one ``rng.random`` call and no
    uniform is drawn that is not used; a later pick from ``cand`` draws
    one more.
    """
    left = sum(budget - counts[item] for item in cand)
    draws = chain(rng.random(min(n, left)).tolist(), iter(rng.random, None))
    while True:
        if cand:
            pos = int(next(draws) * len(cand))
            item = cand[pos]
            if counts[item] + 1 >= budget:
                del cand[pos]
        else:
            item = int(lowest_unblocked(np.array(counts), preferred, budget))
        counts[item] += 1
        yield item


def _explore(sim: Simulation, users: np.ndarray, active: np.ndarray, t0: int,
             p: float, solver: SolverConfig,
             rng: np.random.Generator) -> tuple[np.ndarray | None, int]:
    """Explore component: Bernoulli sampling, budget-aware recommendation,
    completion at the instance's noise scale.  Returns the estimated
    sub-matrix (or None) and the new round.

    Each user recommends its sampled items in order, for at most m rounds
    (the longest queue); a blocked pair feeds its stored observation, if
    any, to completion and gives its round to a filler, a uniform draw from
    the unblocked active items outside the user's sample; fillers pad the
    user to m rounds.  Decisions use a local copy of the user's ledger row,
    and the block is recorded as one batch, split only where a stored
    observation is read."""
    inst = sim.instance
    horizon, budget = inst.horizon, inst.budget
    picks = rng.random((len(users), len(active))) < p
    queues = [np.flatnonzero(row) for row in picks]
    m = min(max(map(len, queues), default=0), horizon - t0)
    if m == 0:
        return None, t0

    batch = Batch(sim)
    omega: list[tuple[int, int, int]] = []  # (local user, local item, event)
    for lu, (user, queue) in enumerate(zip(users.tolist(), queues)):
        in_omega = np.zeros(inst.n_items, dtype=bool)
        in_omega[active[queue]] = True
        row = sim.ledger.counts[user]
        free = row[active] < budget
        head = queue[:m]
        pad = max(m - len(queue), 0)
        counts = row.tolist()
        fillers = _walk(counts, active[free & ~in_omega[active]].tolist(),
                        budget, int((~free[head]).sum()) + pad, active, rng)
        for lj, item in zip(head.tolist(), active[head].tolist()):
            if counts[item] < budget:
                counts[item] += 1
                omega.append((lu, lj, batch.add(user, item, "explore",
                                                consumable=True)))
                continue
            # a blocked pair contributes a stored observation if it has
            # one, else it is dropped from the completion problem; the batch
            # is recorded first where it could change what is read: the
            # pair's stored flags (the batch holds the pair) or the user's
            # round that the reuse log takes
            if counts[item] > sim.ledger.counts[user, item]:
                batch.flush()
            if sim.has_stored(user, item):
                batch.flush()
                omega.append((lu, lj, sim.reuse_observation(user, item)[1]))
            batch.add(user, next(fillers), "filler")
        for filler in islice(fillers, pad):
            batch.add(user, filler, "filler")
    batch.flush()

    t_new = t0 + m
    if not omega:
        return None, t_new
    rows, cols, ids = np.array(omega).T
    result = estimate(len(users), len(active), np.stack([rows, cols], axis=1),
                      sim.event_reward[ids], inst.noise.scale, solver, rng)
    sim.mark_consumed(ids.tolist())
    return result.matrix, t_new


def _keep(active: np.ndarray, est: np.ndarray, seed: np.ndarray,
          delta: float) -> np.ndarray:
    """Identity item expansion: the selected items stay as they are."""
    return seed


def _exploit(sim: Simulation, users: np.ndarray, active: np.ndarray, t0: int,
             t_exploit: int, p_tilde: np.ndarray, delta_l: float,
             delta_next: float, expand: Expand = _keep,
             ) -> tuple[np.ndarray, int, int, list[int]]:
    """Exploit component: recommend certified golden items B times each.

    While some user's estimated gap between its best active item and the item
    at the remaining-golden rank exceeds the certification threshold, the
    union of items within EDGE_FACTOR * delta_next of each user's top,
    widened by ``expand``, is recommended B times to every group user
    (blocked pairs fall back to the lowest-index unblocked active item), then
    pruned from the active set.
    """
    inst = sim.instance
    horizon, budget = inst.horizon, inst.budget
    active = np.array(active, copy=True)
    chosen: list[int] = []
    threshold = EXPLOIT_GAP_FACTOR * inst.n_clusters * delta_l
    while t0 < horizon and active.size:
        rank = golden_rank(horizon, budget, t_exploit)
        if rank <= 0:
            break
        est = p_tilde[np.ix_(users, active)]
        order = np.sort(est, axis=1)[:, ::-1]
        idx = min(rank, active.size) - 1
        gaps = order[:, 0] - order[:, idx]
        if gaps.max() < threshold:
            break
        tops = order[:, 0]
        near_top = est >= tops[:, None] - EDGE_FACTOR * delta_next
        seed = active[np.flatnonzero(near_top.any(axis=0))]
        s_items = expand(active, est, seed, delta_next)
        n_rounds = min(len(s_items) * budget, horizon - t0)
        for step in range(n_rounds):
            _exploit_step(sim, users, int(s_items[step // budget]), active)
        t0 += n_rounds
        t_exploit += n_rounds
        chosen.extend(int(j) for j in s_items)
        keep = ~np.isin(active, s_items)
        active = active[keep]
    return active, t0, t_exploit, chosen


def _exploit_step(sim: Simulation, users: np.ndarray, item: int,
                  active: np.ndarray) -> None:
    """One exploit round, recorded as one batch: ``item`` to every user,
    and to a user whose pair is blocked, ``Simulation.any_unblocked`` over
    ``active`` as a filler."""
    blocked = sim.ledger.counts[users, item] >= sim.instance.budget
    picks = np.full(users.size, item)
    picks[blocked] = sim.any_unblocked(users[blocked], active)
    sim.recommend_many(users, picks,
                       np.where(blocked, "filler", "exploit").tolist())


def _fill_until_end(sim: Simulation, users: np.ndarray, active: np.ndarray,
                    t0: int, rng: np.random.Generator) -> None:
    """A uniform draw from the unblocked active items for every user and
    round left, one ``_walk`` per user, recorded as one batch."""
    budget = sim.instance.budget
    n = sim.instance.horizon - t0
    picks: list[int] = []
    for user in users.tolist():
        row = sim.ledger.counts[user]
        cand = active[row[active] < budget].tolist()
        picks.extend(islice(_walk(row.tolist(), cand, budget, n, active, rng),
                            n))
    sim.recommend_many(np.repeat(users, n), picks, "fill")


def run_phased(sim: Simulation, cfg: PhasedConfig,
               rng: np.random.Generator) -> RunReport:
    """Run the full phased policy on ``sim`` until every user has T rounds."""
    return _run(sim, cfg, rng, _keep)


def _run(sim: Simulation, cfg: PhasedConfig, rng: np.random.Generator,
         expand: Expand) -> RunReport:
    """The phased task loop; ``expand`` widens every item set it selects
    (certified golden items, and each component's next active set)."""
    inst = sim.instance
    horizon = inst.horizon
    p_tilde = np.zeros((inst.n_users, inst.n_items))
    report = RunReport()
    tasks = [_Task(level=1, users=np.arange(inst.n_users),
                   active=np.arange(inst.n_items), t0=0, t_exploit=0,
                   eps=inst.reward_ceiling if cfg.eps1 is None else cfg.eps1)]
    while tasks:
        task = tasks.pop(0)
        if task.t0 >= horizon:
            continue
        eps_next = task.eps / 2
        c_gap = ACCURACY_TO_GAP * inst.n_clusters
        delta_l = inst.reward_ceiling if task.level == 1 else task.eps / c_gap
        delta_next = eps_next / c_gap
        record = PhaseRecord(level=task.level, users=task.users,
                             active_before=task.active,
                             active_after_exploit=task.active)
        report.records.append(record)

        active, t0, t_exploit, _ = _exploit(
            sim, task.users, task.active, task.t0, task.t_exploit,
            p_tilde, delta_l, delta_next, expand)
        record.active_after_exploit = active
        if t0 >= horizon:
            continue
        if active.size == 0:
            _fill_until_end(sim, task.users, np.arange(inst.n_items), t0, rng)
            continue

        p_raw = sampling_prob(len(task.users), len(active), delta_next,
                              inst.noise.scale, cfg.mu_bound)
        p = max(p_raw, exploration_floor(len(task.users), len(active),
                                         cfg.mu_bound, inst.n_clusters,
                                         cfg.floor_c))
        record.sampling_p = p
        deep = task.level >= MAX_PHASES
        if active.size >= horizon ** (1 / 3) and p < 1 and not deep:
            block, t0 = _explore(sim, task.users, active, t0, p, cfg.solver,
                                 rng)
            record.explored = block is not None
            if block is not None:
                p_tilde[np.ix_(task.users, active)] = block
            if t0 >= horizon:
                continue
            rank = golden_rank(horizon, inst.budget, t_exploit)
            est = p_tilde[np.ix_(task.users, active)]
            order = np.sort(est, axis=1)[:, ::-1]
            idx = max(min(rank, active.size), 1) - 1
            cutoffs = order[:, idx]
            good = est >= (cutoffs[:, None] - EDGE_FACTOR * delta_next)
            comps = similarity_components(est, EDGE_FACTOR * delta_next)
            for comp in comps:
                comp_users = task.users[comp]
                record.components.append(comp_users)
                seed = active[np.flatnonzero(good[comp].any(axis=0))]
                joint = expand(active, est[comp], seed, delta_next)
                tasks.append(_Task(level=task.level + 1, users=comp_users,
                                   active=joint, t0=t0, t_exploit=t_exploit,
                                   eps=eps_next))
        else:
            _fill_until_end(sim, task.users, active, t0, rng)
    return report
