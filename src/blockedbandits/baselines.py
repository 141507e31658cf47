"""Reference policies: explore-then-commit, the practical phased variant,
neighborhood collaborative greedy, the clairvoyant oracle, and uniform random.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import phased
from .completion import SolverConfig, estimate
from .env import Batch, ConfigurationError, Simulation, mean_reward_matrix

__all__ = [
    "EtcConfig",
    "PracticalConfig",
    "CollabGreedyConfig",
    "run_etc",
    "run_practical",
    "run_collab_greedy",
    "run_oracle",
    "run_random",
    "etc_sampling_prob",
    "kmeans",
    "pick_k_elbow",
]


# -- explore-then-commit -----------------------------------------------------


@dataclass(frozen=True)
class EtcConfig:
    m_target: float | None = None  # expected exploration rounds; sets p = m/N
    mu_bound: float = 2.0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        phased._check_positive("etc", self, ("m_target", "mu_bound"))


def etc_sampling_prob(n_users: int, n_items: int, horizon: int, sigma: float,
                      rank: int, reward_ceiling: float,
                      mu_bound: float) -> float:
    """Exploration rate balancing estimation error against exploration cost.

    (N * Pmax)^(-2/3) * (T * sigma * r * mu^(3/2) / sqrt(d2))^(2/3), floored
    at mu^2 / d2, the minimum rate for completion to see enough entries.  A
    rate past the float range is inf.
    """
    d2 = min(n_users, n_items)
    ceiling = max(reward_ceiling, 1e-12)
    try:
        main = (n_items * ceiling) ** (-2 / 3) * (
            horizon * sigma * rank * mu_bound ** 1.5 / math.sqrt(d2)
        ) ** (2 / 3)
        return max(main, mu_bound ** 2 / d2)
    except OverflowError:
        # mu^2 past the float range: the same rate from logs
        log_mu, log_d2 = math.log(mu_bound), math.log(d2)
        log_main = 2 / 3 * (phased._log(horizon * sigma * rank) + 1.5 * log_mu
                            - 0.5 * log_d2 - math.log(n_items * ceiling))
        return phased._exp(max(log_main, 2 * log_mu - log_d2))


def run_etc(sim: Simulation, cfg: EtcConfig, rng: np.random.Generator) -> None:
    """The phased engine's exploration block over all users and items (one
    Bernoulli pattern, one completion call), then the commit walk on the
    estimate."""
    inst = sim.instance
    if cfg.m_target is not None:
        p = cfg.m_target / inst.n_items
    else:
        p = etc_sampling_prob(inst.n_users, inst.n_items, inst.horizon,
                              inst.noise.scale, inst.n_clusters,
                              inst.reward_ceiling, cfg.mu_bound)
    if not (0 < p <= 1):
        warnings.warn(f"exploration rate {p:.3g} clamped into (0, 1]")
        p = min(max(p, 1e-6), 1.0)

    scores, _ = phased._explore(sim, np.arange(inst.n_users),
                                np.arange(inst.n_items), 0, p, cfg.solver,
                                rng)
    if scores is None:
        scores = np.zeros((inst.n_users, inst.n_items))
    _commit(sim, scores, "commit")


def _commit(sim: Simulation, scores: np.ndarray, purpose: str) -> None:
    """Each user walks down its stable descending order of ``scores``,
    skipping pairs at budget, until it has T rounds; all walks are recorded
    as one batch."""
    inst = sim.instance
    order = np.argsort(-scores, axis=1, kind="stable")
    walks = [np.repeat(row, inst.budget - sim.ledger.counts[user, row])
             [:inst.horizon - sim.rounds_done[user]]
             for user, row in enumerate(order)]
    users = np.repeat(np.arange(inst.n_users), [w.size for w in walks])
    sim.recommend_many(users, np.concatenate(walks), purpose)


# -- practical phased variant (k-means refinement + in-group exploitation) --

# smallest relative SSE gain for which pick_k_elbow adds another cluster
ELBOW_THRESHOLD = 0.10


@dataclass(frozen=True)
class PracticalConfig:
    phase_length_base: int = 10  # phase ell lasts base + slope * ell rounds
    phase_length_slope: int = 2
    gap_divisor: float = 8.0  # gap at phase ell is ceiling / (divisor * 2^ell)
    # prune and exploit on cluster-centroid rows instead of each user's own
    # completion row; off, since the per-user rows exploit better on d3
    centroid_smoothing: bool = False
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        # a phase of no rounds never ends: the loop spins until 2^level
        # overflows the gap
        phased._check_positive("practical", self,
                               ("phase_length_base", "gap_divisor"))
        if not self.phase_length_slope >= 0:
            raise ConfigurationError("practical phase_length_slope must be "
                                     f">= 0, got {self.phase_length_slope}")


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
           restarts: int = 5, iters: int = 100) -> tuple[np.ndarray, float]:
    """Lloyd's algorithm with farthest-point initialisation.

    Returns (labels, sse); the within-cluster SSE is non-increasing across
    Lloyd iterations and the best of ``restarts`` runs is kept.
    """
    n = points.shape[0]
    k = min(k, n)
    best_labels = np.zeros(n, dtype=np.int64)
    best_sse = np.inf
    for _ in range(restarts):
        centers = [points[rng.integers(n)]]
        for _ in range(k - 1):
            d2 = np.min(
                [((points - c) ** 2).sum(axis=1) for c in centers], axis=0)
            centers.append(points[int(np.argmax(d2))])
        centers = np.stack(centers)
        labels = np.zeros(n, dtype=np.int64)
        prev_sse = np.inf
        for _ in range(iters):
            d2 = ((points[:, None, :] - centers[None]) ** 2).sum(axis=2)
            labels = d2.argmin(axis=1)
            sse = float(d2[np.arange(n), labels].sum())
            for j in range(k):
                sel = labels == j
                if sel.any():
                    centers[j] = points[sel].mean(axis=0)
            if prev_sse - sse <= 1e-12 * max(1.0, prev_sse):
                prev_sse = sse
                break
            prev_sse = sse
        if prev_sse < best_sse:
            best_sse = prev_sse
            best_labels = labels
    return best_labels, best_sse


def pick_k_elbow(points: np.ndarray, k_max: int,
                 rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Pick the cluster count by the elbow of the SSE curve.

    Stops at the first k whose SSE gain over k-1, measured relative to the
    total SSE at k=1, falls below ``ELBOW_THRESHOLD`` and returns k-1;
    relative to k=1 rather than k-1 so near-perfect clusterings are not split
    further on noise.
    """
    k_max = max(1, min(k_max, points.shape[0]))
    sses: list[float] = []
    labelings: list[np.ndarray] = []
    for k in range(1, k_max + 1):
        labels, sse = kmeans(points, k, rng)
        sses.append(sse)
        labelings.append(labels)
        if k >= 2:
            total = max(sses[0], 1e-300)
            improvement = (sses[k - 2] - sse) / total
            if improvement < ELBOW_THRESHOLD:
                return k - 1, labelings[k - 2]
    return k_max, labelings[-1]


@dataclass
class PracticalPhase:
    level: int
    groups: list[tuple[np.ndarray, np.ndarray]]  # (users, active) after refining


@dataclass
class _Group:
    """One user group of the practical variant and its exploit state.

    ``prior`` holds each member's completion row over ``active`` (None until
    the first estimate); ``reward_sum`` and ``reward_count`` are the group's
    observed rewards per active item, updated at every recommendation.
    """

    users: np.ndarray
    active: np.ndarray
    prior: np.ndarray | None = None
    reward_sum: np.ndarray | None = None
    reward_count: np.ndarray | None = None


def run_practical(sim: Simulation, cfg: PracticalConfig,
                  rng: np.random.Generator) -> list[PracticalPhase]:
    """Phases of in-group recommendation, completion, k-means refinement.

    Phase 1 recommends one uniformly random unblocked item per user per
    round.  After each phase the variant solves the nuclear-norm program with
    lam = 10 * sigma * sqrt(m_ell / M), clusters users by their estimated
    rows (elbow-selected k <= C), and keeps per cluster the items within the
    phase gap of some member's rank-T estimate.

    From the first estimate on, every user exploits: it gets the unblocked
    item of its group's active set with the highest score (group reward sum
    + own completion value) / (group observation count + 1), the group's
    empirical mean shrunk toward the user's estimate by one pseudo
    observation and updated at every recommendation.

    Observations accumulate across phases (every pair is observed at most
    once under B = 1, and reusing them sharpens later estimates), and with
    ``centroid_smoothing`` the pruning rule and the exploit prior read each
    user's row off its cluster centroid instead of the user's own row.
    """
    inst = sim.instance
    horizon = inst.horizon
    n_clusters, sigma = inst.n_clusters, inst.noise.scale
    all_items = np.arange(inst.n_items)
    groups = [_Group(np.arange(inst.n_users), all_items)]
    report: list[PracticalPhase] = []
    t = 0
    level = 1
    while t < horizon:
        m_ell = cfg.phase_length_base + cfg.phase_length_slope * level
        nu_ell = inst.reward_ceiling / (cfg.gap_divisor * 2 ** level)
        lam = 10.0 * sigma * math.sqrt(m_ell / inst.n_users)
        rounds = min(m_ell, horizon - t)
        for _ in range(rounds):
            # One batch a round, recorded at its end.  The groups partition
            # the users, so each user is queued once a round, and its ledger
            # row holds every round it has played when it decides.
            batch = Batch(sim)
            for g in groups:
                for i, user in enumerate(g.users):
                    free = sim.ledger.counts[user, g.active] < inst.budget
                    if g.prior is not None and free.any():
                        score = (g.reward_sum + g.prior[i]) / (g.reward_count + 1)
                        pos = int(np.argmax(np.where(free, score, -np.inf)))
                        event = batch.add(user, int(g.active[pos]), "exploit",
                                          consumable=True)
                        g.reward_sum[pos] += batch.value(event)
                        g.reward_count[pos] += 1
                    else:
                        cand = g.active[free] if free.any() \
                            else sim.unblocked_in(user, all_items)
                        batch.add(user, int(cand[rng.integers(cand.size)]),
                                  "explore", consumable=True)
            batch.flush()
        t += rounds
        if t >= horizon:
            break

        # the event log's columns, indexed by event id
        n = sim.n_events
        ev_user, ev_item = sim.event_user[:n], sim.event_item[:n]
        ev_reward = sim.event_reward[:n]
        # per-(user, item) observed reward sums, for the group scores; each
        # recommendation is observed once, so the ledger counts them
        reward_sum = np.zeros((inst.n_users, inst.n_items))
        np.add.at(reward_sum, (ev_user, ev_item), ev_reward)
        solver = replace(cfg.solver, lam_override=lam)
        next_groups: list[_Group] = []
        for g in groups:
            users, active = g.users, g.active
            local_u = np.full(inst.n_users, -1)
            local_u[users] = np.arange(users.size)
            local_j = np.full(inst.n_items, -1)
            local_j[active] = np.arange(active.size)
            rows, cols = local_u[ev_user], local_j[ev_item]
            inside = np.flatnonzero((rows >= 0) & (cols >= 0))
            if not inside.size:
                next_groups.append(g)
                continue
            omega = np.stack([rows[inside], cols[inside]], axis=1)
            res = estimate(len(users), len(active), omega, ev_reward[inside],
                           sigma, solver, rng)
            sim.mark_consumed(inside.tolist())
            rows_est = res.matrix
            k, labels = pick_k_elbow(rows_est, n_clusters, rng)
            if cfg.centroid_smoothing:
                for c in range(k):
                    sel = labels == c
                    if sel.any():
                        rows_est[sel] = rows_est[sel].mean(axis=0)
            order = np.sort(rows_est, axis=1)[:, ::-1]
            rank_idx = min(horizon, active.size) - 1
            cutoff = order[:, rank_idx]  # each user's rank-T estimated value
            keep_per_user = rows_est >= (cutoff[:, None] - nu_ell)
            for c in range(k):
                sel = np.flatnonzero(labels == c)
                if not sel.size:
                    continue
                keep = np.flatnonzero(keep_per_user[sel].any(axis=0))
                sub = np.ix_(users[sel], active[keep])
                next_groups.append(_Group(
                    users[sel], active[keep], rows_est[np.ix_(sel, keep)],
                    reward_sum[sub].sum(axis=0),
                    sim.ledger.counts[sub].sum(axis=0, dtype=np.float64)))
        groups = next_groups
        report.append(PracticalPhase(
            level=level, groups=[(g.users, g.active) for g in groups]))
        level += 1
    return report


# -- neighborhood collaborative greedy ---------------------------------------


@dataclass(frozen=True)
class CollabGreedyConfig:
    theta: float = 0.5  # random-exploration probability decays as t^-theta
    alpha: float = 0.5  # joint-exploration probability decays as t^-alpha

    def __post_init__(self) -> None:
        # t^0 = 1 would explore uniformly every round, and a negative
        # exponent makes the "probability" grow past 1
        phased._check_positive("collab-greedy", self, ("theta", "alpha"))


def explore_probabilities(t: int, cfg: CollabGreedyConfig) -> tuple[float, float]:
    return t ** (-cfg.theta), t ** (-cfg.alpha)


def run_collab_greedy(sim: Simulation, cfg: CollabGreedyConfig,
                      rng: np.random.Generator) -> None:
    """Epsilon-greedy with a shared joint-exploration item sequence.

    Only meaningful for +/-1 sign feedback: like-rates are estimated within a
    neighborhood of users whose co-rated items agree at least half the time.
    Reconstructed baseline; exact neighborhood details follow common practice
    rather than any single reference implementation.

    The neighbourhood statistics are updated only at each round's M picks:
    ``signs`` (float32, the sign of each pair's rating sum), ``signed_by``
    (item-major, whether that sign is nonzero), ``marks`` (float32,
    ``[liked | rated]`` side by side) and ``corated``, whether two users
    have a nonzero sign on a common item.  ``corated`` takes in the
    ``signed_by`` rows of the round's newly signed pairs, and is rebuilt
    with one product in a round where some rating sum returns to 0, which
    only B >= 2 allows.  Every product of the float32 state is a count of
    at most max(M, N) < 2^24, which float32 holds exactly whatever order
    BLAS sums in, so a row slice of a product equals that row of the whole
    product.  Two users with ``co`` co-rated items and sign product sum
    ``dot`` agree on (co + dot) / 2 of them, so "agree at least half the
    time" is exactly ``dot >= 0``, with no rounded quotient to compare.

    Each round draws every user's branch with one ``rng.random(M)``, and
    computes neighbour rows and scores only for the users whose draw landed
    in the greedy branch (none while p_rand + p_joint >= 1).  The uniform
    users, those of the random branch, of a blocked joint item and of a
    greedy branch with no scorable item, then take one array-bounded
    ``rng.integers`` draw, as in ``run_random``.  The products go into
    buffers allocated once per run and sliced to the row count; temporaries
    whose size changes every round would each be a fresh memory mapping
    that faults in anew.  The free mask and the users' free counts follow
    the picks.
    """
    inst = sim.instance
    if inst.noise.kind != "sign":
        raise ConfigurationError("collaborative greedy needs sign feedback")
    n_u, n_i = inst.n_users, inst.n_items
    horizon = inst.horizon
    rating_sum = np.zeros((n_u, n_i))
    signs = np.zeros((n_u, n_i), dtype=np.float32)
    signed_by = np.zeros((n_i, n_u), dtype=bool)  # item-major nonzero signs
    corated = np.zeros((n_u, n_u), dtype=bool)
    marks = np.zeros((n_u, 2 * n_i), dtype=np.float32)
    marks[:, n_i:] = sim.ledger.counts > 0
    free = sim.ledger.counts < inst.budget
    n_free = free.sum(axis=1)
    taken = np.empty((n_u, n_i), dtype=np.float32)  # rows of signs
    dot = np.empty((n_u, n_u), dtype=np.float32)
    near = np.empty((n_u, n_u), dtype=np.float32)
    counts = np.empty((n_u, 2 * n_i), dtype=np.float32)
    scorable = np.empty((n_u, n_i), dtype=bool)
    rate = np.empty((n_u, n_i))
    off = np.empty((n_u, n_i))

    def greedy_picks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The greedy pick of each user in ``rows`` and whether it has a
        scorable item, from everything rated before this round.  The rates
        are float64 quotients of exact counts: equal rates compare equal,
        and argmax takes the lowest such item."""
        r = rows.size
        np.take(signs, rows, axis=0, out=taken[:r])
        np.matmul(taken[:r], signs.T, out=dot[:r])
        np.logical_and(corated[rows], dot[:r] >= 0, out=near[:r])
        near[np.arange(r), rows] = 1.0
        np.matmul(near[:r], marks, out=counts[:r])
        likes, pulls = counts[:r, :n_i], counts[:r, n_i:]
        np.take(free, rows, axis=0, out=scorable[:r])
        scorable[:r] &= pulls > 0
        np.copyto(rate[:r], likes)
        np.maximum(pulls, 1.0, out=off[:r])  # 0 / 1 where nobody rated
        rate[:r] /= off[:r]
        # 2 off each item the user cannot score puts it below every rate
        # in [0, 1] and leaves the others as they are; arithmetic, as a
        # write through a scattered mask is several times slower
        np.logical_not(scorable[:r], out=off[:r])
        off[:r] *= 2.0
        rate[:r] -= off[:r]
        return rate[:r].argmax(axis=1), scorable[:r].any(axis=1)

    joint_sequence = rng.permutation(n_i)
    joint_ptr = 0
    users = np.arange(n_u)
    for t in range(1, horizon + 1):
        p_rand, p_joint = explore_probabilities(t, cfg)
        joint_item = int(joint_sequence[joint_ptr % n_i])
        joint_ptr += 1
        # users are distinct within a round, so the round's own picks do
        # not change any user's branch or pick
        draws = rng.random(n_u)
        picks = np.full(n_u, joint_item)
        uniform = (draws < p_rand) | (
            (draws < p_rand + p_joint) & ~free[:, joint_item])
        greedy = np.flatnonzero(draws >= p_rand + p_joint)
        if greedy.size:
            picks[greedy], greedy_ok = greedy_picks(greedy)
            uniform[greedy[~greedy_ok]] = True
        sizes = n_free[uniform]
        picks[uniform] = _kth_free(free[uniform], rng.integers(0, sizes),
                                   sizes)
        values, _ = sim.recommend_many(users, picks, "greedy")
        _drop_full(sim, free, n_free, picks)
        rating_sum[users, picks] += values
        sign = np.sign(rating_sum[users, picks])
        signs[users, picks] = sign
        marks[users, picks] = sign > 0
        marks[users, n_i + picks] = 1.0
        had, rated = signed_by[picks, users], sign != 0
        signed_by[picks, users] = rated
        if (had & ~rated).any():
            corated[:] = _co_rating(signed_by)
        else:
            # each newly signed pair makes its user co-rate with every
            # user who signed its item; corated stays symmetric
            gained = rated & ~had
            corated[gained] |= signed_by[picks[gained]]
            np.logical_or(corated, corated.T, out=corated)


def _co_rating(signed_by: np.ndarray) -> np.ndarray:
    """Whether each two users both have a nonzero sign on some item, from
    the item-major boolean matrix ``signed_by`` (N x M): one product of
    float32 counts below 2^24."""
    counts = signed_by.astype(np.float32)
    return counts.T @ counts > 0


# -- oracle and uniform random ------------------------------------------------


def run_oracle(sim: Simulation) -> None:
    """Clairvoyant schedule: the commit walk on the true means, which gives
    each user its top ceil(T/B) mean-reward items, budget times each (the
    last one for the remainder).  Zero regret by construction."""
    _commit(sim, mean_reward_matrix(sim.instance), "oracle")


def _kth_free(free: np.ndarray, k: np.ndarray,
              sizes: np.ndarray) -> np.ndarray:
    """Per row of the boolean matrix ``free``, the index of its k-th (from
    0) True entry; row i needs more than k[i] True entries, and ``sizes``
    holds the rows' True counts."""
    n_rows, n_cols = free.shape
    starts = np.cumsum(sizes) - sizes  # row i's first True in flat order
    return np.flatnonzero(free)[starts + k] - np.arange(n_rows) * n_cols


def _drop_full(sim: Simulation, free: np.ndarray, n_free: np.ndarray,
               picks: np.ndarray) -> None:
    """After a round in which each user u got ``picks[u]``: clear the
    ``free`` flag of each picked pair now at budget, and take it off its
    user's count ``n_free``."""
    users = np.arange(picks.size)
    full = sim.ledger.counts[users, picks] >= sim.instance.budget
    free[users, picks] = ~full
    n_free -= full


def run_random(sim: Simulation, rng: np.random.Generator) -> None:
    """Each round, every user gets a uniform draw from its unblocked items;
    one array-bounded draw per round, the same stream as a draw per user.
    The free mask and the users' free counts follow the picks."""
    inst = sim.instance
    users = np.arange(inst.n_users)
    free = sim.ledger.counts < inst.budget
    n_free = free.sum(axis=1)
    for _ in range(inst.horizon):
        picks = _kth_free(free, rng.integers(0, n_free), n_free)
        sim.recommend_many(users, picks, "random")
        _drop_full(sim, free, n_free, picks)
