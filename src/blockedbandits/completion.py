"""Noisy low-rank matrix completion via nuclear-norm proximal gradient.

`solve_block` minimises  0.5 * sum_{(i,j) in Omega} (Q_ij - Z_ij)^2
+ lam * ||Q||_*  by iterative singular-value soft-thresholding, with
lam = c_lambda * sigma * sqrt(|Omega| / max(nrows, ncols)) unless overridden.
`estimate` handles rectangular problems by randomly partitioning the longer
axis into near-square blocks, solving each independently, and reassembling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CompletionProblem",
    "SolverConfig",
    "SolveResult",
    "EstimateResult",
    "Diagnostics",
    "solve_block",
    "estimate",
    "partition_count",
    "dump_problem",
    "diagnostics",
    "subset_floor_sample",
]

# Regularisation floor used when sigma == 0 but the mask is partial: with
# lam exactly 0 the proximal iteration cannot interpolate unobserved entries
# (it converges to the zero-filled mask), while a tiny positive lam recovers
# the minimum-nuclear-norm interpolant.  Relative to the data scale.
_ZERO_NOISE_LAMBDA = 1e-6


@dataclass(frozen=True)
class CompletionProblem:
    n_rows: int
    n_cols: int
    omega: np.ndarray  # (k, 2) int row/col indices of observed entries
    values: np.ndarray  # (k,) observed noisy values
    rank: int  # rank bound (analysis input; the solver does not need it)
    sigma: float  # noise scale used to set the regulariser

    def __post_init__(self) -> None:
        if self.omega.ndim != 2 or self.omega.shape[1] != 2:
            raise ValueError("omega must be a (k, 2) index array")
        if len(self.values) != len(self.omega):
            raise ValueError("values and omega length mismatch")
        if self.rank < 1:
            raise ValueError("rank bound must be >= 1")


@dataclass(frozen=True)
class SolverConfig:
    c_lambda: float = 2.0
    tol: float = 1e-8  # relative objective-change stopping rule
    max_iters: int = 2000
    step: float = 1.0  # masked quadratic has Lipschitz constant 1
    lam_override: float | None = None  # explicit regulariser (practical variant)

    def __post_init__(self) -> None:
        if not (0 < self.step <= 1):
            raise ValueError("step must lie in (0, 1]")
        if self.tol <= 0 or self.max_iters < 1:
            raise ValueError("tol > 0 and max_iters >= 1 required")


@dataclass
class SolveResult:
    matrix: np.ndarray
    objectives: list[float]
    converged: bool
    lam: float


@dataclass
class EstimateResult:
    matrix: np.ndarray
    empty_blocks: list[int] = field(default_factory=list)
    converged: bool = True


def _svt(y: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Singular-value soft-thresholding; returns (matrix, thresholded svals)."""
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    s = np.maximum(s - threshold, 0.0)
    keep = s > 0
    return (u[:, keep] * s[keep]) @ vt[keep], s


def _resolve_lambda(prob: CompletionProblem, cfg: SolverConfig) -> tuple[float, bool]:
    """Regulariser for the block, and whether the zero-noise floor applied.

    A zero lam with a partial mask (noiseless data, including an explicit
    zero override) cannot interpolate; it is floored at a tiny data-relative
    value and solved along a decreasing-lam schedule.
    """
    if cfg.lam_override is not None:
        lam = cfg.lam_override
    else:
        lam = cfg.c_lambda * prob.sigma * np.sqrt(
            len(prob.omega) / max(prob.n_rows, prob.n_cols))
    partial = len(prob.omega) < prob.n_rows * prob.n_cols
    if lam == 0.0 and partial:
        scale = float(np.abs(prob.values).max()) if len(prob.values) else 1.0
        lam = _ZERO_NOISE_LAMBDA * max(scale, 1e-12) * np.sqrt(
            len(prob.omega) / max(prob.n_rows, prob.n_cols))
        return float(lam), True
    return float(lam), False


def solve_block(prob: CompletionProblem, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Proximal-gradient minimiser of the masked least-squares + nuclear norm.

    Starts from the zero matrix and stops when the relative objective change
    drops below ``cfg.tol`` or after ``cfg.max_iters`` iterations (returning
    the best iterate with ``converged=False`` in the latter case).  The
    objective is non-increasing across iterations for any step in (0, 1].

    When sigma == 0 with a partial mask, the target regulariser is a tiny
    floor and a fixed-lam iteration from zero cannot fill unobserved entries
    (they move O(lam) per step), so that case runs a warm-started decreasing
    lam schedule ending at the floor; the reported objective trace is the
    final stage's, which is again non-increasing.
    """
    if len(prob.omega) == 0:
        raise ValueError("solve_block needs a nonempty observation set")
    lam, floored = _resolve_lambda(prob, cfg)
    rows, cols = prob.omega[:, 0], prob.omega[:, 1]
    z_fill = np.zeros((prob.n_rows, prob.n_cols))
    np.add.at(z_fill, (rows, cols), prob.values)
    dup = np.zeros((prob.n_rows, prob.n_cols))
    np.add.at(dup, (rows, cols), 1.0)
    step = cfg.step
    if dup.max() > 1:
        # repeated observations of a pair: gradient is count-weighted and the
        # smoothness constant grows to the max count, so shrink the step
        observed = dup > 0
        z_fill[observed] /= dup[observed]
        mask = dup  # weights
        step = cfg.step / float(dup.max())
    else:
        mask = dup  # 0/1 weights

    if floored:
        # SVT moves unobserved entries by at most ~lam per iteration, so the
        # warm-up stages run a fixed iteration count each; only the final
        # stage at the target lam uses the objective-change stopping rule.
        spectral = float(np.linalg.norm(z_fill, 2))
        schedule = []
        level = 0.5 * spectral
        while level > lam:
            schedule.append(level)
            level *= 0.5
        schedule.append(lam)
    else:
        schedule = [lam]

    q = np.zeros((prob.n_rows, prob.n_cols))
    svals = np.zeros(min(prob.n_rows, prob.n_cols))
    budget = cfg.max_iters
    converged = False
    objectives: list[float] = []
    for stage_lam in schedule[:-1]:
        for _ in range(min(40, budget)):
            budget -= 1
            grad = mask * (q - z_fill)
            q, svals = _svt(q - step * grad, stage_lam * step)

    lam_final = schedule[-1]

    def objective(mat: np.ndarray, s: np.ndarray) -> float:
        resid = mat[rows, cols] - prob.values
        return 0.5 * float(resid @ resid) + lam_final * float(s.sum())

    prev = objective(q, svals)
    objectives = [prev]
    while budget > 0:
        budget -= 1
        grad = mask * (q - z_fill)
        q, svals = _svt(q - step * grad, lam_final * step)
        cur = objective(q, svals)
        objectives.append(cur)
        if abs(prev - cur) <= cfg.tol * max(1.0, abs(prev)):
            converged = True
            break
        prev = cur
    return SolveResult(q, objectives, converged, lam)


def partition_count(n_rows: int, n_cols: int) -> int:
    """Number of near-square groups the longer axis is split into."""
    long_n, short_n = max(n_rows, n_cols), min(n_rows, n_cols)
    return int(np.ceil(long_n / short_n)) if short_n else 0


def estimate(n_rows: int, n_cols: int, omega: np.ndarray, values: np.ndarray,
             sigma: float, rank: int, cfg: SolverConfig,
             rng: np.random.Generator) -> EstimateResult:
    """Complete a rectangular matrix by solving near-square sub-blocks.

    The longer axis is split into ceil(long/short) groups by i.i.d. uniform
    assignment drawn from ``rng``; each block is solved on its restricted
    observation set.  Blocks that end up with no observations are filled with
    zeros and reported in ``empty_blocks``.
    """
    omega = np.asarray(omega, dtype=np.int64).reshape(-1, 2)
    values = np.asarray(values, dtype=np.float64)
    if len(omega) < 1:
        return EstimateResult(np.zeros((n_rows, n_cols)), empty_blocks=[0],
                              converged=False)
    out = np.zeros((n_rows, n_cols))
    split_cols = n_cols >= n_rows
    long_n = n_cols if split_cols else n_rows
    k = partition_count(n_rows, n_cols)
    assignment = rng.integers(k, size=long_n) if k > 1 else np.zeros(long_n, dtype=np.int64)

    empty: list[int] = []
    all_converged = True
    axis = omega[:, 1] if split_cols else omega[:, 0]
    for q in range(k):
        members = np.flatnonzero(assignment == q)
        if members.size == 0:
            continue
        local_of = {int(g): i for i, g in enumerate(members)}
        sel = np.isin(axis, members)
        if not sel.any():
            empty.append(q)
            continue
        sub = omega[sel].copy()
        if split_cols:
            sub[:, 1] = [local_of[int(c)] for c in sub[:, 1]]
            shape = (n_rows, members.size)
        else:
            sub[:, 0] = [local_of[int(r)] for r in sub[:, 0]]
            shape = (members.size, n_cols)
        prob = CompletionProblem(shape[0], shape[1], sub, values[sel],
                                 rank=rank, sigma=sigma)
        res = solve_block(prob, cfg)
        all_converged &= res.converged
        if split_cols:
            out[:, members] = res.matrix
        else:
            out[members, :] = res.matrix
    return EstimateResult(out, empty_blocks=empty, converged=all_converged)


def dump_problem(prob: CompletionProblem, matrix: np.ndarray, path: str) -> None:
    """Debug dump of (observations, values, estimate) for solver regression
    fixtures."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "n_rows": prob.n_rows, "n_cols": prob.n_cols,
            "omega": prob.omega.tolist(), "values": prob.values.tolist(),
            "rank": prob.rank, "sigma": prob.sigma,
            "estimate": matrix.tolist(),
        }, fh)


# -- instance diagnostics ----------------------------------------------------


@dataclass
class Diagnostics:
    mu_row: float
    mu_col: float
    kappa: float  # inf when the distinct-row matrix is rank deficient
    tau: float
    singular_values: np.ndarray

    @property
    def mu(self) -> float:
        return max(self.mu_row, self.mu_col)


def diagnostics(rewards: np.ndarray, cluster_of: np.ndarray) -> Diagnostics:
    """Incoherence, condition number and cluster balance of an instance.

    Works on the matrix of distinct cluster rows.  Incoherence follows the
    convention max row norm of a singular factor <= sqrt(mu * C / dim), i.e.
    mu = dim * max_norm^2 / C, so mu_col is capped by N / C.
    """
    n_clusters = int(cluster_of.max()) + 1
    n_items = rewards.shape[1]
    distinct = np.stack([rewards[np.flatnonzero(cluster_of == c)[0]]
                         for c in range(n_clusters)])
    u, s, vt = np.linalg.svd(distinct, full_matrices=False)
    lead = s[0] if s.size else 0.0
    r_eff = int((s > 1e-12 * max(lead, 1e-300)).sum())
    r_eff = max(r_eff, 1)
    mu_row = distinct.shape[0] * float((u[:, :r_eff] ** 2).sum(axis=1).max()) / n_clusters
    mu_col = n_items * float((vt[:r_eff] ** 2).sum(axis=0).max()) / n_clusters
    if r_eff < n_clusters or s[n_clusters - 1] <= 1e-12 * max(lead, 1e-300):
        kappa = float("inf")
    else:
        kappa = float(s[0] / s[n_clusters - 1])
    sizes = np.bincount(cluster_of, minlength=n_clusters)
    tau = float(sizes.max() / sizes.min())
    return Diagnostics(mu_row=mu_row, mu_col=mu_col, kappa=kappa, tau=tau,
                       singular_values=s)


def subset_floor_sample(factor: np.ndarray, subset_size: int,
                        n_samples: int, rng: np.random.Generator) -> float:
    """Sampled lower bound on the row-subset singular-value floor.

    Draws ``n_samples`` random row subsets of the given singular factor and
    returns the smallest value of lam_min(V_S)^2 * (n / |S|).  Exhaustive
    verification over all subsets is exponential; this is a spot check only.
    """
    n = factor.shape[0]
    subset_size = min(max(subset_size, factor.shape[1]), n)
    worst = np.inf
    for _ in range(n_samples):
        sel = rng.choice(n, size=subset_size, replace=False)
        s = np.linalg.svd(factor[sel], compute_uv=False)
        worst = min(worst, float(s[-1] ** 2) * n / subset_size)
    return worst
