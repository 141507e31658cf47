"""Noisy low-rank matrix completion via nuclear-norm MFISTA.

`solve_block` minimises  0.5 * sum_{(i,j) in Omega} (Q_ij - Z_ij)^2
+ lam * ||Q||_*  by monotone FISTA over singular-value soft-thresholding, with
lam = c_lambda * sigma * sqrt(|Omega| / max(nrows, ncols)) unless overridden.
`estimate` handles rectangular problems by randomly partitioning the longer
axis into near-square blocks, solving each independently, and reassembling.

Each soft-thresholding step (`_svt`) takes one of two paths, each with one
``np.linalg.svd`` call.  The subspace path follows Soft-Impute (Mazumder,
Hastie & Tibshirani 2010) and the randomized range finder (Halko, Martinsson
& Tropp 2011): the previous step's leading right singular vectors plus
``_OVERSAMPLE`` spare directions go through one power step and a QR, and the
small projected factor is decomposed.  It is taken only when a certificate
shows that the residual outside the subspace has spectral norm below the
threshold, so that no singular value it leaves out would survive; otherwise
the step takes the full SVD.
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
    "diagnostics",
]

# Regularisation floor used when sigma == 0 but the mask is partial: with
# lam exactly 0 the proximal iteration cannot interpolate unobserved entries
# (it converges to the zero-filled mask), while a tiny positive lam recovers
# the minimum-nuclear-norm interpolant.  Relative to the data scale.
_ZERO_NOISE_LAMBDA = 1e-6

# Warm-started subspace SVT (see `_svt`): spare directions kept beyond the
# surviving rank, Gram squarings in the residual certificate, and rejected
# steps in a row after which a block stops trying.
_OVERSAMPLE = 8
_SQUARINGS = 3
_MAX_MISSES = 4


@dataclass(frozen=True)
class CompletionProblem:
    n_rows: int
    n_cols: int
    omega: np.ndarray  # (k, 2) int row/col indices of observed entries
    values: np.ndarray  # (k,) observed noisy values
    sigma: float  # noise scale used to set the regulariser

    def __post_init__(self) -> None:
        if self.omega.ndim != 2 or self.omega.shape[1] != 2:
            raise ValueError("omega must be a (k, 2) index array")
        if len(self.values) != len(self.omega):
            raise ValueError("values and omega length mismatch")


@dataclass(frozen=True)
class SolverConfig:
    c_lambda: float = 2.0
    tol: float = 1e-8  # relative objective-change stopping rule
    max_iters: int = 2000
    lam_override: float | None = None  # explicit regulariser (practical variant)

    def __post_init__(self) -> None:
        if self.tol <= 0 or self.max_iters < 1:
            raise ValueError("tol > 0 and max_iters >= 1 required")


@dataclass
class SolveResult:
    matrix: np.ndarray
    objectives: list[float]
    converged: bool
    lam: float
    iterations: int  # SVT steps (one SVD each), the warm-up stages included


class _WarmStart:
    """One block's warm start for `_svt`: the last step's leading right
    singular vectors (rows of ``vt``), or None when the next step takes the
    full SVD, and whether the last step took the full SVD (``exact``).

    The basis holds the surviving rank plus up to ``_OVERSAMPLE`` spare
    directions.  It is kept while the surviving rank is at most a quarter
    of the smaller side and the basis is under half of it (a wider basis
    made the subspace step cost more than the full SVD on 16-28 wide
    blocks), and dropped for good once ``_MAX_MISSES`` steps in a row were
    rejected.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        self.side = min(shape)
        self.live = True
        self.misses = 0
        self.vt: np.ndarray | None = None
        self.exact = True

    def update(self, vt: np.ndarray, rank: int, exact: bool,
               missed: bool) -> None:
        self.exact = exact
        self.misses = self.misses + 1 if missed else 0
        self.live &= self.misses < _MAX_MISSES
        width = rank + _OVERSAMPLE
        self.vt = (vt[:width] if self.live and 4 * rank <= self.side
                   and 2 * width < self.side else None)


@dataclass
class EstimateResult:
    matrix: np.ndarray
    empty_blocks: list[int] = field(default_factory=list)
    converged: bool = True
    iterations: int = 0  # summed over the solved blocks


def _svt(y: np.ndarray, threshold: float,
         warm: _WarmStart) -> tuple[np.ndarray, np.ndarray]:
    """Singular-value soft-thresholding; returns (matrix, thresholded svals).

    Makes exactly one ``np.linalg.svd`` call.  With a ``warm`` basis the
    step first projects ``y`` on the range ``q`` of one power step from it
    and checks the certificate (`_below`) that the residual's spectral norm
    is below ``threshold``, so that no singular value outside ``q``
    survives; then the SVD of the small factor ``q^T y`` gives the step.
    Otherwise it takes the full SVD of ``y``.  ``warm`` is updated for the
    next step of the same block.
    """
    attempted = warm.vt is not None and threshold > 0.0
    if attempted:
        # one power step from the previous step's leading right vectors
        q, _ = np.linalg.qr(y @ (y.T @ (y @ warm.vt.T)))
        b = q.T @ y
        if _below(y - q @ b, threshold):
            v, s, ut = np.linalg.svd(b.T, full_matrices=False)
            s = np.maximum(s - threshold, 0.0)
            k = int(np.count_nonzero(s))
            warm.update(v.T, k, exact=False, missed=False)
            return q @ ((ut.T[:, :k] * s[:k]) @ v.T[:k]), s
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    s = np.maximum(s - threshold, 0.0)
    keep = s > 0
    warm.update(vt, int(keep.sum()), exact=True, missed=attempted)
    return (u[:, keep] * s[keep]) @ vt[keep], s


def _below(resid: np.ndarray, threshold: float) -> bool:
    """Whether ``||resid||_2 < threshold`` is certified.

    With g the Gram matrix of ``resid / threshold`` (d x d, the smaller
    side) squared j times, ``||g||_F ** (1 / 2**(j+1))`` lies between
    sigma_max and ``d ** (1 / 2**(j+2))`` sigma_max of the scaled residual.
    Up to ``_SQUARINGS`` squarings tighten it until the upper bound is
    below 1 (certified) or the lower bound reaches 1 (rejected); still
    undecided, the step is rejected.
    """
    r = resid / threshold
    g = r @ r.T if r.shape[0] <= r.shape[1] else r.T @ r
    for _ in range(_SQUARINGS):
        g = g @ g.T  # g is symmetric; g @ g.T runs as one syrk
        norm = float(np.linalg.norm(g))
        if norm < 1.0:
            return True
        if norm >= g.shape[0] ** 0.5:
            return False
    return False


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
    """MFISTA minimiser of the masked least-squares + nuclear norm.

    Monotone FISTA (Beck & Teboulle 2009) from the zero matrix: each
    iteration takes one proximal (singular-value soft-thresholding) step from
    a momentum point and keeps it only if the objective does not rise, so
    ``objectives`` is non-increasing: the starting value, then one entry per
    iteration (one SVD each).  The step is 1 / (largest observation count of a pair), the
    inverse Lipschitz constant of the count-weighted quadratic.  Momentum
    restarts when a step opposes it (O'Donoghue & Candes 2015) or changes the
    objective by at most ``cfg.tol`` (relative).  The solve converges only on
    a plain proximal step from the current iterate, taken with the full SVD,
    that changes the objective by at most ``cfg.tol``; after
    ``cfg.max_iters`` iterations it returns the best iterate with
    ``converged=False``.

    When sigma == 0 with a partial mask, the target regulariser is a tiny
    floor and a fixed-lam iteration from zero cannot fill unobserved entries
    (they move O(lam) per step), so that case runs a warm-started decreasing
    lam schedule of plain proximal steps ending at the floor; the reported
    objective trace is the final stage's, while ``iterations`` counts every
    step of every stage.

    Every step is one `_svt` call, warm-started from the block's previous
    step.  While the surviving rank is at most a quarter of the smaller side
    and the basis (that rank plus ``_OVERSAMPLE``) under half of it, a step
    takes the subspace path where the certificate shows that the residual
    ``y - q q^T y`` (``q`` the subspace basis) has spectral norm below the
    threshold, and the full SVD otherwise; after ``_MAX_MISSES`` rejections
    in a row the block keeps to the full SVD.  The certificate (the
    Frobenius norm of the residual's Gram matrix after up to ``_SQUARINGS``
    squarings) shows that the step's rank is right; how close the step
    comes to the full SVT rests on the warm start, so the stopping rule
    counts only full-SVD steps.  The monotone acceptance holds whichever
    path ran, since the objective is evaluated on the step taken.
    """
    if len(prob.omega) == 0:
        raise ValueError("solve_block needs a nonempty observation set")
    lam, floored = _resolve_lambda(prob, cfg)
    rows, cols = prob.omega[:, 0], prob.omega[:, 1]
    z_fill = np.zeros((prob.n_rows, prob.n_cols))
    np.add.at(z_fill, (rows, cols), prob.values)
    mask = np.zeros((prob.n_rows, prob.n_cols))
    np.add.at(mask, (rows, cols), 1.0)
    # the gradient weights each pair by its observation count, and z_fill
    # holds each observed pair's mean
    observed = mask > 0
    z_fill[observed] /= mask[observed]
    step = 1.0 / float(mask.max())

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
    warm = _WarmStart(q.shape)
    for stage_lam in schedule[:-1]:
        for _ in range(min(40, budget)):
            budget -= 1
            grad = mask * (q - z_fill)
            q, svals = _svt(q - step * grad, stage_lam * step, warm)

    lam_final = schedule[-1]

    def objective(mat: np.ndarray, s: np.ndarray) -> float:
        resid = mat[rows, cols] - prob.values
        return 0.5 * float(resid @ resid) + lam_final * float(s.sum())

    # t == 1 marks a plain step from x.  A small change after a momentum step
    # does not show x is near the optimum, so it only restarts.  A plain
    # full-SVD step cannot raise F beyond rounding, so a small change there
    # is convergence; a subspace step is inexact, so after a small change
    # there the next plain step takes the full SVD and decides.
    x, y, t = q, q, 1.0
    f_x = objective(q, svals)
    objectives: list[float] = [f_x]
    while budget > 0:
        budget -= 1
        z, svals = _svt(y - step * mask * (y - z_fill), lam_final * step,
                        warm)
        f_z = objective(z, svals)
        x_prev, f_prev = x, f_x
        if f_z <= f_x:
            x, f_x = z, f_z
        objectives.append(f_x)
        small = abs(f_prev - f_z) <= cfg.tol * max(1.0, abs(f_prev))
        if small and t == 1.0:
            if warm.exact:
                converged = True
                break
            warm.vt = None
        if small or float(np.vdot(y - z, z - x_prev)) > 0.0:
            t, y = 1.0, x
            continue
        t_old, t = t, (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = x + (t_old / t) * (z - x) + ((t_old - 1.0) / t) * (x - x_prev)
    return SolveResult(x, objectives, converged, lam, cfg.max_iters - budget)


def partition_count(n_rows: int, n_cols: int) -> int:
    """Number of near-square groups the longer axis is split into."""
    long_n, short_n = max(n_rows, n_cols), min(n_rows, n_cols)
    return int(np.ceil(long_n / short_n)) if short_n else 0


def estimate(n_rows: int, n_cols: int, omega: np.ndarray, values: np.ndarray,
             sigma: float, cfg: SolverConfig,
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
    iterations = 0
    axis = omega[:, 1] if split_cols else omega[:, 0]
    for q in range(k):
        members = np.flatnonzero(assignment == q)
        if members.size == 0:
            continue
        sel = np.isin(axis, members)
        if not sel.any():
            empty.append(q)
            continue
        sub = omega[sel].copy()
        # members is sorted, so searchsorted gives each index's local position
        if split_cols:
            sub[:, 1] = np.searchsorted(members, sub[:, 1])
            shape = (n_rows, members.size)
        else:
            sub[:, 0] = np.searchsorted(members, sub[:, 0])
            shape = (members.size, n_cols)
        prob = CompletionProblem(shape[0], shape[1], sub, values[sel],
                                 sigma=sigma)
        res = solve_block(prob, cfg)
        all_converged &= res.converged
        iterations += res.iterations
        if split_cols:
            out[:, members] = res.matrix
        else:
            out[members, :] = res.matrix
    return EstimateResult(out, empty_blocks=empty, converged=all_converged,
                          iterations=iterations)


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

