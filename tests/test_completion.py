import numpy as np
import pytest

from blockedbandits import completion
from blockedbandits.completion import (
    CompletionProblem,
    SolverConfig,
    diagnostics,
    estimate,
    partition_count,
    solve_block,
)
from blockedbandits.env import GeneratorSpec, generate_instance
from blockedbandits.rng import stream


def incoherent_low_rank(n: int, rank: int, seed: int, scale: float = 2.0) -> np.ndarray:
    """Orthonormal factors with equal singular values; entries O(scale)."""
    g = np.random.default_rng(seed)
    u, _ = np.linalg.qr(g.normal(size=(n, rank)))
    v, _ = np.linalg.qr(g.normal(size=(n, rank)))
    return (u @ v.T) * scale * np.sqrt(n / rank)


def masked_problem(truth: np.ndarray, p: float, sigma: float, seed: int) -> CompletionProblem:
    g = np.random.default_rng(seed)
    mask = g.random(truth.shape) < p
    omega = np.argwhere(mask)
    values = truth[mask] + g.normal(0, sigma, size=mask.sum())
    return CompletionProblem(truth.shape[0], truth.shape[1], omega, values,
                             sigma=sigma)


def nuclear_objective(q: np.ndarray, prob: CompletionProblem, lam: float) -> float:
    resid = q[prob.omega[:, 0], prob.omega[:, 1]] - prob.values
    return 0.5 * float(resid @ resid) + lam * float(
        np.linalg.svd(q, compute_uv=False).sum())


def subgradient_oracle(prob: CompletionProblem, lam: float,
                       iters: int = 60_000) -> tuple[np.ndarray, float]:
    """Independent high-precision solver for the same convex program:
    plain subgradient descent with a diminishing step, best iterate kept."""
    q = np.zeros((prob.n_rows, prob.n_cols))
    best, best_f = q.copy(), nuclear_objective(q, prob, lam)
    rows, cols = prob.omega[:, 0], prob.omega[:, 1]
    step0 = 0.5
    for k in range(1, iters + 1):
        grad = np.zeros_like(q)
        np.add.at(grad, (rows, cols), q[rows, cols] - prob.values)
        u, s, vt = np.linalg.svd(q, full_matrices=False)
        grad += lam * (u @ vt)
        q = q - (step0 / np.sqrt(k)) * grad
        f = nuclear_objective(q, prob, lam)
        if f < best_f:
            best, best_f = q.copy(), f
    return best, best_f


class TestSolveBlock:
    def test_full_observation_zero_noise_exact(self):
        g = np.random.default_rng(0)
        truth = np.outer(g.normal(size=8), g.normal(size=6))
        omega = np.argwhere(np.ones_like(truth, dtype=bool))
        prob = CompletionProblem(8, 6, omega, truth.ravel(), sigma=0.0)
        res = solve_block(prob, SolverConfig())
        assert res.lam == 0.0
        assert np.abs(res.matrix - truth).max() <= 1e-6

    def test_huge_regulariser_gives_zero(self):
        truth = incoherent_low_rank(10, 2, seed=1)
        prob = masked_problem(truth, 0.8, 0.1, seed=1)
        res = solve_block(prob, SolverConfig(c_lambda=1e9))
        assert np.abs(res.matrix).max() == 0.0

    @pytest.mark.slow
    def test_matches_subgradient_oracle_20x20(self):
        truth = incoherent_low_rank(20, 2, seed=2)
        prob = masked_problem(truth, 0.5, 0.01, seed=2)
        res = solve_block(prob, SolverConfig(max_iters=20_000, tol=1e-12))
        _, oracle_f = subgradient_oracle(prob, res.lam)
        ours_f = nuclear_objective(res.matrix, prob, res.lam)
        assert abs(ours_f - oracle_f) <= 1e-3

    def test_matches_dense_convex_solver_20x20(self):
        cp = pytest.importorskip("cvxpy")
        truth = incoherent_low_rank(20, 2, seed=2)
        prob = masked_problem(truth, 0.5, 0.01, seed=2)
        res = solve_block(prob, SolverConfig(max_iters=20_000, tol=1e-12))
        q = cp.Variable((20, 20))
        resid = q[prob.omega[:, 0], prob.omega[:, 1]] - prob.values
        objective = 0.5 * cp.sum_squares(resid) + res.lam * cp.normNuc(q)
        cp.Problem(cp.Minimize(objective)).solve(solver=cp.SCS, eps=1e-9,
                                                 max_iters=20_000)
        assert np.abs(res.matrix - q.value).max() <= 0.05

    def test_objective_monotone_every_iteration(self):
        truth = incoherent_low_rank(16, 2, seed=3)
        prob = masked_problem(truth, 0.5, 0.2, seed=3)
        res = solve_block(prob, SolverConfig())
        objs = np.array(res.objectives)
        slack = 1e-10 * np.maximum(1.0, np.abs(objs[:-1]))
        assert (np.diff(objs) <= slack).all()

    def test_low_rank_output(self):
        truth = incoherent_low_rank(14, 2, seed=4)
        prob = masked_problem(truth, 0.7, 0.05, seed=4)
        res = solve_block(prob, SolverConfig())
        svals = np.linalg.svd(res.matrix, compute_uv=False)
        assert (svals > 1e-8 * svals[0]).sum() < 14  # thresholding truncates

    def test_duplicate_observations_averaged(self):
        # same pair observed twice: the fit targets the count-weighted mean
        omega = np.array([[0, 0], [0, 0], [1, 1]])
        values = np.array([1.0, 3.0, 0.5])
        prob = CompletionProblem(2, 2, omega, values, sigma=0.5)
        res = solve_block(prob, SolverConfig(c_lambda=1e-6))
        assert res.matrix[0, 0] == pytest.approx(2.0, abs=1e-3)

    def test_empty_omega_rejected(self):
        with pytest.raises(ValueError):
            solve_block(CompletionProblem(2, 2, np.empty((0, 2), dtype=int),
                                          np.empty(0), 0.1))


def proximal_gradient(prob: CompletionProblem, lam: float, cfg: SolverConfig
                      ) -> tuple[list[float], bool]:
    """Reference: plain proximal gradient from zero at unit step (no
    repeated pairs), with the solver's relative objective-change rule."""
    rows, cols = prob.omega[:, 0], prob.omega[:, 1]
    mask = np.zeros((prob.n_rows, prob.n_cols))
    mask[rows, cols] = 1.0
    z_fill = np.zeros_like(mask)
    z_fill[rows, cols] = prob.values
    q = np.zeros_like(mask)
    objectives = [nuclear_objective(q, prob, lam)]
    for _ in range(cfg.max_iters):
        u, s, vt = np.linalg.svd(q - mask * (q - z_fill), full_matrices=False)
        s = np.maximum(s - lam, 0.0)
        q = (u * s) @ vt
        resid = q[rows, cols] - prob.values
        objectives.append(0.5 * float(resid @ resid) + lam * float(s.sum()))
        prev, cur = objectives[-2:]
        if abs(prev - cur) <= cfg.tol * max(1.0, abs(prev)):
            return objectives, True
    return objectives, False


def plain_step_decrease(prob: CompletionProblem, q: np.ndarray, lam: float) -> float:
    """How much one unit-step proximal-gradient step from q lowers the
    objective (no repeated pairs)."""
    rows, cols = prob.omega[:, 0], prob.omega[:, 1]
    y = q.copy()
    y[rows, cols] = prob.values
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    z = (u * np.maximum(s - lam, 0.0)) @ vt
    return nuclear_objective(q, prob, lam) - nuclear_objective(z, prob, lam)


def d1_block() -> CompletionProblem:
    """A 150x150 block of a d1 instance observed at p ~ 0.08, sigma = 0.5."""
    inst = generate_instance(GeneratorSpec(name="d1", n_users=150, n_items=150,
                                           n_clusters=4, horizon=60, budget=1), 1)
    g = np.random.default_rng(1)
    mask = g.random((150, 150)) < 0.08
    values = inst.rewards[mask] + g.normal(0, 0.5, size=mask.sum())
    return CompletionProblem(150, 150, np.argwhere(mask), values, sigma=0.5)


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts the decompositions (np.linalg.eigh calls, one per SVT step)
    made while the test runs."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


@pytest.fixture
def svd_shapes(monkeypatch):
    """The shape of the Gram matrix of each decomposition (np.linalg.eigh
    call) made while the test runs: side x side for a full step, basis
    width x basis width for a certified subspace step."""
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return shapes


class TestMfista:
    @pytest.mark.slow
    def test_converges_where_proximal_gradient_stalls(self):
        # lam near the practical variant's on paperfig d1 (about 1.41)
        prob, lam = d1_block(), 1.5
        cfg = SolverConfig(lam_override=lam)
        res = solve_block(prob, cfg)
        assert res.converged and len(res.objectives) - 1 < cfg.max_iters
        reference, ref_converged = proximal_gradient(prob, lam, cfg)
        assert not ref_converged  # the 2000-step reference stops at the cap
        old = reference[-1]
        assert nuclear_objective(res.matrix, prob, lam) <= old + 1e-9 * abs(old)

    def test_rejected_steps_keep_trace_monotone_and_counted(self, monkeypatch,
                                                            svd_calls):
        truth = incoherent_low_rank(60, 4, seed=1)
        prob = masked_problem(truth, 0.08, 0.5, seed=1)
        cfg = SolverConfig()
        res = solve_block(prob, cfg)
        monkeypatch.undo()
        objs = np.array(res.objectives)
        steps = np.diff(objs)
        assert (steps <= 0).all()
        assert (steps[:-1] == 0).any()  # a momentum step was rejected
        assert len(objs) - 1 == len(svd_calls) == res.iterations
        # converged only where a plain step from the result gains at most
        # tol, not on the zero change a rejected momentum step records
        assert res.converged
        gain = plain_step_decrease(prob, res.matrix, res.lam)
        assert gain <= cfg.tol * max(1.0, abs(objs[-1]))

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_iterations_count_every_svd_step(self, monkeypatch, svd_calls,
                                             sigma):
        # at sigma 0 the floored schedule's warm-up stages run plain steps
        # that the final stage's objective trace does not record
        prob = masked_problem(incoherent_low_rank(30, 2, seed=3), 0.5, sigma,
                              seed=3)
        res = solve_block(prob)
        monkeypatch.undo()
        assert res.iterations == len(svd_calls)
        if sigma == 0.0:
            assert len(res.objectives) - 1 < res.iterations
        else:
            assert len(res.objectives) - 1 == res.iterations

    def test_estimate_sums_block_iterations(self, monkeypatch, svd_calls):
        truth = incoherent_low_rank(12, 2, seed=4)[:, :6]
        prob = masked_problem(truth, 0.7, 0.1, seed=4)  # two 6x6 blocks
        res = estimate(12, 6, prob.omega, prob.values, 0.1, SolverConfig(),
                       stream(4, "zeta"))
        monkeypatch.undo()
        assert res.iterations == len(svd_calls) > 0


def reference_svt(y: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Singular-value soft-thresholding; returns (matrix, thresholded svals).

    ``_svt`` as it was before the warm-started subspace step: one full SVD
    per call.  Kept verbatim as the reference of the accuracy tests."""
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    s = np.maximum(s - threshold, 0.0)
    keep = s > 0
    return (u[:, keep] * s[keep]) @ vt[keep], s


def svd_svt(y: np.ndarray, threshold: float,
            warm: completion._WarmStart) -> tuple[np.ndarray, np.ndarray]:
    """``_svt`` as it was before the Gram-eigh step: the same certified
    subspace path and warm start, with one ``np.linalg.svd`` call per step.
    Kept verbatim as the oracle of the Gram step's accuracy bar."""
    attempted = warm.vt is not None and threshold > 0.0
    if attempted:
        # one power step from the previous step's leading right vectors
        q, _ = np.linalg.qr(y @ (y.T @ (y @ warm.vt.T)))
        b = q.T @ y
        if completion._below(y - q @ b, threshold):
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


def instance_block(name: str, shape: tuple[int, int], p: float, sigma: float,
                   seed: int, v_law: str | None = None) -> CompletionProblem:
    """A ``shape`` block of a 4-cluster instance, each entry observed with
    probability ``p`` under Gaussian noise ``sigma``."""
    inst = generate_instance(GeneratorSpec(name=name, n_users=shape[0],
                                           n_items=shape[1], n_clusters=4,
                                           horizon=2, budget=1, v_law=v_law),
                             seed)
    g = np.random.default_rng(seed)
    mask = g.random(shape) < p
    values = inst.rewards[mask] + g.normal(0, sigma, size=mask.sum())
    return CompletionProblem(shape[0], shape[1], np.argwhere(mask), values,
                             sigma=sigma)


ACCURACY_BLOCKS = {
    # a paperfig d1 block at scale 0.4 (explore rate ~0.2)
    "60x60-p20": (lambda: instance_block("d1", (60, 60), 0.2, 0.5, seed=1),
                  SolverConfig()),
    # a phased explore block of the acceptance-7 settings
    "120x120-p24": (lambda: instance_block("custom", (120, 120), 0.24, 0.2,
                                           seed=2, v_law="uniform"),
                    SolverConfig()),
    # an acceptance-8 etc block, with its lighter solver
    "80x85-p4": (lambda: instance_block("d2", (80, 85), 0.04, 0.5, seed=3),
                 SolverConfig(max_iters=400, tol=1e-7)),
    # zero noise: the floored lambda schedule with its warm-up stages
    "60x60-sigma0": (lambda: masked_problem(incoherent_low_rank(60, 3, seed=4),
                                            0.3, 0.0, seed=4),
                     SolverConfig()),
}


class TestSubspaceSvt:
    @pytest.mark.parametrize("block", sorted(ACCURACY_BLOCKS))
    def test_matches_full_svd_solver(self, monkeypatch, svd_shapes, block):
        make, cfg = ACCURACY_BLOCKS[block]
        prob = make()
        res = solve_block(prob, cfg)
        side = min(prob.n_rows, prob.n_cols)
        fast_steps = sum(min(shape) < side for shape in svd_shapes)
        last_step_side = min(svd_shapes[-1])
        monkeypatch.setattr(completion, "_svt",
                            lambda y, threshold, warm:
                            reference_svt(y, threshold))
        ref = solve_block(prob, cfg)
        monkeypatch.undo()
        assert fast_steps > 0
        assert last_step_side == side  # convergence is judged on a full SVD
        assert ref.converged and res.converged
        assert abs(res.objectives[-1] - ref.objectives[-1]) <= \
            1e-6 * abs(ref.objectives[-1])
        assert abs(res.iterations - ref.iterations) <= 1

    @pytest.mark.parametrize("block", sorted(ACCURACY_BLOCKS))
    def test_gram_step_matches_the_svd_step(self, monkeypatch, block):
        make, cfg = ACCURACY_BLOCKS[block]
        prob = make()
        res = solve_block(prob, cfg)
        monkeypatch.setattr(completion, "_svt", svd_svt)
        ref = solve_block(prob, cfg)
        monkeypatch.undo()
        # the Gram matrix squares the conditioning, and at sigma 0 the
        # lambda floor keeps singular values near 1e-6 of the scale alive
        rel = 1e-11 if block == "60x60-sigma0" else 1e-12
        assert res.iterations == ref.iterations
        assert abs(res.objectives[-1] - ref.objectives[-1]) <= \
            rel * abs(ref.objectives[-1])

    @staticmethod
    def low_rank_plus_noise(seed: int) -> np.ndarray:
        """Rank 3 with singular values 10, 8, 6, plus noise of spectral norm
        about 0.3."""
        g = np.random.default_rng(seed)
        u, _ = np.linalg.qr(g.normal(size=(60, 3)))
        v, _ = np.linalg.qr(g.normal(size=(70, 3)))
        return (u * [10.0, 8.0, 6.0]) @ v.T + 0.02 * g.normal(size=(60, 70))

    def test_certified_step_matches_full_svt(self, svd_shapes):
        y = self.low_rank_plus_noise(5)
        warm = completion._WarmStart(y.shape)
        # warm-started from a matrix close to y, as late in a solve
        nearby = y + 1e-5 * np.random.default_rng(6).normal(size=y.shape)
        warm.vt = np.linalg.svd(nearby)[2][:3 + completion._OVERSAMPLE]
        del svd_shapes[:]
        out, svals = completion._svt(y, 1.0, warm)
        width = 3 + completion._OVERSAMPLE
        assert svd_shapes == [(width, width)]  # the small one
        ref, ref_svals = reference_svt(y, 1.0)
        assert np.abs(out - ref).max() <= 1e-9
        assert svals.sum() == pytest.approx(ref_svals.sum(), rel=1e-12)
        assert warm.misses == 0

    def test_full_rank_input_takes_the_fallback(self, svd_shapes):
        g = np.random.default_rng(7)
        u, _ = np.linalg.qr(g.normal(size=(60, 60)))
        v, _ = np.linalg.qr(g.normal(size=(60, 60)))
        y = (u * np.linspace(5.0, 2.0, 60)) @ v.T  # every value above 1
        warm = completion._WarmStart(y.shape)
        warm.vt = v.T[:completion._OVERSAMPLE]
        out, svals = completion._svt(y, 1.0, warm)
        assert svd_shapes == [(60, 60)]  # the full one
        ref, ref_svals = reference_svt(y, 1.0)
        assert np.abs(out - ref).max() <= 1e-9
        assert svals.sum() == pytest.approx(ref_svals.sum(), rel=1e-12)
        assert warm.misses == 1

    def test_each_step_makes_one_svd_call(self, svd_shapes):
        # singular values 10, 8, 6, then noise from 0.32 down
        y = self.low_rank_plus_noise(8)
        warm = completion._WarmStart(y.shape)
        sides = []
        for threshold in (1.0, 1.0, 0.2, 1.0, 1.0):
            before = len(svd_shapes)
            completion._svt(y, threshold, warm)
            assert len(svd_shapes) == before + 1
            sides.append(min(svd_shapes[-1]))
        # no basis yet: full; certified on rank 3 + 8 spare directions; at
        # 0.2 the 12th value (0.24) survives: rejected, full, and rank 19
        # drops the basis; full again, then certified
        assert sides == [60, 3 + completion._OVERSAMPLE, 60, 60,
                         3 + completion._OVERSAMPLE]

    @pytest.mark.parametrize("side, rank, kept", [
        (16, 0, False), (18, 0, True), (18, 1, False), (20, 1, True), (20, 2, False),
        (32, 7, True), (32, 8, False), (60, 15, True), (60, 16, False),
        (120, 30, True), (120, 31, False)])
    def test_basis_kept_under_half_the_side_and_rank_under_a_quarter(
            self, side, rank, kept):
        warm = completion._WarmStart((side, side + 5))
        vt = np.eye(side + 5)[:side]
        warm.update(vt, rank, exact=True, missed=False)
        if kept:
            assert warm.vt.shape == (rank + completion._OVERSAMPLE, side + 5)
        else:
            assert warm.vt is None

    def test_subspace_convergence_is_confirmed_on_a_full_svd(self, svd_shapes):
        prob = ACCURACY_BLOCKS["120x120-p24"][0]()
        res = solve_block(prob)
        objs = res.objectives
        # a step that met the tolerance on the subspace path was followed
        # by a plain full-SVD step, not taken as convergence
        deferred = [i for i in range(1, len(svd_shapes))
                    if min(svd_shapes[i - 1]) < 120
                    and abs(objs[i] - objs[i + 1]) <= 1e-8 * max(1.0, objs[i])
                    and min(svd_shapes[i]) == 120]
        assert res.converged and min(svd_shapes[-1]) == 120
        assert deferred

    @pytest.mark.parametrize("ratio", [0.5, 0.85, 0.999, 1.0, 1.001, 2.0, 1e6])
    def test_certificate_bounds_the_spectral_norm(self, ratio):
        g = np.random.default_rng(9)
        resid = g.normal(size=(60, 70))
        resid *= ratio / np.linalg.norm(resid, 2)
        certified = completion._below(resid, 1.0)
        if ratio >= 1.0:
            assert not certified
        if ratio <= 60 ** (-1 / 2 ** (completion._SQUARINGS + 2)):
            assert certified


class TestEstimate:
    def test_partition_counts(self):
        assert partition_count(4, 10) == 3
        assert partition_count(10, 4) == 3
        assert partition_count(7, 7) == 1
        assert partition_count(3, 100) == 34

    def test_square_single_block_matches_solve(self):
        truth = incoherent_low_rank(12, 2, seed=5)
        prob = masked_problem(truth, 0.6, 0.05, seed=5)
        direct = solve_block(prob, SolverConfig())
        via_estimate = estimate(12, 12, prob.omega, prob.values, 0.05,
                                SolverConfig(), stream(0, "part"))
        assert np.abs(direct.matrix - via_estimate.matrix).max() <= 1e-9

    def test_empty_block_zeroed_and_flagged(self):
        rng = stream(3, "partition")
        # learn the column assignment this rng will draw, then leave one
        # group unobserved
        probe = rng.integers(2, size=4)
        rng = stream(3, "partition")
        empty_group = probe[3]
        cols_in_empty = np.flatnonzero(probe == empty_group)
        keep_cols = np.flatnonzero(probe != empty_group)
        omega = np.array([[r, c] for r in range(2) for c in keep_cols])
        values = np.ones(len(omega))
        res = estimate(2, 4, omega, values, 0.1, SolverConfig(), rng)
        assert res.empty_blocks
        assert (res.matrix[:, cols_in_empty] == 0).all()

    def test_row_relabelling_equivariance_rectangular(self):
        # columns are partitioned, so permuting rows commutes with the
        # solver for the same partition stream
        truth = incoherent_low_rank(18, 2, seed=6)[:6]  # 6 x 18
        prob = masked_problem(truth, 0.7, 0.02, seed=6)
        base = estimate(6, 18, prob.omega, prob.values, 0.02,
                        SolverConfig(), stream(5, "zeta"))
        perm = np.random.default_rng(1).permutation(6)
        omega2 = prob.omega.copy()
        omega2[:, 0] = perm[omega2[:, 0]]
        permuted = estimate(6, 18, omega2, prob.values, 0.02,
                            SolverConfig(), stream(5, "zeta"))
        assert np.abs(base.matrix[np.argsort(np.argsort(perm))] -
                      permuted.matrix[np.argsort(np.argsort(perm))]).max() >= 0
        assert np.abs(permuted.matrix[perm] - base.matrix).max() <= 1e-8

    def test_full_relabelling_equivariance_square(self):
        truth = incoherent_low_rank(10, 2, seed=7)
        prob = masked_problem(truth, 0.8, 0.05, seed=7)
        base = estimate(10, 10, prob.omega, prob.values, 0.05,
                        SolverConfig(), stream(6, "zeta"))
        g = np.random.default_rng(2)
        rperm, cperm = g.permutation(10), g.permutation(10)
        omega2 = np.stack([rperm[prob.omega[:, 0]],
                           cperm[prob.omega[:, 1]]], axis=1)
        permuted = estimate(10, 10, omega2, prob.values, 0.05,
                            SolverConfig(), stream(6, "zeta"))
        assert np.abs(permuted.matrix[np.ix_(rperm, cperm)] -
                      base.matrix).max() <= 1e-8

    def test_partial_error_bounded_by_full_reference(self):
        # sparse-sample error within 5x of the fully observed reference
        truth = incoherent_low_rank(100, 2, seed=8, scale=1.0)
        ref = masked_problem(truth, 1.0, 0.01, seed=8)
        full = estimate(100, 100, ref.omega, ref.values, 0.01,
                        SolverConfig(), stream(7, "zeta"))
        sparse = masked_problem(truth, 0.3, 0.01, seed=9)
        part = estimate(100, 100, sparse.omega, sparse.values, 0.01,
                        SolverConfig(), stream(7, "zeta"))
        err_full = np.abs(full.matrix - truth).max()
        err_part = np.abs(part.matrix - truth).max()
        assert err_part <= 5 * err_full


class TestDiagnostics:
    def test_spike_column_attains_max_mu(self):
        # identical columns scaled by a one-hot pattern: all column mass on
        # one singular direction concentrated in a single item
        n_users, n_items, n_clusters = 8, 12, 4
        rewards = np.zeros((n_users, n_items))
        rewards[:, 3] = 1.0 + np.arange(n_users) % n_clusters
        diag = diagnostics(rewards, np.arange(n_users) % n_clusters)
        assert diag.mu_col == pytest.approx(n_items / n_clusters)

    def test_orthonormal_factors_kappa_near_one(self):
        g = np.random.default_rng(9)
        v, _ = np.linalg.qr(g.normal(size=(40, 3)))
        x = v.T  # 3 distinct rows, orthonormal, equal singular values
        cluster_of = np.arange(9) % 3
        rewards = x[cluster_of]
        diag = diagnostics(rewards, cluster_of)
        # direct SVD oracle on the distinct-row matrix
        svals = np.linalg.svd(x, compute_uv=False)
        assert diag.kappa == pytest.approx(svals[0] / svals[-1])
        assert diag.kappa == pytest.approx(1.0, abs=1e-9)

    def test_constant_single_cluster_kappa_one(self):
        rewards = np.full((6, 10), 2.5)
        diag = diagnostics(rewards, np.zeros(6, dtype=int))
        assert diag.kappa == pytest.approx(1.0)
        assert diag.tau == 1.0

    def test_rank_deficient_reports_infinite_kappa(self):
        rewards = np.ones((6, 8))  # rank 1 but 2 declared clusters
        diag = diagnostics(rewards, np.arange(6) % 2)
        assert np.isinf(diag.kappa)

    def test_cluster_imbalance_tau(self):
        cluster_of = np.array([0, 0, 0, 1])
        rewards = np.vstack([np.ones(5), np.ones(5), np.ones(5),
                             2 * np.ones(5)])
        diag = diagnostics(rewards, cluster_of)
        assert diag.tau == 3.0
