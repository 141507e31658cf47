#!/usr/bin/env python3
"""Horizon-scaling study: how regret grows with T for selected policies.

Runs each policy over a horizon grid on a fixed-law instance family and
prints the fitted log-log slope (explore-then-commit should scale roughly
like T^(2/3)).

The phased policy runs at its default phase-1 accuracy (the reward ceiling).
At this script's default sizes its sampling rate never falls below 1, so it
only fills (uniform play in the active set) and its regret grows linearly in
T.  For a phased run that explores, see acceptance 7 in
tests/test_acceptance.py: eps1 = 16 x reward ceiling on 120 x 120 users and
items, C = 2, sigma = 0.2 (that eps1 alone still only fills at the defaults
here).

    python scripts/scaling_study.py --algorithm etc --horizons 30 60 120
"""

import argparse
import math
import sys

import numpy as np

from blockedbandits.completion import SolverConfig
from blockedbandits.env import GeneratorSpec, NoiseModel, generate_instance
from blockedbandits.harness import run_algorithm


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algorithm", default="etc",
                        choices=["etc", "phased", "practical", "random"])
    parser.add_argument("--horizons", type=int, nargs="+",
                        default=[30, 60, 120])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--users", type=int, default=80)
    parser.add_argument("--items", type=int, default=480)
    parser.add_argument("--clusters", type=int, default=4)
    parser.add_argument("--sigma", type=float, default=0.5)
    args = parser.parse_args()

    means = []
    for horizon in args.horizons:
        budget = 1 if args.algorithm != "phased" \
            else max(1, math.ceil(math.log2(horizon)))
        spec = GeneratorSpec(name="custom", n_users=args.users,
                             n_items=args.items, n_clusters=args.clusters,
                             horizon=horizon, budget=budget, v_law="uniform",
                             v_scale=5.0,
                             noise=NoiseModel("gaussian", args.sigma))
        params = {}
        if args.algorithm == "etc":
            params = {"mu_bound": 1.2,
                      "solver": SolverConfig(max_iters=400, tol=1e-7)}
        vals = []
        for seed in range(args.seeds):
            inst = generate_instance(spec, seed)
            trace, _ = run_algorithm(inst, args.algorithm, seed, params)
            vals.append(trace.final_regret)
        means.append(float(np.mean(vals)))
        print(f"T={horizon:4d}: mean regret {means[-1]:10.3f} "
              f"({args.seeds} seeds)")
    slope = float(np.polyfit(np.log(args.horizons), np.log(means), 1)[0])
    print(f"fitted log-log slope: {slope:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
